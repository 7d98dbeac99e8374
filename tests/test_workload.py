"""The image benchmark workload: generation, cooking, grouping, queries."""

import shutil
import sys
import threading
import time

import numpy as np
import pytest

from arraybench import (
    AggregationTree,
    BenchConfig,
    Box,
    Workload,
    boundary_polygon,
    group_cycle,
    make_dense_chunk,
    storage,
)
from arraybench.errors import ConfigError, DependencyError
from arraybench.gla import run_gla_chunks
from arraybench.plans import result_digest
from arraybench.workload import N_VALUES, CookGLA

SMALL = dict(n_images=4, cycle_size=2, grid_extent=120, domain_extent=2000,
             chunk_side=40, n_workers=2, seed=7, obs_max_bbox=120,
             obs_max_poly_edges=100_000)


def small_config(**overrides):
    return BenchConfig(**{**SMALL, **overrides})


@pytest.fixture(scope="module")
def cooked(tmp_path_factory):
    """One generated + cooked + grouped small workload, shared read-only."""
    wl = Workload(small_config(), tmp_path_factory.mktemp("wl"))
    wl.generate()
    wl.cook()
    wl.group()
    return wl


def image_grid(wl, img, attr):
    """One attribute of one stored image as a full grid, read whole
    chunk by whole chunk."""
    g = wl.config.grid_extent
    grid = np.zeros((g, g), dtype=np.int64)
    for cid in wl.catalog.prune("images",
                                Box((img, 0, 0), (img, g - 1, g - 1))):
        chunk = wl.catalog.read("images", cid, columns=[attr])
        box = chunk.box
        grid[box.lo[1]:box.hi[1] + 1, box.lo[2]:box.hi[2] + 1] = \
            chunk.columns[attr].reshape(box.extents[1:])
    return grid


def counting_reads(monkeypatch):
    """Record the bytes of every ``read_chunk`` call from now on."""
    calls = []
    real = storage.read_chunk

    def counting(*args, **kwargs):
        chunk = real(*args, **kwargs)
        calls.append(chunk.bytes_read)
        return chunk
    monkeypatch.setattr(storage, "read_chunk", counting)
    return calls


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def flood_fill_components(mask):
    """8-connected components by BFS; returns a list of frozenset cells."""
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    nx, ny = mask.shape
    for sx, sy in zip(*np.nonzero(mask)):
        if seen[sx, sy]:
            continue
        stack = [(int(sx), int(sy))]
        seen[sx, sy] = True
        comp = []
        while stack:
            x, y = stack.pop()
            comp.append((x, y))
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    px, py = x + dx, y + dy
                    if 0 <= px < nx and 0 <= py < ny and mask[px, py] \
                            and not seen[px, py]:
                        seen[px, py] = True
                        stack.append((px, py))
        comps.append(frozenset(comp))
    return comps


def grouping_oracle(cycle, centers_by_img, rho, alpha):
    """Index-free O(n^2) sequential attachment over all existing groups."""
    import math
    groups = {}   # gid -> {"members": [...], "latest": (img, center)}
    order = []
    for t in sorted(centers_by_img):
        latest_before = {gid: g["latest"] for gid, g in groups.items()}
        order_before = list(order)
        new_centers = {}
        for obs_id, center in centers_by_img[t]:
            best = None
            for gid in order_before:
                t_prev, gcenter = latest_before[gid]
                allowed = rho * (1 + alpha * (t - t_prev))
                d = math.hypot(center[0] - gcenter[0],
                               center[1] - gcenter[1])
                if d <= allowed and (best is None or d < best[0] or
                                     (d == best[0] and gid < best[1])):
                    best = (d, gid)
            if best is None:
                groups[obs_id] = {"members": [obs_id],
                                  "latest": (t, center)}
                order.append(obs_id)
            else:
                gid = best[1]
                groups[gid]["members"].append(obs_id)
                new_centers.setdefault(gid, []).append(center)
        for gid, cs in new_centers.items():
            c = (sum(p[0] for p in cs) / len(cs),
                 sum(p[1] for p in cs) / len(cs))
            groups[gid]["latest"] = (t, c)
    return {gid: tuple(g["members"]) for gid, g in groups.items()}


def cook_in_memory(v1_grid, threshold, chunk_side, n_workers=2, img_id=0,
                   max_bbox=10_000, max_poly_edges=1_000_000):
    """Run the labeling aggregate over an in-memory single-image grid."""
    from arraybench import ArraySchema, AttributeSpec, DimensionSpec
    g = v1_grid.shape[0]
    dims = (DimensionSpec("img_id", 0, img_id), DimensionSpec("x", 0, g - 1),
            DimensionSpec("y", 0, g - 1))
    attrs = tuple(AttributeSpec(f"v{k}", "int64")
                  for k in range(1, N_VALUES + 1))
    schema = ArraySchema("images", dims, attrs, "dense")
    zero = np.zeros(chunk_side * chunk_side, dtype=np.int64)
    chunks = []
    for x0 in range(0, g, chunk_side):
        for y0 in range(0, g, chunk_side):
            box = Box((img_id, x0, y0),
                      (img_id, x0 + chunk_side - 1, y0 + chunk_side - 1))
            values = {"v1": v1_grid[x0:x0 + chunk_side,
                                    y0:y0 + chunk_side].ravel()}
            for k in range(2, N_VALUES + 1):
                values[f"v{k}"] = zero
            chunks.append(make_dense_chunk(schema, box, values,
                                           np.ones(box.volume, bool)))
    zero_grid = np.zeros_like(v1_grid)

    def read_values(xs, ys):
        return {f"v{k}": zero_grid[xs, ys] for k in range(2, N_VALUES + 1)}
    gla = CookGLA(img_id, threshold, g, max_bbox, max_poly_edges, read_values)
    by_worker = {}
    for i, ch in enumerate(chunks):
        by_worker.setdefault(i % n_workers, []).append(ch)
    return run_gla_chunks(schema, by_worker, gla,
                          AggregationTree.star(n_workers)).result


def random_v1(rng, g, threshold, blob_count=6):
    grid = rng.integers(0, threshold // 2, (g, g), dtype=np.int64)
    for _ in range(blob_count):
        cx, cy = rng.integers(5, g - 5, 2)
        r = int(rng.integers(2, 7))
        xs = np.arange(max(0, cx - r), min(g, cx + r + 1))
        ys = np.arange(max(0, cy - r), min(g, cy + r + 1))
        disk = (xs[:, None] - cx) ** 2 + (ys[None, :] - cy) ** 2 <= r * r
        block = grid[xs[0]:xs[-1] + 1, ys[0]:ys[-1] + 1]
        block[disk] = rng.integers(threshold, 2 * threshold)
    # Salt with isolated hot cells so single-cell components appear too.
    hot = rng.integers(0, g, (15, 2))
    grid[hot[:, 0], hot[:, 1]] = threshold
    return grid


def serpentine(g, strip):
    """One path snaking over a g x g grid in vertical strips ``strip``
    cells wide: along every other row of a strip, joined at alternate
    ends, then through the strip's last (otherwise empty) column into the
    next strip, at its bottom or top row in turn."""
    mask = np.zeros((g, g), dtype=bool)
    last = (g - 1) // 2 * 2  # the last full row
    for k, y0 in enumerate(range(0, g, strip)):
        y1 = min(y0 + strip, g) - 2  # the strip's last path column
        mask[::2, y0:y1 + 1] = True
        mask[1::4, y1] = True
        mask[3::4, y0] = True
        if y1 + 2 < g:
            mask[last if k % 2 == 0 else 0, y1 + 1] = True
    return mask


def spiral(g):
    """One path spiralling inward from the corner of a g x g grid, its
    arms one empty cell apart."""
    mask = np.zeros((g, g), dtype=bool)
    x, y, dx, dy = 0, -1, 0, 1
    for n in [g] + [n for n in range(g - 1, 0, -2) for _ in (0, 1)]:
        for _ in range(n):
            x, y = x + dx, y + dy
            mask[x, y] = True
        dx, dy = dy, -dx
    return mask


def isolated(g):
    """A cell at every other position of both axes: (g / 2)^2 components."""
    mask = np.zeros((g, g), dtype=bool)
    mask[::2, ::2] = True
    return mask


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


class TestConfig:
    def test_desk_defaults(self):
        c = BenchConfig()
        assert c.n_images == 8
        assert c.n_cycles == 2
        assert c.tiles_per_image == 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            BenchConfig(n_images=5, cycle_size=2)
        with pytest.raises(ConfigError):
            BenchConfig(grid_extent=100, chunk_side=33)
        with pytest.raises(ConfigError):
            BenchConfig(grid_extent=10**6)

    def test_from_mapping_types_and_unknown_keys(self):
        c = BenchConfig.from_mapping({"n_images": "4", "cycle_size": "2",
                                      "group_radius": "12.5"})
        assert c.n_images == 4
        assert c.group_radius == 12.5
        with pytest.raises(ConfigError):
            BenchConfig.from_mapping({"bogus": "1"})

    @pytest.mark.parametrize("key", ["x1", "y1", "t1", "u1", "x2", "y2",
                                     "t2", "u2", "t3", "u3", "d4", "d5",
                                     "d6", "vi_index", "oi_index"])
    def test_query_slabs_and_tiles_are_not_config_keys(self, key):
        """Slabs, tiles and attributes are each query call's arguments: a
        config that sets one is rejected, not accepted and ignored."""
        with pytest.raises(ConfigError, match="unknown config key"):
            BenchConfig.from_mapping({key: "5"})


# ---------------------------------------------------------------------------
# Cooking
# ---------------------------------------------------------------------------


class TestCooking:
    def test_components_match_flood_fill(self):
        for trial in range(12):
            rng = np.random.default_rng(trial)
            g, t = 60, 500
            grid = random_v1(rng, g, t)
            obs = cook_in_memory(grid, t, chunk_side=20)
            got = {frozenset(zip(o.cells_x.tolist(), o.cells_y.tolist()))
                   for o in obs}
            expected = set(flood_fill_components(grid >= t))
            assert got == expected

    def test_label_is_min_global_cell_id(self):
        rng = np.random.default_rng(3)
        g, t = 40, 500
        grid = random_v1(rng, g, t)
        obs = cook_in_memory(grid, t, chunk_side=20, img_id=2)
        for o in obs:
            ids = 2 * g * g + o.cells_x.astype(np.int64) * g + o.cells_y
            assert o.obs_id == ids.min()
            assert o.img_id == 2

    def test_centers_and_attrs(self):
        rng = np.random.default_rng(4)
        g, t = 40, 500
        grid = random_v1(rng, g, t)
        obs = cook_in_memory(grid, t, chunk_side=40)
        for o in obs:
            assert o.center == (pytest.approx(o.cells_x.mean()),
                                pytest.approx(o.cells_y.mean()))
            assert o.bbox.lo == (o.cells_x.min(), o.cells_y.min())
            vals = grid[o.cells_x, o.cells_y]
            assert o.attrs["o1"] == pytest.approx(vals.mean())
            # Other attributes were zero-filled in this harness.
            assert o.attrs["o2"] == 0.0

    def test_chunking_invariance(self):
        """The observations, down to the order of their cells, do not
        depend on the chunk grid or worker count: cells come out in
        row-major (x, y) order."""
        rng = np.random.default_rng(5)
        g, t = 48, 500
        grid = random_v1(rng, g, t)
        results = []
        for cs, nw in ((48, 1), (24, 2), (16, 3), (12, 4)):
            obs = cook_in_memory(grid, t, chunk_side=cs, n_workers=nw)
            results.append([(o.obs_id, o.cells_x.tolist(), o.cells_y.tolist())
                            for o in obs])
        assert all(r == results[0] for r in results)
        for _obs_id, xs, ys in results[0]:
            assert list(zip(xs, ys)) == sorted(zip(xs, ys))

    @pytest.mark.parametrize("shape, g, chunk_side, budget_s", [
        (lambda g: serpentine(g, g), 250, 250, 2.0),
        (lambda g: serpentine(g, 250), 500, 250, 6.0),
        (spiral, 250, 250, 2.0),
        (isolated, 400, 100, 2.4),
    ], ids=["serpentine-1-chunk", "serpentine-4-chunks", "spiral",
            "isolated"])
    def test_adversarial_shapes_cook_in_linear_time(self, shape, g,
                                                    chunk_side, budget_s):
        """Paths whose diameter is tens of thousands of cells, within
        one chunk and across chunks, and tens of thousands of one-cell
        components cook within a time budget and match the flood-fill
        oracle."""
        t = 500
        mask = shape(g)
        grid = np.where(mask, t, 0).astype(np.int64)
        start = time.perf_counter()
        obs = cook_in_memory(grid, t, chunk_side=chunk_side)
        elapsed = time.perf_counter() - start
        got = {frozenset(zip(o.cells_x.tolist(), o.cells_y.tolist()))
               for o in obs}
        assert got == set(flood_fill_components(mask))
        assert elapsed < budget_s

    def test_size_limits_drop_observations(self):
        g, t = 30, 500
        grid = np.zeros((g, g), dtype=np.int64)
        grid[5:25, 5:25] = t  # 20x20 block
        grid[0, 0] = t        # isolated single cell
        obs = cook_in_memory(grid, t, chunk_side=30, max_bbox=10)
        assert [o.size for o in obs] == [1]

    def test_empty_image(self):
        grid = np.zeros((20, 20), dtype=np.int64)
        assert cook_in_memory(grid, 500, chunk_side=10) == []


class TestBoundaryPolygon:
    def test_single_cell(self):
        poly = boundary_polygon(np.array([2]), np.array([3]))
        assert sorted(poly) == [(2, 3), (2, 4), (3, 3), (3, 4)]

    def test_rectangle_merges_collinear(self):
        xs, ys = np.meshgrid(np.arange(1, 5), np.arange(2, 9), indexing="ij")
        poly = boundary_polygon(xs.ravel(), ys.ravel())
        assert len(poly) == 4
        assert sorted(poly) == [(1, 2), (1, 9), (5, 2), (5, 9)]

    def test_l_shape(self):
        cells = [(0, 0), (1, 0), (1, 1)]
        poly = boundary_polygon(np.array([c[0] for c in cells]),
                                np.array([c[1] for c in cells]))
        assert len(poly) == 6

    def test_interior_hole_excluded(self):
        # A 3x3 ring: the outer boundary has 4 vertices; the hole's ring is
        # not part of the reported polygon.
        cells = [(x, y) for x in range(3) for y in range(3)
                 if (x, y) != (1, 1)]
        poly = boundary_polygon(np.array([c[0] for c in cells]),
                                np.array([c[1] for c in cells]))
        assert len(poly) == 4

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        comp = flood_fill_components(rng.random((15, 15)) < 0.6)[0]
        xs = np.array([c[0] for c in comp])
        ys = np.array([c[1] for c in comp])
        assert boundary_polygon(xs, ys) == boundary_polygon(xs, ys)

    def test_vertices_lie_on_cell_corners(self):
        rng = np.random.default_rng(1)
        for comp in flood_fill_components(rng.random((12, 12)) < 0.5):
            xs = np.array([c[0] for c in comp])
            ys = np.array([c[1] for c in comp])
            cells = set(comp)
            for (vx, vy) in boundary_polygon(xs, ys):
                touching = [(vx + dx, vy + dy) for dx in (-1, 0)
                            for dy in (-1, 0)]
                assert any(c in cells for c in touching)
                assert not all(c in cells for c in touching)


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------


def random_cycle(rng, n_images=4, max_obs=8, extent=200.0):
    centers_by_img = {}
    next_id = 0
    for t in range(n_images):
        n = int(rng.integers(0, max_obs + 1))
        obs = []
        for _ in range(n):
            obs.append((next_id,
                        (float(rng.uniform(0, extent)),
                         float(rng.uniform(0, extent)))))
            next_id += 1
        centers_by_img[t] = obs
    return centers_by_img


class TestGrouping:
    def test_matches_sequential_oracle(self):
        for trial in range(30):
            rng = np.random.default_rng(trial)
            centers = random_cycle(rng)
            rho, alpha = 25.0, 0.2
            groups = group_cycle(0, centers, rho, alpha, cycle_size=4)
            got = {g.group_id: tuple(g.members) for g in groups}
            assert got == grouping_oracle(0, centers, rho, alpha)

    def test_first_image_seeds_all(self):
        centers = {0: [(0, (10.0, 10.0)), (1, (12.0, 12.0))],
                   1: [(2, (10.5, 10.5))]}
        groups = group_cycle(0, centers, rho=5.0, alpha=0.0, cycle_size=2)
        gids = sorted(g.group_id for g in groups)
        assert gids == [0, 1]
        # Obs 2 attaches to its nearest seed.
        by_id = {g.group_id: g for g in groups}
        assert by_id[0].members == [0, 2]

    def test_radius_widens_with_time_gap(self):
        # A center 12 away after 2 empty images: reachable only because the
        # allowance grows to rho * (1 + alpha * 3).
        centers = {0: [(0, (0.0, 0.0))], 1: [], 2: [],
                   3: [(1, (12.0, 0.0))]}
        tight = group_cycle(0, centers, rho=10.0, alpha=0.0, cycle_size=4)
        assert sorted(g.group_id for g in tight) == [0, 1]
        wide = group_cycle(0, centers, rho=10.0, alpha=0.1, cycle_size=4)
        assert [g.group_id for g in wide] == [0]
        assert wide[0].members == [0, 1]

    def test_same_image_obs_never_share_state(self):
        # Two close observations in the same later image must not attach to
        # each other; both compare only against the earlier group.
        centers = {0: [(0, (0.0, 0.0))],
                   1: [(1, (4.0, 0.0)), (2, (8.0, 0.0))]}
        groups = group_cycle(0, centers, rho=5.0, alpha=0.0, cycle_size=2)
        by_id = {g.group_id: g for g in groups}
        assert by_id[0].members == [0, 1]
        assert by_id[2].members == [2]  # too far from group 0, seeds anew

    def test_centroids(self):
        centers = {0: [(0, (0.0, 0.0))], 1: [(1, (2.0, 2.0))]}
        groups = group_cycle(0, centers, rho=5.0, alpha=0.0, cycle_size=2)
        assert groups[0].center == (1.0, 1.0)
        assert groups[0].per_img_centers == {0: (0.0, 0.0), 1: (2.0, 2.0)}


# ---------------------------------------------------------------------------
# The end-to-end workload on a small configuration
# ---------------------------------------------------------------------------


class TestWorkloadEndToEnd:
    def test_generation_deterministic(self, tmp_path):
        wl1 = Workload(small_config(), tmp_path / "a")
        wl1.generate()
        wl2 = Workload(small_config(), tmp_path / "b")
        wl2.generate()
        c1 = wl1.catalog.read("images", 3)
        c2 = wl2.catalog.read("images", 3)
        assert np.array_equal(c1.columns["v1"], c2.columns["v1"])
        assert wl1.image_origins() == wl2.image_origins()

    def test_generate_resets_the_origins(self, tmp_path):
        wl = Workload(small_config(), tmp_path / "a")
        wl.generate()
        first = wl.image_origins()
        wl.config = small_config(seed=8)
        wl.generate()
        other = Workload(small_config(seed=8), tmp_path / "b")
        other.generate()
        assert wl.image_origins() == other.image_origins() != first

    def test_observation_attrs_are_cell_means(self, cooked):
        """Each o_k of an observation, in memory and in its obs_center
        row, is the mean of v_k over its cells, read directly from
        images."""
        n_obs = 0
        for img, obs in cooked.observations.items():
            grids = {k: image_grid(cooked, img, f"v{k}")
                     for k in range(1, N_VALUES + 1)}
            center = cooked.catalog.read("obs_center", img)
            row = {int(oid): i for i, oid in
                   enumerate(center.columns["obs_id"].tolist())}
            for o in obs:
                for k in range(1, N_VALUES + 1):
                    mean = float(grids[k][o.cells_x, o.cells_y].mean())
                    assert o.attrs[f"o{k}"] == mean
                    assert center.columns[f"o{k}"][row[o.obs_id]] == mean
                n_obs += 1
        assert n_obs > 0

    def test_chunk_layout(self, cooked):
        c = cooked.config
        entry = cooked.catalog.entry("images")
        assert len(entry.chunk_index) == c.n_images * c.tiles_per_image
        # Chunk ids follow img * tiles_per_image + tile.
        for img in range(c.n_images):
            for cid in range(img * c.tiles_per_image,
                             (img + 1) * c.tiles_per_image):
                assert entry.ref(cid).box.lo[0] == img
        # Derived arrays: one chunk per image / cycle (every image of this
        # catalog has observations).
        assert len(cooked.catalog.entry("obs").chunk_index) == c.n_images
        assert len(cooked.catalog.entry("obs_center").chunk_index) == \
            c.n_images
        assert len(cooked.catalog.entry("group_center").chunk_index) == \
            c.n_cycles
        assert len(cooked.catalog.entry("group_center_img").chunk_index) == \
            c.n_images
        obs_group = cooked.catalog.entry("obs_group")
        assert [ref.box.lo[0] for ref in obs_group.chunk_index] == \
            list(range(c.n_cycles))

    def test_cooked_observations_persisted(self, cooked):
        c = cooked.config
        for img in range(c.n_images):
            obs = cooked.observations[img]
            chunk = cooked.catalog.read("obs", img)
            assert chunk.cell_count == sum(o.size for o in obs)
            center = cooked.catalog.read("obs_center", img)
            assert center.cell_count == len(obs)
            assert sorted(center.columns["obs_id"].tolist()) == \
                sorted(o.obs_id for o in obs)

    def test_obs_centers_in_global_coordinates(self, cooked):
        origins = cooked.image_origins()
        for img, obs in cooked.observations.items():
            chunk = cooked.catalog.read("obs_center", img)
            by_id = {int(i): (int(x), int(y)) for i, x, y in zip(
                chunk.columns["obs_id"], chunk.dim_columns["x"],
                chunk.dim_columns["y"])}
            ox, oy = origins[img]
            for o in obs:
                assert by_id[o.obs_id] == (round(o.center[0]) + ox,
                                           round(o.center[1]) + oy)

    def test_groups_persisted(self, cooked):
        c = cooked.config
        for cycle in range(c.n_cycles):
            groups = cooked.groups[cycle]
            chunk = cooked.catalog.read("group_center", cycle)
            assert sorted(chunk.columns["group_id"].tolist()) == \
                sorted(g.group_id for g in groups)
        # Every cooked observation belongs to exactly one group.
        all_members = [oid for gs in cooked.groups.values()
                       for g in gs for oid in g.members]
        all_obs = [o.obs_id for obs in cooked.observations.values()
                   for o in obs]
        assert sorted(all_members) == sorted(all_obs)

    def test_queries_missing_dependency(self, tmp_path):
        wl = Workload(small_config(), tmp_path / "empty")
        with pytest.raises(DependencyError):
            wl.q1(0, x1=100, y1=100, t1=300, u1=300)
        with pytest.raises(DependencyError):
            wl.cook()
        with pytest.raises(DependencyError):
            wl.group()

    def test_catalog_grouped_without_obs_group(self, tmp_path, cooked):
        """A catalog grouped before ``obs_group`` existed sends q9 back
        to the group phase."""
        shutil.copytree(cooked.catalog.data_dir, tmp_path / "old")
        shutil.rmtree(tmp_path / "old" / "obs_group")
        wl = Workload(cooked.config, tmp_path / "old")
        with pytest.raises(DependencyError, match="'group' phase"):
            wl.q9(0, gx=0, gy=0, w=1999, h=1999, d6=5)

    def test_no_observations(self, tmp_path):
        """A catalog cooked at a threshold no cell reaches groups and
        answers q4-q9 with empty results."""
        Workload(small_config(), tmp_path).generate()
        wl = Workload(small_config(cook_threshold=10**9), tmp_path)
        wl.cook()
        wl.group()
        assert wl.observations == {img: [] for img in range(4)}
        assert wl.groups == {0: [], 1: []}
        slab = dict(gx=0, gy=0, w=1999, h=1999)
        assert wl.q4(0, gx=0, gy=0, t2=1999, u2=1999)[0] == {}
        assert wl.q5(0, **slab)[0] == {"count": 0, "obs_ids": []}
        assert wl.q6(0, **slab, d4=20, d5=1)[0] == {0: [], 1: []}
        assert wl.q7(0, **slab)[0] == []
        assert wl.q8(0, **slab, d6=5)[0] == []
        assert wl.q9(0, **slab, d6=5)[0] == []


class TestQueries:
    def test_q1_matches_direct_average(self, cooked):
        c = cooked.config
        value, stats = cooked.q1(0, x1=10, y1=20, t1=50, u1=40, vi=2)
        imgs = list(c.cycle_images(0))
        total, count = 0.0, 0
        for img in imgs:
            arr = image_grid(cooked, img, "v2")
            total += arr[10:61, 20:61].sum()
            count += arr[10:61, 20:61].size
        assert value["result"] == pytest.approx(total / count, rel=1e-12)
        slab = Box((imgs[0], 10, 20), (imgs[-1], 60, 60))
        assert stats.chunks_read == len(cooked.catalog.prune("images",
                                                             slab)) > 0

    def test_q1_pruning_reads_only_needed_chunks(self, cooked):
        c = cooked.config
        # A slab inside one chunk tile of each image.
        value, stats = cooked.q1(0, x1=0, y1=0, t1=10, u1=10)
        assert stats.chunks_read == c.cycle_size
        # Only one column is fetched; 11 would cost ~11x the bytes.
        per_chunk = stats.bytes_read / stats.chunks_read
        full_chunk = c.chunk_side ** 2 * 8 * N_VALUES
        assert per_chunk < full_chunk / 5

    def test_q9_stats_count_every_read(self, cooked, monkeypatch):
        """q9 runs q5 inside its own measurement; q5's measurement must
        not hide q9's reads."""
        calls = counting_reads(monkeypatch)
        _value, stats = cooked.q9(0, gx=750, gy=750, w=500, h=500, d6=10)
        assert stats.chunks_read == len(calls) > 0
        assert stats.bytes_read == sum(calls)

    def test_q9_in_a_fresh_workload(self, cooked):
        """q9 reads the observation groups from the catalog, so a
        workload that did not group answers it as the grouping one does."""
        fresh = Workload(cooked.config, cooked.catalog.data_dir)
        n = 0
        for cycle in (0, 1):
            for gx, gy, w in ((0, 0, 1999), (900, 900, 300), (750, 750, 500)):
                kw = dict(gx=gx, gy=gy, w=w, h=w, d6=5)
                got, _ = fresh.q9(cycle, **kw)
                want, _ = cooked.q9(cycle, **kw)
                assert result_digest(got) == result_digest(want)
                n += len(got)
        assert n > 0

    def test_q5_stats_count_every_read(self, cooked, monkeypatch):
        """q5's stats count every chunk it reads, the image origins
        included, and a workload reads the origins once per load."""
        calls = counting_reads(monkeypatch)
        fresh = Workload(cooked.config, cooked.catalog.data_dir)
        counts = []
        for wl in (fresh, fresh, cooked):
            calls.clear()
            _value, stats = wl.q5(0, gx=0, gy=0, w=1999, h=1999)
            assert stats.chunks_read == len(calls) > 0
            assert stats.bytes_read == sum(calls)
            counts.append(len(calls))
        assert counts == [counts[1] + 1, counts[1], counts[1]]

    def test_concurrent_queries_keep_their_own_counts(self, cooked):
        slab = dict(x1=100, y1=100, t1=300, u1=300)
        _value, solo = cooked.q1(0, **slab)
        assert solo.chunks_read > 0
        seen = []

        def client():
            for _ in range(50):
                seen.append(cooked.q1(0, **slab)[1])
        threads = [threading.Thread(target=client) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 100
        assert all(stats == solo for stats in seen)

    def test_q2_matches_full_cook_when_unrestricted(self, cooked):
        c = cooked.config
        value, _ = cooked.q2(1, x2=0, y2=0, t2=c.grid_extent,
                             u2=c.grid_extent, threshold=c.cook_threshold)
        img = c.cycle_images(1)[0]
        expected = cooked.observations[img]
        assert [o.obs_id for o in value] == [o.obs_id for o in expected]

    def test_q2_restricted_region(self, cooked):
        value, _ = cooked.q2(0, x2=0, y2=0, t2=59, u2=59, threshold=400)
        for o in value:
            assert o.cells_x.max() <= 59 and o.cells_y.max() <= 59

    def test_q3_regrid_shape_and_values(self, cooked):
        value, _ = cooked.q3(0, x1=0, y1=0, t3=59, u3=59)
        arr = value
        # 60 indices with a 3-per-10 pattern -> 18 origins per axis.
        assert arr.box.extents[1:] == (18, 18)
        assert set(arr.schema.attr_names) == \
            {f"v{k}_avg" for k in range(1, N_VALUES + 1)}
        # Spot-check one origin against the raw data.
        img = list(cooked.config.cycle_images(0))[0]
        grid = image_grid(cooked, img, "v1")
        cells = arr.cells()
        sel = (cells.coords["img_id"] == 0)
        i = int(np.nonzero(sel)[0][0])
        # Origin axes map positions back through the 1001001000 pattern.
        from arraybench import BitPattern
        xs = BitPattern("1001001000").selected(0, 59)
        ox = xs[cells.coords["x"][i]]
        oy = xs[cells.coords["y"][i]]
        window = grid[ox:ox + 4, oy:oy + 4]
        assert cells.columns["v1_avg"][i] == pytest.approx(window.mean())

    def test_q4_matches_direct_average(self, cooked):
        c = cooked.config
        value, stats = cooked.q4(0, gx=0, gy=0, t2=c.domain_extent - 1,
                                 u2=c.domain_extent - 1, oi=3)
        vals = [o.attrs["o3"] for img in c.cycle_images(0)
                for o in cooked.observations[img]]
        assert value["result"] == pytest.approx(np.mean(vals))

    def test_q5_matches_direct_membership(self, cooked):
        c = cooked.config
        origins = cooked.image_origins()
        gx, gy, w, h = 900, 900, 300, 300
        value, stats = cooked.q5(0, gx=gx, gy=gy, w=w, h=h)
        expected = set()
        for img in c.cycle_images(0):
            ox, oy = origins[img]
            for o in cooked.observations[img]:
                hit = ((o.cells_x + ox >= gx) & (o.cells_x + ox <= gx + w) &
                       (o.cells_y + oy >= gy) & (o.cells_y + oy <= gy + h))
                if hit.any():
                    expected.add(o.obs_id)
        assert set(value["obs_ids"]) == expected
        assert value["count"] == len(expected)

    def test_q6_matches_direct_density(self, cooked):
        c = cooked.config
        d4, d5 = 40, 2
        value, _ = cooked.q6(0, gx=0, gy=0, w=c.domain_extent - 1,
                             h=c.domain_extent - 1, d4=d4, d5=d5)
        for img in c.cycle_images(0):
            chunk = cooked.catalog.read("obs_center", img)
            pts = list(zip(chunk.dim_columns["x"].tolist(),
                           chunk.dim_columns["y"].tolist()))
            expected = sorted(
                (x, y, sum(1 for (px, py) in pts
                           if x <= px < x + d4 and y <= py < y + d4))
                for (x, y) in pts
                if sum(1 for (px, py) in pts
                       if x <= px < x + d4 and y <= py < y + d4) >= d5)
            assert value[img] == expected

    def test_q7_matches_group_centers(self, cooked):
        c = cooked.config
        value, stats = cooked.q7(0, gx=0, gy=0, w=c.domain_extent - 1,
                                 h=c.domain_extent - 1)
        assert value == sorted(g.group_id for g in cooked.groups[0])
        assert stats.chunks_read == 1

    def test_q8_tiles_follow_centers(self, cooked):
        c = cooked.config
        d6 = 5
        value, _ = cooked.q8(0, gx=0, gy=0, w=c.domain_extent - 1,
                             h=c.domain_extent - 1, d6=d6)
        origins = cooked.image_origins()
        by_group = {g.group_id: g for g in cooked.groups[0]}
        count = 0
        for gid, img, tile in value:
            grp = by_group[gid]
            cx, cy = grp.per_img_centers[img]
            # The tile is globally addressed and clipped to the image.
            assert tile.box.lo[1] >= round(cx) - d6 - 1
            assert tile.box.hi[1] <= round(cx) + d6 + 1
            ox, oy = origins[img]
            assert 0 <= tile.box.lo[1] - ox < c.grid_extent
            count += 1
        expected = sum(len(g.per_img_centers) for g in cooked.groups[0])
        assert count == expected

    def test_q9_subset_of_q8(self, cooked):
        c = cooked.config
        full_q8, _ = cooked.q8(0, gx=0, gy=0, w=c.domain_extent - 1,
                               h=c.domain_extent - 1, d6=5)
        q9, _ = cooked.q9(0, gx=0, gy=0, w=c.domain_extent - 1,
                          h=c.domain_extent - 1, d6=5)
        ids8 = {(gid, img) for gid, img, _ in full_q8}
        ids9 = {(gid, img) for gid, img, _ in q9}
        assert ids9 <= ids8
        # Over the whole domain every group member qualifies.
        assert {g for g, _ in ids9} == {g.group_id
                                        for g in cooked.groups[0]
                                        if g.members}

    def test_results_worker_invariant(self, tmp_path, cooked):
        """The whole pipeline gives the same answers at n_workers=1."""
        wl = Workload(small_config(n_workers=1), tmp_path / "solo")
        wl.generate()
        wl.cook()
        wl.group()
        for img, obs in cooked.observations.items():
            assert [o.obs_id for o in wl.observations[img]] == \
                [o.obs_id for o in obs]
        for cycle, groups in cooked.groups.items():
            assert [(g.group_id, g.members) for g in wl.groups[cycle]] == \
                [(g.group_id, g.members) for g in groups]
        for q, kwargs in (("q1", dict(x1=100, y1=100, t1=300, u1=300)),
                          ("q4", dict(gx=750, gy=750, t2=500, u2=500)),
                          ("q5", dict(gx=0, gy=0, w=1999, h=1999))):
            a, _ = getattr(cooked, q)(0, **kwargs)
            b, _ = getattr(wl, q)(0, **kwargs)
            if isinstance(a, dict) and "result" in a:
                assert a["result"] == pytest.approx(b["result"], rel=1e-12)
            else:
                assert a == b
