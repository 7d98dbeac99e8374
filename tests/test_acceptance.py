"""End-to-end guarantees, each checked against an independent oracle and a
wall-clock budget."""

import math
import time

import numpy as np
import pytest
from scipy import ndimage

from arraybench import (
    AggregateFn,
    AggregationTree,
    BitPattern,
    Box,
    NeighborhoodShape,
    Predicate,
    Workload,
    apply,
    apply_plus,
    combine,
    filter as filter_op,
    inner_djoin,
    make_dense_chunk,
    make_sparse_chunk,
    materialize,
    reduce as reduce_op,
)
from arraybench.algebra import cell_batch
from arraybench.cli import run_benchmark
from arraybench.gla import run_gla_chunks
from arraybench.model import ArraySchema, AttributeSpec, DimensionSpec
from arraybench.plans import result_digest
from arraybench.storage import tile_box, write_chunk
from arraybench.workload import BenchConfig
from tests.conftest import make_dense_2d
from tests.test_gla import ALL_AGGS, make_chunks, oracle_values
from tests.test_stencil import result_map_valid, stencil_oracle
from tests.test_workload import (
    cook_in_memory,
    grouping_oracle,
    random_cycle,
    random_v1,
    small_config,
)
from arraybench.workload import group_cycle


def _partition(obs_list):
    return {frozenset(zip(o.cells_x.tolist(), o.cells_y.tolist()))
            for o in obs_list}


def _label_partition(mask):
    """Independent connected-component oracle (8-connected)."""
    labels, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    out = []
    for lab in range(1, n + 1):
        xs, ys = np.nonzero(labels == lab)
        out.append(frozenset(zip(xs.tolist(), ys.tolist())))
    return set(out)


def test_cooking_matches_flood_fill_oracle():
    """Fifty seeded 1000x1000 images, chunked 250x250 on 4 workers: the
    extracted components equal an independent labeling oracle exactly, and
    re-running extraction reproduces the same partition."""
    start = time.perf_counter()
    g, thr = 1000, 500
    for trial in range(50):
        rng = np.random.default_rng(trial)
        grid = random_v1(rng, g, thr, blob_count=20)
        obs = cook_in_memory(grid, thr, chunk_side=250, n_workers=4)
        assert _partition(obs) == _label_partition(grid >= thr)
        if trial < 5:
            again = cook_in_memory(grid, thr, chunk_side=250, n_workers=4)
            assert sorted((o.obs_id, tuple(o.cells_x), tuple(o.cells_y))
                          for o in again) == \
                sorted((o.obs_id, tuple(o.cells_x), tuple(o.cells_y))
                       for o in obs)
    assert time.perf_counter() - start < 60


def test_operators_match_naive_oracles():
    """filter/reduce/apply/combine/inner_djoin/apply_plus each agree with a
    direct single-pass computation on 200 random arrays up to 64x64."""
    start = time.perf_counter()
    for trial in range(200):
        rng = np.random.default_rng(10_000 + trial)
        nx = int(rng.integers(2, 65))
        ny = int(rng.integers(2, 65))
        cs = (int(rng.integers(1, nx + 1)), int(rng.integers(1, ny + 1)))
        a, ga, va = make_dense_2d(rng, nx, ny, chunk_shape=cs,
                                  valid_prob=0.85)
        b, gb, vb = make_dense_2d(rng, nx, ny, chunk_shape=cs,
                                  valid_prob=0.85)

        # filter: range predicate on one attribute.
        lo, hi = sorted(rng.integers(-50, 51, 2).tolist())
        fgrid, fvalid = materialize(
            filter_op(a, Predicate.of(ranges={"a0": (lo, hi)})), "a0")
        want = va & (ga["a0"] >= lo) & (ga["a0"] <= hi)
        assert (fvalid == want).all()
        assert (fgrid[want] == ga["a0"][want]).all()

        # reduce: whole-array sum and average.
        red = reduce_op(a, [], [AggregateFn("sum", "a0"),
                                AggregateFn("avg", "a0")])
        if va.any():
            assert red["sum_a0"] == pytest.approx(float(ga["a0"][va].sum()),
                                                  rel=1e-9)
            assert red["avg_a0"] == pytest.approx(float(ga["a0"][va].mean()),
                                                  rel=1e-9)
        else:
            assert red == {}

        # apply: a new attribute computed from existing ones.
        agrid, avalid = materialize(apply(a, "t", "a0 * 2 + a1"), "t")
        assert (avalid == va).all()
        expect = (ga["a0"] * 2 + ga["a1"]).astype(float)
        assert np.allclose(agrid[va], expect[va], rtol=1e-9)

        # combine: per-cell merge of same-named attributes.
        cgrid, cvalid = materialize(combine(a, b, "a + b"), "a0")
        both = va & vb
        assert (cvalid == both).all()
        assert np.allclose(cgrid[both], (ga["a0"] + gb["a0"])[both],
                           rtol=1e-9)

        # inner_djoin: structural join on cell coordinates.
        j = inner_djoin(a, b)
        jgrid, jvalid = materialize(j, "a0_r")
        assert (jvalid == both).all()
        assert (jgrid[both] == gb["a0"][both]).all()

        # apply_plus: windowed aggregation over valid origins.
        kind = ("sum", "avg", "count", "min", "max")[trial % 5]
        hx = min(2, (nx - 1) // 2)
        hy = min(2, (ny - 1) // 2)
        shape = NeighborhoodShape.of(
            (-int(rng.integers(0, hx + 1)), int(rng.integers(0, hx + 1))),
            (-int(rng.integers(0, hy + 1)), int(rng.integers(0, hy + 1))))
        out = apply_plus(a, shape, "valid",
                         AggregateFn(kind, None if kind == "count" else "a0",
                                     "r"), n_workers=2)
        got = result_map_valid(out, "r")
        expected = stencil_oracle(ga["a0"], va, shape,
                                  list(zip(*np.nonzero(va))), kind)
        assert set(got) == set(expected)
        for k, v in expected.items():
            assert got[k] == pytest.approx(v, rel=1e-9)
    assert time.perf_counter() - start < 30


def test_boundary_strategies_agree():
    """Windowed aggregation gives the same answer whether chunk edges are
    handled by merging partials or by replicated halos, for every worker
    count, and both equal the whole-array oracle."""
    start = time.perf_counter()
    for trial in range(15):
        rng = np.random.default_rng(20_000 + trial)
        nx = int(rng.integers(6, 25))
        ny = int(rng.integers(6, 25))
        cs = (int(rng.integers(2, nx + 1)), int(rng.integers(2, ny + 1)))
        a, ga, va = make_dense_2d(rng, nx, ny, chunk_shape=cs,
                                  valid_prob=0.8)
        shape = NeighborhoodShape.of(
            (-int(rng.integers(0, 3)), int(rng.integers(0, 3))),
            (-int(rng.integers(0, 3)), int(rng.integers(0, 3))))
        kind = ("sum", "avg", "count", "min", "max", "count_distinct")[
            trial % 6]
        agg = AggregateFn(kind, None if kind == "count" else "a0", "r")
        expected = stencil_oracle(ga["a0"], va, shape,
                                  list(zip(*np.nonzero(va))), kind)
        for boundary in ("merge", "overlap"):
            for nw in (1, 2, 4, 8):
                out = apply_plus(a, shape, "valid", agg, boundary=boundary,
                                 n_workers=nw)
                got = result_map_valid(out, "r")
                assert set(got) == set(expected)
                for k, v in expected.items():
                    assert got[k] == pytest.approx(v, rel=1e-9)
    assert time.perf_counter() - start < 30


def test_pruning_is_exact(tmp_path):
    """Metadata pruning admits exactly the chunks whose populated cells
    intersect the query box, and skipped columns cost zero payload bytes."""
    start = time.perf_counter()
    wl = Workload(small_config(), tmp_path / "wl")
    wl.generate()
    wl.cook()
    wl.group()
    cat = wl.catalog
    rng = np.random.default_rng(99)
    for name in ("images", "obs_center", "group_center"):
        entry = cat.entry(name)
        schema = entry.schema
        # Oracle metadata: the bounding box of each chunk's populated
        # cells, recomputed from full reads.
        bboxes = {}
        for ref in entry.chunk_index:
            batch = cell_batch(cat.read(name, ref.chunk_id), schema)
            if len(batch) == 0:
                continue
            bboxes[ref.chunk_id] = {
                d: (int(batch.coords[d].min()), int(batch.coords[d].max()))
                for d in schema.dim_names}
        for _ in range(500):
            lo, hi = [], []
            for dim in schema.dims:
                extent = dim.hi - dim.lo + 1
                width = int(rng.integers(1, extent + 1))
                q0 = int(rng.integers(dim.lo, dim.hi - width + 2))
                lo.append(q0)
                hi.append(q0 + width - 1)
            box = Box(tuple(lo), tuple(hi))
            expected = sorted(
                cid for cid, bb in bboxes.items()
                if all(bb[d][0] <= h and bb[d][1] >= l
                       for d, l, h in zip(schema.dim_names, lo, hi)))
            assert sorted(cat.prune(name, box)) == expected

    # Reading one value column of an image chunk skips the payload of the
    # other ten columns entirely: v2..v11 hold 0..4T (T = 900), so each is
    # stored in 2 bytes per cell.
    full = cat.read("images", 0)
    sel = cat.read("images", 0, columns=["v1"])
    n = full.box.volume
    assert full.bytes_read - sel.bytes_read == 10 * 2 * n
    # Same for a sparse array: unrequested attribute payloads stay on disk.
    full = cat.read("obs_center", 0)
    sel = cat.read("obs_center", 0, columns=["obs_id"])
    assert full.bytes_read - sel.bytes_read == 11 * 8 * full.cell_count
    assert time.perf_counter() - start < 30


def test_aggregate_merge_laws(rng):
    """Every built-in aggregate is invariant under chunk order, worker
    count, and merge-tree shape; shipping a serialized state behaves like
    merging it locally."""
    start = time.perf_counter()
    for make in ALL_AGGS:
        schema, chunks = make_chunks(rng, n=9)
        kind_key = {0: "sum", 1: "count", 2: "avg", 3: "min", 4: "max",
                    5: "count_distinct"}[ALL_AGGS.index(make)]
        expected = oracle_values(schema, chunks)[kind_key]

        def check(value):
            if kind_key == "avg" and value is not None:
                assert value == pytest.approx(expected, rel=1e-12)
            else:
                assert value == expected

        # Chunk-order invariance.
        for seed in range(4):
            perm = np.random.default_rng(seed).permutation(len(chunks))
            check(run_gla_chunks(schema, {0: [chunks[i] for i in perm]},
                                 make(), AggregationTree.star(1)).result)
        # Worker-count and tree-shape invariance.
        for nw in (1, 2, 4, 8):
            by_worker = {w: chunks[w::nw] for w in range(nw)
                         if chunks[w::nw]}
            for build in (AggregationTree.star, AggregationTree.chain,
                          AggregationTree.balanced_binary):
                for root in (0, nw - 1):
                    check(run_gla_chunks(schema, by_worker, make(),
                                         build(nw, root=root)).result)
        # Serialized shipping == local merge, on states built by real
        # accumulation over every chunk pair.
        gla = make()

        def fold(chunk):
            s = gla.init()
            gla.begin_chunk(s, chunk)
            gla.accumulate(s, cell_batch(chunk, schema))
            gla.end_chunk(s)
            return s
        states = [fold(c) for c in chunks[:5]]
        for s in states:
            for t in states:
                local = gla.local_merge(fold_copy(gla, s), fold_copy(gla, t))
                remote = gla.remote_merge(fold_copy(gla, s),
                                          gla.serialize(fold_copy(gla, t)))
                assert gla.terminate(local) == gla.terminate(remote)
    assert time.perf_counter() - start < 20


def fold_copy(gla, state):
    """Clone a state through the wire format so merges cannot alias."""
    return gla.deserialize(gla.serialize(state)) \
        if hasattr(gla, "deserialize") else _pickle_copy(state)


def _pickle_copy(state):
    import pickle
    return pickle.loads(pickle.dumps(state))


def test_scale_arithmetic(tmp_path):
    """Chunk-count arithmetic, the exact payload saved by suppressing
    coordinate columns, and the 10:3 index collapse of a regrid pattern."""
    start = time.perf_counter()
    # A 7500x7500 domain under regular 750x750 chunking is exactly 100
    # chunks.
    tiles = tile_box(Box((0, 0), (7499, 7499)), (750, 750))
    assert len(tiles) == 100
    assert all(t.extents == (750, 750) for t in tiles)

    # One materialized 750x750 chunk with 11 value columns: the implicit
    # (dense) layout stores 11 of the 13 columns, saving exactly the two
    # coordinate payloads. Values in 0..99 take 1 byte per cell and
    # coordinates in 0..749 take 2, so that is 4/15 of the column bytes.
    n = 750 * 750
    dims = (DimensionSpec("x", 0, 749), DimensionSpec("y", 0, 749))
    attrs = tuple(AttributeSpec(f"v{k}", "int64") for k in range(1, 12))
    rng = np.random.default_rng(0)
    values = {a.name: rng.integers(0, 100, n, dtype=np.int64)
              for a in attrs}
    box = Box((0, 0), (749, 749))
    dense_schema = ArraySchema("imgs", dims, attrs, "dense")
    dense = make_dense_chunk(dense_schema, box, values,
                             np.ones(n, dtype=bool))
    xs, ys = np.divmod(np.arange(n), 750)
    sparse_schema = ArraySchema("imgs", dims, attrs, "sparse")
    sparse = make_sparse_chunk(sparse_schema, box, {"x": xs, "y": ys},
                               values)
    size_dense = write_chunk(dense, dense_schema, tmp_path / "d.chunk")
    size_sparse = write_chunk(sparse, sparse_schema, tmp_path / "s.chunk")
    # Header (magic, version, counts; box; kind and zone per attribute),
    # bitmap length and bitmap, cell count, then 11 one-byte columns.
    assert size_dense == 10 + 16 * 2 + 17 * 11 + 8 + math.ceil(n / 8) + \
        8 + 11 * (17 + n)
    # Explicit coordinates cost two 2-byte columns, each behind a 17-byte
    # head (width, frame and length); the dense form pays only a validity
    # bitmap and its length instead.
    assert size_sparse - size_dense == \
        2 * (17 + 2 * n) - (8 + math.ceil(n / 8))
    saved_payload = 2 * 2 * n
    total_payload = saved_payload + 11 * 1 * n
    assert saved_payload / total_payload == pytest.approx(4 / 15)

    # The regrid pattern 1001001000 keeps 3 origins per 10 indices.
    pattern = BitPattern("1001001000")
    sel = pattern.selected(0, 7499)
    assert len(sel) == 2250
    assert len(pattern.selected(0, 9)) == 3
    assert time.perf_counter() - start < 10


def test_benchmark_is_deterministic(tmp_path):
    """A full small-scale benchmark run (8 images, 2 cycles) finishes in
    under five minutes; repeating it reproduces every result digest, and
    the query digests do not depend on the worker count."""
    start = time.perf_counter()
    r1 = run_benchmark(BenchConfig(), tmp_path / "d1")
    assert time.perf_counter() - start < 300

    digest_stages = ["cook", "group"] + [f"q{i}" for i in range(1, 10)]
    # Repeat digests are independent of per-query repetition counts, so the
    # confirmation runs use fewer repetitions to stay fast.
    r2 = run_benchmark(BenchConfig(), tmp_path / "d2", repetitions=2)
    for name in digest_stages:
        assert r2.stage(name).digest == r1.stage(name).digest
    r3 = run_benchmark(BenchConfig(n_workers=2), tmp_path / "d3",
                       repetitions=2)
    for name in digest_stages:
        assert r3.stage(name).digest == r1.stage(name).digest
    # The always-populated stages carry non-trivial, distinct digests.
    # (Some query windows legitimately select nothing at this scale.)
    assert len({r1.stage(n).digest for n in digest_stages}) > 5
    for name in ("cook", "group", "q1"):
        assert r1.stage(name).digest != result_digest(None)


def test_grouping_matches_sequential_oracle():
    """Group membership on 100 random small cycles equals the quadratic
    sequential-attachment oracle."""
    start = time.perf_counter()
    for trial in range(100):
        rng = np.random.default_rng(30_000 + trial)
        n_images = int(rng.integers(1, 7))
        max_obs = max(1, 30 // n_images)
        centers = random_cycle(rng, n_images=n_images, max_obs=max_obs,
                               extent=150.0)
        assert sum(len(v) for v in centers.values()) <= 30
        rho = float(rng.uniform(5.0, 40.0))
        alpha = float(rng.uniform(0.0, 0.5))
        groups = group_cycle(0, centers, rho, alpha, cycle_size=n_images)
        got = {g.group_id: tuple(g.members) for g in groups}
        assert got == grouping_oracle(0, centers, rho, alpha)
    assert time.perf_counter() - start < 20
