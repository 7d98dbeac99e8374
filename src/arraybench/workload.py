"""Scientific image benchmark workload: generation, cooking, grouping, Q1-Q9.

The workload simulates a telescope pipeline over the stored arrays of
``_stored_arrays``: raw images and the cells of their observations in
each image's local coordinates, and the centers of observations and
groups in global ones (``image_origin`` holds each image's origin). Every
array is tiled by ``storage.chunk_array`` (a derived one with one tile
per image, cycle or (cycle, image); a tile without cells has no chunk)
and read back through ``rebox_stored``, so each phase and query works
from the catalog alone, in a fresh process too.

Cooking extracts observations: 8-connected components of cells whose v1
clears a threshold, labeled by the minimum global cell id (one-pass
union-find labelling per chunk, cross-chunk components joined through
their chunk-border cells in the aggregate engine). It reads v1 alone to
label, and the other attributes only at the cells of the observations it
keeps. Grouping clusters observation centers across the images of a
cycle, with an attachment radius that widens linearly with the time gap.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import ndimage

from .algebra import (
    AggregateFn,
    BitPattern,
    NeighborhoodShape,
    Predicate,
    apply_plus,
    filter as filter_op,
    rebox_stored,
    reduce as reduce_op,
    shift,
)
from .errors import ConfigError, DependencyError, CatalogError
from .gla import GLA, AggregationTree, _round_robin, run_gla_chunks
from .meter import metered
from .model import (
    DENSE,
    INT64_MAX,
    SPARSE,
    ArraySchema,
    AttributeSpec,
    Box,
    DimensionSpec,
    KIND_FLOAT64,
    KIND_INT64,
    box_intersect,
    cells_in_box,
)
from .storage import Catalog, chunk_array

N_VALUES = 11  # attributes v1..v11 per raw cell


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchConfig:
    """All knobs of the benchmark: scale, cooking and grouping. Slabs,
    tiles, thresholds and attributes are the queries' own arguments
    (inclusive ranges [lo : lo+extent])."""

    n_images: int = 8
    cycle_size: int = 4
    grid_extent: int = 1000
    domain_extent: int = 100_000
    chunk_side: int = 250
    n_workers: int = 4
    seed: int = 42

    cook_threshold: int = 900          # T: cooking predicate is v1 >= T
    obs_max_bbox: int = 60             # max bounding-box side of an observation
    obs_max_poly_edges: int = 256      # max boundary polygon edge count
    group_radius: float = 20.0         # rho
    group_time_weight: float = 0.1     # alpha

    def __post_init__(self):
        if self.n_images <= 0 or self.cycle_size <= 0:
            raise ConfigError("n_images and cycle_size must be positive")
        if self.n_images % self.cycle_size:
            raise ConfigError("n_images must be divisible by cycle_size")
        if self.grid_extent <= 0 or self.domain_extent <= 0 \
                or self.chunk_side <= 0:
            raise ConfigError("extents must be positive")
        if self.grid_extent % self.chunk_side:
            raise ConfigError("grid_extent must be divisible by chunk_side")
        if self.grid_extent > self.domain_extent:
            raise ConfigError("grid larger than domain")

    @property
    def n_cycles(self) -> int:
        return self.n_images // self.cycle_size

    @property
    def tiles_per_image(self) -> int:
        return (self.grid_extent // self.chunk_side) ** 2

    def cycle_images(self, cycle: int):
        return range(cycle * self.cycle_size, (cycle + 1) * self.cycle_size)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "BenchConfig":
        defaults = {f.name: f.default for f in fields(cls)}
        values = {}
        for key, raw in mapping.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                values[key] = type(defaults[key])(raw)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"config key {key!r}: bad value {raw!r}") from None
        return cls(**values)


# ---------------------------------------------------------------------------
# Derived-data records
# ---------------------------------------------------------------------------


@dataclass
class Observation:
    """One cooked observation: an 8-connected cell group above threshold."""

    obs_id: int
    img_id: int
    cells_x: np.ndarray   # local coordinates
    cells_y: np.ndarray
    center: tuple         # (float x, float y), local coordinates
    bbox: Box
    polygon: list         # boundary vertices, deterministic orientation
    attrs: dict           # "o1".."o11" -> float average over member cells

    @property
    def size(self) -> int:
        return len(self.cells_x)


@dataclass
class ObservationGroup:
    """A cluster of observation centers across the images of one cycle."""

    group_id: int
    cycle: int
    members: list = field(default_factory=list)     # obs ids, in attach order
    per_img_centers: dict = field(default_factory=dict)  # img -> (x, y) global
    center: tuple = (0.0, 0.0)                       # global centroid


# ---------------------------------------------------------------------------
# Boundary polygon extraction
# ---------------------------------------------------------------------------


def boundary_polygon(cells_x, cells_y) -> list:
    """Outer boundary of a cell set as an axis-aligned vertex ring.

    Each cell (i, j) occupies the unit square [i, i+1] x [j, j+1]; boundary
    edges are oriented with the interior on the left and chained from the
    lexicographically smallest vertex; collinear runs are merged.
    """
    cells = set(zip(cells_x.tolist(), cells_y.tolist()))
    edges = {}
    for (i, j) in cells:
        if (i, j - 1) not in cells:
            edges.setdefault((i, j), []).append((i + 1, j))
        if (i + 1, j) not in cells:
            edges.setdefault((i + 1, j), []).append((i + 1, j + 1))
        if (i, j + 1) not in cells:
            edges.setdefault((i + 1, j + 1), []).append((i, j + 1))
        if (i - 1, j) not in cells:
            edges.setdefault((i, j + 1), []).append((i, j))
    # The smallest vertex is a corner of the outer ring: walk that ring,
    # keeping the vertices where the direction turns.
    start = min(edges)
    poly = [start]
    cur = start
    prev_dir = None
    while True:
        outs = edges[cur]
        if len(outs) == 1:
            nxt = outs.pop()
        else:
            # Pinch vertex (diagonal contact): take the sharpest left turn
            # so the walk hugs the current ring.
            def angle(o):
                d = (o[0] - cur[0], o[1] - cur[1])
                cross = prev_dir[0] * d[1] - prev_dir[1] * d[0]
                dot = prev_dir[0] * d[0] + prev_dir[1] * d[1]
                return -math.atan2(cross, dot)
            nxt = min(outs, key=angle)
            outs.remove(nxt)
        direction = (nxt[0] - cur[0], nxt[1] - cur[1])
        if prev_dir is not None and direction != prev_dir:
            poly.append(cur)
        prev_dir = direction
        cur = nxt
        if cur == start:
            return poly


# ---------------------------------------------------------------------------
# Cooking: per-chunk labeling merged through the aggregate engine
# ---------------------------------------------------------------------------


class CookGLA(GLA):
    """Connected-component labeling of one image's chunks.

    Per chunk: mask the cells with v1 >= threshold and label their
    8-connected components in one pass (``scipy.ndimage.label``, two-pass
    union-find). Each masked cell enters the state with its coordinates,
    its v1, whether it lies on the chunk border, and its label: the
    minimum global cell id of its component in the chunk, which is the
    component's first cell in row-major order. Components split across
    chunks meet only at border cells, so terminate joins labels through
    the border cells alone: the final label is the component's minimum
    id.

    Terminate sorts the cells once by (label, row-major position), so each
    observation's cells come out in row-major order whatever the chunk
    grid or worker count, and reduces sizes, centers, boxes and sums per
    observation in one vectorized pass. Only v1 travels through the
    aggregate: ``read_values(xs, ys)`` returns the other attributes
    (``v2``..) at the cells of the observations that survive the size
    limits. Each ``o_k`` is the exact integer sum divided once by the
    count.
    """

    def __init__(self, img_id: int, threshold: int, grid_extent: int,
                 max_bbox: int, max_poly_edges: int, read_values):
        self.img_id = img_id
        self.threshold = threshold
        self.grid = grid_extent
        self.max_bbox = max_bbox
        self.max_poly_edges = max_poly_edges
        self.read_values = read_values

    def init(self):
        return []

    def accumulate(self, state, cells):
        chunk = cells.chunk
        ext = chunk.box.extents
        nx, ny = ext[1], ext[2]
        v1 = chunk.columns["v1"].reshape(ext)[0]
        mask = chunk.validity.reshape(ext)[0] & (v1 >= self.threshold)
        labels, _n = ndimage.label(mask, structure=np.ones((3, 3)))
        xi, yi = np.nonzero(labels)
        if not len(xi):
            return
        lab = labels[xi, yi]
        # np.unique's first occurrences are row-major firsts: minimum ids.
        _uniq, first = np.unique(lab, return_index=True)
        x = xi + chunk.box.lo[1]
        y = yi + chunk.box.lo[2]
        ids = (self.img_id * self.grid + x) * self.grid + y
        border = (xi == 0) | (xi == nx - 1) | (yi == 0) | (yi == ny - 1)
        state.append((ids[first][lab - 1], x, y, v1[xi, yi], border))

    def local_merge(self, a, b):
        a.extend(b)
        return a

    @staticmethod
    def _union_borders(label, x, y, border):
        """Each cell's final label: its component's minimum id, joining
        the labels of 8-adjacent border cells."""
        at = np.flatnonzero(border)
        cellmap = dict(zip(zip(x[at].tolist(), y[at].tolist()),
                           label[at].tolist()))
        parent = {}

        def find(l):
            root = l
            while root in parent:
                root = parent[root]
            while l != root:
                parent[l], l = root, parent[l]
            return root

        for (cx, cy), l in cellmap.items():
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    other = cellmap.get((cx + dx, cy + dy))
                    if other is not None and other != l:
                        ra, rb = find(l), find(other)
                        if ra != rb:
                            parent[max(ra, rb)] = min(ra, rb)
        if not parent:
            return label
        uniq, inverse = np.unique(label, return_inverse=True)
        roots = uniq.copy()
        joined = np.fromiter(parent, dtype=np.int64, count=len(parent))
        roots[np.searchsorted(uniq, joined)] = [find(l) for l in
                                                joined.tolist()]
        return roots[inverse]

    def terminate(self, state):
        if not state:
            return []
        label, x, y, v1, border = (np.concatenate(col)
                                   for col in zip(*state))
        root = self._union_borders(label, x, y, border)
        # One sort: by observation, then row-major within it.
        order = np.lexsort((y, x, root))
        root, x, y, v1 = root[order], x[order], y[order], v1[order]
        starts = np.flatnonzero(np.r_[True, root[1:] != root[:-1]])
        ends = np.r_[starts[1:], len(root)]
        lo_x, hi_x = (f.reduceat(x, starts) for f in (np.minimum, np.maximum))
        lo_y, hi_y = (f.reduceat(y, starts) for f in (np.minimum, np.maximum))

        # The size limits: bounding box, then boundary polygon edges.
        small = np.flatnonzero(np.maximum(hi_x - lo_x, hi_y - lo_y)
                               < self.max_bbox)
        kept, polygons = [], []
        for i, a, b in zip(small.tolist(), starts[small].tolist(),
                           ends[small].tolist()):
            polygon = boundary_polygon(x[a:b], y[a:b])
            if len(polygon) <= self.max_poly_edges:
                kept.append(i)
                polygons.append(polygon)
        if not kept:
            return []

        # Exact integer sums over the kept observations' cells, each
        # divided once by the count.
        is_kept = np.zeros(len(starts), dtype=bool)
        is_kept[kept] = True
        at = np.repeat(is_kept, ends - starts)
        cells = {"x": x[at], "y": y[at], "v1": v1[at]}
        cells.update(self.read_values(cells["x"], cells["y"]))
        n = (ends - starts)[kept]
        firsts = np.r_[0, np.cumsum(n)[:-1]]
        mean = {name: (np.add.reduceat(col, firsts) / n).tolist()
                for name, col in cells.items()}
        names = [f"o{k}" for k in range(1, N_VALUES + 1)]
        attrs = zip(*(mean[f"v{k}"] for k in range(1, N_VALUES + 1)))
        observations = []
        for a, b, cx, cy, box, polygon, row in zip(
                starts[kept].tolist(), ends[kept].tolist(), mean["x"],
                mean["y"], zip(lo_x[kept].tolist(), lo_y[kept].tolist(),
                               hi_x[kept].tolist(), hi_y[kept].tolist()),
                polygons, attrs):
            observations.append(Observation(
                obs_id=int(root[a]), img_id=self.img_id, cells_x=x[a:b],
                cells_y=y[a:b], center=(cx, cy),
                bbox=Box(box[:2], box[2:]), polygon=polygon,
                attrs=dict(zip(names, row))))
        return observations


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------


class _GridIndex:
    """Uniform x-y grid over group centers; cell side = the maximum
    attachment radius, so candidates always sit in the 3x3 cell block."""

    def __init__(self, side: float):
        self.side = max(side, 1e-9)
        self.cells = {}

    def _key(self, center):
        return (int(center[0] // self.side), int(center[1] // self.side))

    def insert(self, group, center):
        self.cells.setdefault(self._key(center), []).append((group, center))

    def candidates(self, center):
        cx, cy = self._key(center)
        out = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                out.extend(self.cells.get((cx + dx, cy + dy), ()))
        return out


def group_cycle(cycle: int, centers_by_img: dict, rho: float, alpha: float,
                cycle_size: int) -> list:
    """Cluster one cycle's observation centers into groups.

    ``centers_by_img`` maps img_id -> list of (obs_id, (x, y)) in ascending
    obs_id. Images are swept in time order; every observation of the first
    image seeds a group; later observations attach to the nearest group
    whose latest per-image center lies within rho * (1 + alpha * dt) of
    them (dt = image gap), using only state from earlier images; the rest
    seed new groups. Group ids are the seeding observation's id.
    """
    groups = []
    latest = {}  # group_id -> (img, center)
    side = rho * (1 + alpha * cycle_size)
    for t in sorted(centers_by_img):
        index = _GridIndex(side)
        by_id = {}
        for grp in groups:
            by_id[grp.group_id] = grp
            index.insert(grp, latest[grp.group_id][1])
        attached = {}
        seeded = []
        for obs_id, center in centers_by_img[t]:
            best = None
            for grp, gcenter in index.candidates(center):
                t_prev = latest[grp.group_id][0]
                allowed = rho * (1 + alpha * (t - t_prev))
                d = math.hypot(center[0] - gcenter[0], center[1] - gcenter[1])
                if d <= allowed and (best is None or d < best[0] or
                                     (d == best[0] and
                                      grp.group_id < best[1].group_id)):
                    best = (d, grp)
            if best is None:
                grp = ObservationGroup(group_id=obs_id, cycle=cycle)
                grp.members.append(obs_id)
                seeded.append((grp, center))
            else:
                grp = best[1]
                grp.members.append(obs_id)
                attached.setdefault(grp.group_id, []).append(center)
        for gid, centers in attached.items():
            c = (sum(p[0] for p in centers) / len(centers),
                 sum(p[1] for p in centers) / len(centers))
            by_id[gid].per_img_centers[t] = c
            latest[gid] = (t, c)
        for grp, center in seeded:
            grp.per_img_centers[t] = center
            latest[grp.group_id] = (t, center)
            groups.append(grp)
    for grp in groups:
        cs = list(grp.per_img_centers.values())
        grp.center = (sum(c[0] for c in cs) / len(cs),
                      sum(c[1] for c in cs) / len(cs))
    return groups


# ---------------------------------------------------------------------------
# The workload driver
# ---------------------------------------------------------------------------


# One array of the benchmark: the phase that writes it, its schema, and
# the tile shape ``chunk_array`` cuts it into.
_StoredArray = namedtuple("_StoredArray", "phase schema tile")


def _stored_arrays(c: BenchConfig) -> dict:
    """Name -> ``_StoredArray`` of every array the benchmark stores, in
    phase order; each dimension spans [0, extent - 1]. A phase reads the
    arrays of the phases before it, so everything a phase writes is
    derived from them."""
    n, g, dom, side = c.n_images, c.grid_extent, c.domain_extent, c.chunk_side
    n_obs = n * g * g   # observation ids are global cell ids
    img, cycle, obs = ("img_id", n), ("cycle", c.n_cycles), ("obs_id", n_obs)
    local, world = (("x", g), ("y", g)), (("x", dom), ("y", dom))

    def ints(*names):
        return tuple(AttributeSpec(name, KIND_INT64) for name in names)
    values = ints(*(f"v{k}" for k in range(1, N_VALUES + 1)))
    means = tuple(AttributeSpec(f"o{k}", KIND_FLOAT64)
                  for k in range(1, N_VALUES + 1))
    table = (
        ("load", "images", DENSE, (img, *local), values, (1, side, side)),
        ("load", "image_origin", DENSE, (img,), ints("orig_x", "orig_y"),
         (n,)),
        ("cook", "obs", SPARSE, (img, *local), ints("obs_id"), (1, g, g)),
        ("cook", "obs_center", SPARSE, (img, *world),
         ints("obs_id") + means, (1, dom, dom)),
        ("group", "group_center", SPARSE, (cycle, *world),
         ints("group_id"), (1, dom, dom)),
        ("group", "group_center_img", SPARSE, (cycle, img, *world),
         ints("group_id"), (1, 1, dom, dom)),
        ("group", "obs_group", SPARSE, (cycle, obs), ints("group_id"),
         (1, n_obs)),
    )
    return {name: _StoredArray(phase, ArraySchema(
        name, tuple(DimensionSpec(d, 0, e - 1) for d, e in dims), attrs,
        density), tile)
        for phase, name, density, dims, attrs, tile in table}


# The arrays each phase writes, in phase order.
PHASE_ARRAYS = {phase: tuple(name for name, _ in arrays)
                for phase, arrays in itertools.groupby(
                    _stored_arrays(BenchConfig()).items(),
                    key=lambda item: item[1].phase)}


def _int_columns(names, rows) -> dict:
    """Rows of integers as one int64 column per name."""
    cols = np.array(rows, dtype=np.int64).reshape(-1, len(names)).T
    return dict(zip(names, cols))


def _rows(cells, *names) -> list:
    """The cells of a ``CellBatch`` as sorted tuples of the named
    coordinates and attributes."""
    cols = {**cells.coords, **cells.columns}
    return sorted(zip(*(cols[name].tolist() for name in names)))


def _local_box(offset, lo, hi) -> Box:
    """The global box [lo : hi] in the image frame that ``offset`` (see
    ``Workload._offsets``) moves to global coordinates."""
    return Box(tuple(map(operator.sub, lo, offset)),
               tuple(map(operator.sub, hi, offset)))


def _measured(query):
    """A query method that returns ``(value, Meter)``: its value, and the
    meter of every read and merge of the whole call."""
    @functools.wraps(query)
    def measured(*args, **kwargs):
        with metered() as meter:
            value = query(*args, **kwargs)
        return value, meter
    return measured


class Workload:
    """Benchmark driver bound to one catalog directory and configuration."""

    def __init__(self, config: BenchConfig, data_dir):
        self.config = config
        self.catalog = Catalog(data_dir)
        self.catalog.load()
        self.observations = {}   # img_id -> [Observation]
        self.groups = {}         # cycle -> [ObservationGroup]
        self._origins = None     # see image_origins
        self._stored = _stored_arrays(config)

    # -- the stored arrays ------------------------------------------------

    def _require(self, array: str) -> ArraySchema:
        """The stored schema of ``array``. If it is missing,
        ``DependencyError`` names the first phase whose arrays are not all
        in the catalog."""
        try:
            return self.catalog.entry(array).schema
        except CatalogError:
            phase = next(p for p, names in PHASE_ARRAYS.items()
                         if not set(names) <= set(self.catalog.arrays))
            raise DependencyError(
                f"array {array!r} missing; run the {phase!r} phase first") \
                from None

    def _slab(self, array: str, lo, hi) -> Box:
        """The box [lo : hi] clipped to the domain of stored ``array``;
        ``ConfigError`` if it misses the domain."""
        box = Box(lo, hi)
        inter = box_intersect(self._require(array).box, box)
        if inter is None:
            raise ConfigError(f"query box {box} outside {array} domain")
        return inter

    def _reset(self, phase: str):
        """Drop the arrays of ``phase`` and of every later phase, which
        are derived from them, and create ``phase``'s arrays empty."""
        names = list(self._stored)   # in phase order
        for name in names[names.index(PHASE_ARRAYS[phase][0]):]:
            self.catalog.drop_array(name)
        for name in PHASE_ARRAYS[phase]:
            self.catalog.create_array(self._stored[name].schema)

    def _store(self, array: str, data: dict, box: Box | None = None):
        """Add ``data`` (see ``chunk_array``) to ``array``, cut into its
        tiles."""
        stored = self._stored[array]
        self.catalog.add_chunks(array, chunk_array(stored.schema, data,
                                                   stored.tile, box))

    # -- generation -------------------------------------------------------

    def generate(self):
        """Create the raw image and origin arrays, deterministically, and
        drop every array cooked or grouped from the old ones."""
        c = self.config
        g = c.grid_extent
        rng = np.random.default_rng(c.seed)
        self._origins = None
        self.observations, self.groups = {}, {}
        self._reset("load")

        # Image origins: truncated 2-D normal about the domain center.
        mean, sigma = c.domain_extent / 2, c.domain_extent / 8
        origins = []
        for _ in range(c.n_images):
            while True:
                ox, oy = rng.normal(mean, sigma, 2)
                if 0 <= ox <= c.domain_extent - g and \
                        0 <= oy <= c.domain_extent - g:
                    origins.append((int(ox), int(oy)))
                    break

        # Blob plan: per cycle a seeded set of elliptical bright spots whose
        # centers persist across the cycle with a small per-image jitter
        # (so grouping has trajectories to find).
        t = c.cook_threshold
        plans = []
        for _ in range(c.n_cycles):
            n_blobs = int(rng.integers(4, 8))
            margin = 16
            centers = rng.integers(margin, g - margin, (n_blobs, 2))
            radii = rng.integers(4, 13, (n_blobs, 2))
            jitter = rng.integers(-3, 4, (c.cycle_size, n_blobs, 2))
            plans.append((centers, radii, jitter))

        for img in range(c.n_images):
            cycle = img // c.cycle_size
            centers, radii, jitter = plans[cycle]
            data = rng.integers(0, t // 2 + 1, (N_VALUES, g, g),
                                dtype=np.int64)
            for b in range(len(centers)):
                bx = int(centers[b, 0] + jitter[img % c.cycle_size, b, 0])
                by = int(centers[b, 1] + jitter[img % c.cycle_size, b, 1])
                rx, ry = int(radii[b, 0]), int(radii[b, 1])
                x_lo, x_hi = max(0, bx - rx), min(g - 1, bx + rx)
                y_lo, y_hi = max(0, by - ry), min(g - 1, by + ry)
                xs = np.arange(x_lo, x_hi + 1)
                ys = np.arange(y_lo, y_hi + 1)
                ell = ((xs[:, None] - bx) / rx) ** 2 + \
                      ((ys[None, :] - by) / ry) ** 2 <= 1.0
                n_in = int(ell.sum())
                vals = rng.integers(t, 4 * t + 1, (N_VALUES, n_in),
                                    dtype=np.int64)
                for k in range(N_VALUES):
                    block = data[k, x_lo:x_hi + 1, y_lo:y_hi + 1]
                    block[ell] = vals[k]
            # No name holds the chunks: they are freed before the next
            # image is drawn.
            self._store("images",
                        {f"v{k}": data[k - 1] for k in range(1, N_VALUES + 1)},
                        Box((img, 0, 0), (img, g - 1, g - 1)))
            del data

        self._store("image_origin", {"orig_x": [o[0] for o in origins],
                                     "orig_y": [o[1] for o in origins]})
        self.catalog.save()
        assert len(self.catalog.entry("images").chunk_index) == \
            c.n_images * c.tiles_per_image

    def image_origins(self) -> list:
        """The global (x, y) origin of every image: read from the catalog
        on first use, and kept until the next ``generate``."""
        if self._origins is None:
            box = self._require("image_origin").box
            cells = rebox_stored(self.catalog, "image_origin", box).cells()
            self._origins = tuple(zip(cells.columns["orig_x"].tolist(),
                                      cells.columns["orig_y"].tolist()))
        return list(self._origins)

    def _offsets(self) -> list:
        """Per image, the offset (0, ox, oy) that moves its local
        (img_id, x, y) cells to global coordinates."""
        return [(0, ox, oy) for ox, oy in self.image_origins()]

    # -- cooking ----------------------------------------------------------

    def cook(self):
        """Extract observations from every image; persist their cells in
        obs and their centers in obs_center (one chunk of each per image
        with observations), and drop the groups of the old ones."""
        c = self.config
        g = c.grid_extent
        self._require("images")
        offsets = self._offsets()
        self.groups = {}
        self._reset("cook")
        self.observations = {
            img: self.recook(Box((img, 0, 0), (img, g - 1, g - 1)),
                             c.cook_threshold)
            for img in range(c.n_images)}
        obs = [o for img in range(c.n_images) for o in self.observations[img]]
        sizes = [o.size for o in obs]
        self._store("obs", {
            "img_id": np.repeat([o.img_id for o in obs], sizes),
            "x": np.concatenate([o.cells_x for o in obs] or [[]]),
            "y": np.concatenate([o.cells_y for o in obs] or [[]]),
            "obs_id": np.repeat([o.obs_id for o in obs], sizes)})
        self._store("obs_center", {
            "img_id": [o.img_id for o in obs],
            "x": [round(o.center[0]) + offsets[o.img_id][1] for o in obs],
            "y": [round(o.center[1]) + offsets[o.img_id][2] for o in obs],
            "obs_id": [o.obs_id for o in obs],
            **{f"o{k}": [o.attrs[f"o{k}"] for o in obs]
               for k in range(1, N_VALUES + 1)}})
        self.catalog.save()

    def recook(self, slab: Box, threshold: int) -> list:
        """Cook one image within a slab (img_id, x, y) of local
        coordinates at the given threshold: ``cook`` runs it over whole
        images, Q2 over a slab.

        Labeling reads ``v1`` alone, and only of the chunks whose ``v1``
        zone reaches the threshold: every component cell clears it, so no
        other chunk holds one. The other attributes are read afterwards,
        at the cells of the surviving observations only."""
        c = self.config
        img = slab.lo[0]
        arr = rebox_stored(self.catalog, "images", slab, columns=["v1"],
                           predicate={"v1": (threshold, INT64_MAX)})
        nw = max(1, c.n_workers)
        by_worker = _round_robin(arr.chunks, nw)
        if not by_worker:
            return []
        gla = CookGLA(img, threshold, c.grid_extent, c.obs_max_bbox,
                      c.obs_max_poly_edges,
                      functools.partial(self._cook_values, img))
        # Rotate the aggregation root across workers per image.
        tree = AggregationTree.star(nw, root=img % nw)
        return run_gla_chunks(arr.schema, by_worker, gla, tree).result

    def _cook_values(self, img: int, xs, ys) -> dict:
        """``v2``..``v11`` at the given local cells of one image.

        Each chunk holding a wanted cell is read in bands of rows (x): one
        band per run of consecutive rows with a wanted cell, so no row
        without one is read and no row is read twice. Every band is
        narrowed to the wanted cells' span of y: a one-row band on disk,
        any band once decoded (``storage.read_chunk`` returns only the
        cells inside its box)."""
        names = [f"v{k}" for k in range(2, N_VALUES + 1)]
        out = {name: np.empty(len(xs), dtype=np.int64) for name in names}
        entry = self.catalog.entry("images")
        span = Box((img, int(xs.min()), int(ys.min())),
                   (img, int(xs.max()), int(ys.max())))
        for cid in self.catalog.prune("images", span):
            box = entry.ref(cid).box
            inside = np.flatnonzero(cells_in_box(
                (xs, ys), Box(box.lo[1:], box.hi[1:])))
            if not len(inside):
                continue
            inside = inside[np.argsort(xs[inside], kind="stable")]
            gaps = np.flatnonzero(np.diff(xs[inside]) > 1) + 1
            for at in np.split(inside, gaps):
                chunk = self.catalog.read("images", cid, columns=names,
                                          box=Box((img, int(xs[at[0]]),
                                                   int(ys[at].min())),
                                                  (img, int(xs[at[-1]]),
                                                   int(ys[at].max()))))
                band = chunk.box
                offset = (xs[at] - band.lo[1]) * band.extents[2] + \
                    (ys[at] - band.lo[2])
                for name in names:
                    out[name][at] = chunk.columns[name][offset]
        return out

    # -- grouping ---------------------------------------------------------

    def group(self):
        """Cluster each cycle's observation centers; persist group_center
        (one chunk per cycle), group_center_img (one chunk per image) and
        obs_group, every observation's group (one chunk per cycle)."""
        c = self.config
        dom = c.domain_extent
        self._require("obs_center")
        self._reset("group")

        self.groups = {}
        for cycle in range(c.n_cycles):
            imgs = c.cycle_images(cycle)
            cells = rebox_stored(self.catalog, "obs_center", Box(
                (imgs[0], 0, 0), (imgs[-1], dom - 1, dom - 1)),
                columns=["obs_id"]).cells()
            centers_by_img = {img: [] for img in imgs}
            for oid, img, x, y in _rows(cells, "obs_id", "img_id", "x", "y"):
                centers_by_img[img].append((oid, (float(x), float(y))))
            self.groups[cycle] = group_cycle(
                cycle, centers_by_img, c.group_radius, c.group_time_weight,
                c.cycle_size)

        groups = [g for cycle in range(c.n_cycles) for g in self.groups[cycle]]
        self._store("group_center", _int_columns(
            ("cycle", "x", "y", "group_id"),
            [(g.cycle, round(g.center[0]), round(g.center[1]), g.group_id)
             for g in groups]))
        self._store("group_center_img", _int_columns(
            ("cycle", "img_id", "x", "y", "group_id"),
            [(g.cycle, img, round(x), round(y), g.group_id)
             for g in groups for img, (x, y) in g.per_img_centers.items()]))
        self._store("obs_group", _int_columns(
            ("cycle", "obs_id", "group_id"),
            [(g.cycle, oid, g.group_id) for g in groups for oid in g.members]))
        self.catalog.save()

    # -- queries: each is its operator pipeline, measured (``_measured``) --

    def _ids(self, array: str, box: Box, attr: str) -> set:
        """The distinct values of ``attr`` over the stored cells in
        ``box``."""
        arr = rebox_stored(self.catalog, array, box, columns=[attr])
        return set().union(*(ch.columns[attr].tolist() for ch in arr.chunks))

    @_measured
    def q1(self, cycle: int, *, x1, y1, t1, u1, vi=1):
        """REDUCE(avg v_i) ∘ REBOX(images, slab): the average of one raw
        attribute over a slab of the cycle's images."""
        imgs = self.config.cycle_images(cycle)
        slab = self._slab("images", (imgs[0], x1, y1),
                          (imgs[-1], x1 + t1, y1 + u1))
        attr = f"v{vi}"
        arr = rebox_stored(self.catalog, "images", slab, columns=[attr])
        return reduce_op(arr, [], AggregateFn("avg", attr, "result"),
                         n_workers=self.config.n_workers)

    @_measured
    def q2(self, cycle: int, *, x2, y2, t2, u2, threshold=None):
        """COOK(threshold) ∘ REBOX(images, slab): recook a slab of the
        cycle's first image with an alternate threshold."""
        c = self.config
        img = c.cycle_images(cycle)[0]
        slab = self._slab("images", (img, x2, y2), (img, x2 + t2, y2 + u2))
        return self.recook(slab, c.cook_threshold if threshold is None
                           else threshold)

    @_measured
    def q3(self, cycle: int, *, x1, y1, t3, u3):
        """APPLY_PLUS(avg v1..v11 over 4x4 windows at pattern 1001001000)
        ∘ REBOX(images, slab): regrid a slab of the cycle's images 10:3."""
        imgs = self.config.cycle_images(cycle)
        slab = self._slab("images", (imgs[0], x1, y1),
                          (imgs[-1], x1 + t3, y1 + u3))
        pattern = {"img_id": BitPattern("1"),
                   "x": BitPattern("1001001000"),
                   "y": BitPattern("1001001000")}
        return apply_plus(
            rebox_stored(self.catalog, "images", slab),
            NeighborhoodShape.of((0, 0), (0, 3), (0, 3)), pattern,
            [AggregateFn("avg", f"v{k}", f"v{k}_avg")
             for k in range(1, N_VALUES + 1)],
            boundary="merge", n_workers=self.config.n_workers)

    @_measured
    def q4(self, cycle: int, *, gx, gy, t2, u2, oi=1):
        """REDUCE(avg o_i) ∘ REBOX(obs_center, slab): the average of one
        cooked attribute over a slab of the cycle's observation centers."""
        imgs = self.config.cycle_images(cycle)
        slab = self._slab("obs_center", (imgs[0], gx, gy),
                          (imgs[-1], gx + t2, gy + u2))
        attr = f"o{oi}"
        arr = rebox_stored(self.catalog, "obs_center", slab, columns=[attr])
        return reduce_op(arr, [], AggregateFn("avg", attr, "result"),
                         n_workers=self.config.n_workers)

    @_measured
    def q5(self, cycle: int, *, gx, gy, w, h):
        """DISTINCT(obs_id) ∘ REBOX(obs, slab in each image's frame): the
        observations with any member cell inside a global slab, over the
        cycle's images."""
        self._require("obs")
        offsets = self._offsets()
        ids = set()
        for img in self.config.cycle_images(cycle):
            ids |= self._ids("obs", _local_box(
                offsets[img], (img, gx, gy), (img, gx + w, gy + h)),
                "obs_id")
        return {"count": len(ids), "obs_ids": sorted(ids)}

    @_measured
    def q6(self, cycle: int, *, gx, gy, w, h, d4, d5):
        """FILTER(density >= D5) ∘ APPLY_PLUS(count over D4 x D4 windows)
        ∘ REBOX(obs_center, slab): per image, the tiles anchored at
        observation centers that hold at least D5 centers. A window spans
        one image, so one stencil serves every image of the cycle."""
        c = self.config
        imgs = c.cycle_images(cycle)
        slab = self._slab("obs_center", (imgs[0], gx, gy),
                          (imgs[-1], gx + w, gy + h))
        out = {img: [] for img in imgs}
        arr = rebox_stored(self.catalog, "obs_center", slab,
                           columns=["obs_id"])
        if arr.valid_count() == 0:
            return out
        dens = apply_plus(arr, NeighborhoodShape.of((0, 0), (0, d4 - 1),
                                                    (0, d4 - 1)),
                          "valid", AggregateFn("count", None, "density"),
                          boundary="merge", n_workers=c.n_workers)
        cells = filter_op(dens, Predicate.of(
            ranges={"density": (d5, INT64_MAX)})).cells()
        for img, *row in _rows(cells, "img_id", "x", "y", "density"):
            out[img].append(tuple(row))
        return out

    @_measured
    def q7(self, cycle: int, *, gx, gy, w, h):
        """DISTINCT(group_id) ∘ REBOX(group_center, slab): the groups of
        one cycle with their center inside a global slab."""
        slab = self._slab("group_center", (cycle, gx, gy),
                          (cycle, gx + w, gy + h))
        return sorted(self._ids("group_center", slab, "group_id"))

    def _group_tiles(self, cycle: int, group_ids, d6):
        """SHIFT ∘ REBOX(images, D6-radius tile) around every per-image
        center of the given groups, in global coordinates (phase 2 of
        Q8/Q9)."""
        c = self.config
        dom = c.domain_extent
        offsets = self._offsets()
        centers = rebox_stored(
            self.catalog, "group_center_img",
            self._slab("group_center_img", (cycle, 0, 0, 0),
                       (cycle, c.n_images - 1, dom - 1, dom - 1))).cells()
        wanted = set(group_ids)
        tiles = []
        for gid, img, cx, cy in _rows(centers, "group_id", "img_id", "x", "y"):
            if gid not in wanted:
                continue
            # The tile in the image's frame; the read clips it to the image.
            tile = rebox_stored(self.catalog, "images", _local_box(
                offsets[img], (img, cx - d6, cy - d6), (img, cx + d6, cy + d6)))
            if tile.chunks:
                # Address the tile globally, like the stored centers.
                tiles.append((gid, img, shift(tile, offsets[img])))
        return tiles

    @_measured
    def q8(self, cycle: int, *, gx, gy, w, h, d6):
        """Raw tiles around the trajectories of the groups with any
        per-image center inside a global slab: ``_group_tiles`` of
        DISTINCT(group_id) ∘ REBOX(group_center_img, slab)."""
        slab = self._slab("group_center_img", (cycle, 0, gx, gy),
                          (cycle, self.config.n_images - 1, gx + w, gy + h))
        return self._group_tiles(
            cycle, self._ids("group_center_img", slab, "group_id"), d6)

    @_measured
    def q9(self, cycle: int, *, gx, gy, w, h, d6):
        """Like Q8, but groups qualify when any member observation's cells
        intersect the slab: Q5 finds the observations, and
        REBOX(obs_group, their ids) maps them to their groups."""
        self._require("obs_group")
        found = self.q5(cycle, gx=gx, gy=gy, w=w, h=h)[0]["obs_ids"]
        ids = set()
        if found:
            cells = rebox_stored(self.catalog, "obs_group", Box(
                (cycle, found[0]), (cycle, found[-1]))).cells()
            hit = np.isin(cells.coords["obs_id"], found)
            ids = set(cells.columns["group_id"][hit].tolist())
        return self._group_tiles(cycle, ids, d6)
