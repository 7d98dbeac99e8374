"""Array algebra operators, implemented chunk-at-a-time.

shift / rebox / filter / fill / apply / combine / inner_djoin / reduce plus
the generalized neighborhood operator apply_plus, which aggregates over a
shape translated to selected origin cells (all valid cells, or cells picked
by per-dimension repeating bit patterns). Cross-chunk stencils run either
by merging per-chunk partial states (through the aggregate engine) or by
pre-replicating border layers so every stencil is chunk-local; the two
strategies produce identical results.

Only ``gather_region`` and ``_join`` look at a chunk's layout here.
``filter`` and ``apply`` drop cells through ``model.keep_cells``.
``combine`` and ``inner_djoin`` share ``_join``: a dense pair ANDs its
validities, any other pair matches cells by coordinates, and the result
is dense when every chunk of it is. A chunk whose box has no partner is
skipped unless a chunk of the other array overlaps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, SchemaError, ShapeError
from .expr import Expr, as_expr
from .gla import (
    AGGREGATES,
    GLA,
    AggregationTree,
    CellBatch,
    GroupStates,
    _round_robin,
    _unique_rows,
    cell_batch,
    run_gla_chunks,
)
from .model import (
    DENSE,
    SPARSE,
    ArraySchema,
    AttributeSpec,
    Box,
    Chunk,
    DimensionSpec,
    KIND_FLOAT64,
    KIND_INT64,
    box_intersect,
    cells_in_box,
    clip_chunk,
    keep_cells,
    make_dense_chunk,
    make_sparse_chunk,
)

# ---------------------------------------------------------------------------
# In-memory arrays
# ---------------------------------------------------------------------------


@dataclass
class Array:
    """A materialized chunked array: schema plus chunk list."""

    schema: ArraySchema
    chunks: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def box(self) -> Box:
        return self.schema.box

    def valid_count(self) -> int:
        return sum(c.valid_count for c in self.chunks)

    def batches(self):
        return [cell_batch(c, self.schema) for c in self.chunks]

    def cells(self) -> CellBatch:
        """All valid cells across chunks, concatenated."""
        batches = self.batches()
        coords = {d: np.concatenate([b.coords[d] for b in batches])
                  if batches else np.empty(0, np.int64)
                  for d in self.schema.dim_names}
        cols = {a: np.concatenate([b.columns[a] for b in batches])
                if batches else np.empty(0, self.schema.attr(a).dtype)
                for a in self.schema.attr_names}
        return CellBatch(coords, cols, None)


def dense_array(schema: ArraySchema, data: dict, chunk_shape=None) -> Array:
    """Build an in-memory array from ``data`` as ``chunk_array`` takes it
    (one chunk over the schema box by default). Dense arrays take
    row-major columns over the schema box (``__valid__`` optional), sparse
    ones a column per dimension and attribute."""
    from .storage import chunk_array

    shape = chunk_shape or schema.box.extents
    return Array(schema, chunk_array(schema, data, shape))


def materialize(array: Array, attr: str):
    """Assemble one attribute into a full numpy grid over the array box,
    plus the validity grid. Intended for tests and small arrays."""
    grid, valid = gather_region(array, array.box, [attr])
    return grid[attr], valid


def gather_region(array: Array, box: Box, attrs=None):
    """Dense value grids plus validity over ``box``, assembled from every
    chunk intersecting it. Cells covered by no chunk are invalid."""
    attrs = list(attrs) if attrs is not None else list(array.schema.attr_names)
    extents = box.extents
    grids = {a: np.zeros(extents, dtype=array.schema.attr(a).dtype) for a in attrs}
    valid = np.zeros(extents, dtype=bool)
    for chunk in array.chunks:
        inter = box_intersect(chunk.box, box)
        if inter is None:
            continue
        dst = tuple(slice(l - b, h - b + 1)
                    for l, h, b in zip(inter.lo, inter.hi, box.lo))
        if chunk.layout == DENSE:
            src = tuple(slice(l - b, h - b + 1)
                        for l, h, b in zip(inter.lo, inter.hi, chunk.box.lo))
            cext = chunk.box.extents
            vgrid = chunk.validity.reshape(cext)[src]
            valid[dst] |= vgrid
            for a in attrs:
                cgrid = chunk.columns[a].reshape(cext)[src]
                np.copyto(grids[a][dst], cgrid, where=vgrid)
        else:
            coords = [chunk.dim_columns[d] for d in array.schema.dim_names]
            mask = cells_in_box(coords, box)
            idx = tuple(c[mask] - lo for c, lo in zip(coords, box.lo))
            valid[idx] = True
            for a in attrs:
                grids[a][idx] = chunk.columns[a][mask]
    return grids, valid


# ---------------------------------------------------------------------------
# Operator parameter types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeighborhoodShape:
    """Per-dimension offset ranges [lo_d, hi_d] relative to the origin
    cell. One-sided shapes (e.g. [0, k]) are legal."""

    ranges: tuple  # of (lo, hi) int pairs

    @classmethod
    def of(cls, *ranges):
        rs = tuple((int(l), int(h)) for l, h in ranges)
        for l, h in rs:
            if l > h:
                raise ConfigError(f"neighborhood range [{l}:{h}] is empty")
        return cls(rs)

    @classmethod
    def square(cls, ndim, radius):
        return cls.of(*(((-radius, radius),) * ndim))

    @property
    def ndim(self):
        return len(self.ranges)

    @property
    def extents(self):
        return tuple(h - l + 1 for l, h in self.ranges)

    @property
    def volume(self):
        n = 1
        for e in self.extents:
            n *= e
        return n


@dataclass(frozen=True)
class BitPattern:
    """A repeating 0/1 string applied along a dimension from its lower
    bound; origins sit where the pattern reads '1'."""

    pattern: str

    def __post_init__(self):
        if not self.pattern or set(self.pattern) - {"0", "1"}:
            raise ConfigError(f"bad bit pattern {self.pattern!r}")
        if "1" not in self.pattern:
            raise ConfigError("bit pattern selects no cells")

    def selected(self, lo: int, hi: int) -> np.ndarray:
        """Global indices in [lo, hi] where the pattern, anchored at the
        dimension's lower bound, reads '1'."""
        bits = np.frombuffer(self.pattern.encode(), dtype=np.uint8) == ord("1")
        n = hi - lo + 1
        tiled = np.tile(bits, n // len(bits) + 1)[:n]
        return np.nonzero(tiled)[0] + lo


@dataclass(frozen=True)
class Predicate:
    """Conjunction of attribute-range comparisons plus an optional per-cell
    expression; references attributes only, never dimensions."""

    ranges: tuple = ()  # of (attr, lo, hi)
    expr: object = None  # Expr, callable, or None

    @classmethod
    def of(cls, ranges=None, expr=None):
        rs = tuple((name, lo, hi) for name, (lo, hi) in (ranges or {}).items())
        return cls(rs, as_expr(expr))

    def validate(self, schema: ArraySchema):
        dim_names = set(schema.dim_names)
        names = [r[0] for r in self.ranges]
        if isinstance(self.expr, Expr):
            names += self.expr.names
        for n in names:
            if n in dim_names:
                raise SchemaError(
                    f"predicate references dimension {n!r}; filtering is "
                    "content-only (use rebox for dimension ranges)")
            schema.attr(n)

    def attr_ranges(self) -> dict:
        return {name: (lo, hi) for name, lo, hi in self.ranges}

    def evaluate(self, columns: dict) -> np.ndarray:
        n = len(next(iter(columns.values()))) if columns else 0
        mask = np.ones(n, dtype=bool)
        for name, lo, hi in self.ranges:
            col = columns[name]
            mask &= (col >= lo) & (col <= hi)
        if self.expr is not None:
            mask &= np.asarray(self.expr(columns), dtype=bool)
        return mask


@dataclass(frozen=True)
class AggregateFn:
    """A named aggregate over one attribute; ``user`` wraps a GLA factory."""

    kind: str
    attr: str | None = None
    out: str | None = None
    gla: object = None  # user aggregate (GLA instance), kind == "user"

    def __post_init__(self):
        if self.kind not in AGGREGATES:
            raise ConfigError(f"unknown aggregate kind {self.kind!r}")
        if self.kind != "count" and self.kind != "user" and self.attr is None:
            raise ConfigError(f"aggregate {self.kind} requires an attribute")

    @property
    def out_name(self):
        if self.out:
            return self.out
        if self.attr:
            return f"{self.kind}_{self.attr}"
        return self.kind

    def out_kind(self, schema: ArraySchema) -> str:
        """The kind of the output attribute over ``schema``: count and
        count_distinct give int64, avg and user float64, and sum, min and
        max keep the attribute's kind."""
        if self.kind in ("count", "count_distinct"):
            return KIND_INT64
        if self.kind in ("avg", "user"):
            return KIND_FLOAT64
        return schema.attr(self.attr).kind

    def entry(self, schema: ArraySchema):
        """This aggregate's entry in the aggregate table."""
        dtype = schema.attr(self.attr).dtype if self.attr else None
        return AGGREGATES[self.kind](self.attr, dtype, self.gla)

    def validate(self, schema: ArraySchema):
        if self.attr is not None:
            spec = schema.attr(self.attr)
            if self.kind == "count_distinct" and spec.kind == KIND_FLOAT64:
                raise ConfigError("count_distinct on a float attribute")


def _normalize_aggs(agg) -> list:
    return list(agg) if isinstance(agg, (list, tuple)) else [agg]


# ---------------------------------------------------------------------------
# shift / rebox / filter / fill / apply / combine / inner_djoin
# ---------------------------------------------------------------------------


def shift(array: Array, offset) -> Array:
    """Translate the array (boxes and sparse coordinates) by a per-dim
    offset; metadata-only on dense chunks."""
    if len(offset) != len(array.schema.dims):
        raise DomainError("shift offset dimensionality mismatch")
    schema = _clipped_schema(array.schema,
                             array.schema.box.translate(offset))
    moves = dict(zip(array.schema.dim_names, map(int, offset)))
    chunks = []
    for c in array.chunks:
        meta = dict(c.zone_meta)
        for d, o in moves.items():
            lo, hi = meta[d]
            meta[d] = (lo + o, hi + o)
        dim_cols = None if c.dim_columns is None else {
            d: c.dim_columns[d] + o for d, o in moves.items()}
        chunks.append(Chunk(c.chunk_id, c.box.translate(offset), c.layout,
                            c.columns, validity=c.validity,
                            dim_columns=dim_cols, zone_meta=meta))
    return Array(schema, chunks)


def _clipped_schema(schema: ArraySchema, new_box: Box) -> ArraySchema:
    dims = tuple(DimensionSpec(d.name, lo, hi)
                 for d, (lo, hi) in zip(schema.dims, new_box.ranges()))
    out = ArraySchema(schema.name, dims, schema.attrs, schema.density)
    out.__dict__["box"] = new_box   # the cached ``box``: dims span it
    return out


def rebox(array: Array, new_box: Box, mode: str = "clip") -> Array:
    """Clip (subsample) or extend the array domain. Clipping keeps a chunk
    inside ``new_box`` as it is and drops a sparse chunk left empty."""
    if new_box.ndim != len(array.schema.dims):
        raise DomainError("rebox dimensionality mismatch")
    if mode == "extend":
        if not new_box.contains_box(array.box):
            raise ShapeError("extend requires new_box to contain the old box")
        return Array(_clipped_schema(array.schema, new_box), list(array.chunks))
    if mode != "clip":
        raise ConfigError(f"unknown rebox mode {mode!r}")
    inter_box = box_intersect(array.box, new_box)
    if inter_box is None:
        # Empty result: keep the requested box as the domain, no chunks.
        return Array(_clipped_schema(array.schema, new_box), [])
    schema = _clipped_schema(array.schema, inter_box)
    chunks = []
    for c in array.chunks:
        inter = box_intersect(c.box, inter_box)
        if inter is None:
            continue
        if inter != c.box:
            c = clip_chunk(schema, c, inter)
        if c.cell_count:
            chunks.append(c)
    return Array(schema, chunks)


def rebox_stored(catalog, name: str, new_box: Box, columns=None,
                 predicate: dict | None = None) -> Array:
    """``rebox`` of a stored array: prune by zone metadata and read only
    the intersecting chunks and wanted columns. Each read returns chunk ∩
    ``new_box`` (``storage.read_chunk``), so nothing is clipped again; a
    sparse chunk left without cells is dropped."""
    chunks = [catalog.read(name, cid, columns=columns, box=new_box)
              for cid in catalog.prune(name, new_box, predicate)]
    schema = catalog.entry(name).schema
    domain = box_intersect(schema.box, new_box) or new_box
    if columns is not None:
        schema = schema.with_attrs(a for a in schema.attrs
                                   if a.name in set(columns))
    return Array(_clipped_schema(schema, domain),
                 [c for c in chunks if c.cell_count])


def filter(array: Array, predicate: Predicate) -> Array:  # noqa: A001
    """Invalidate cells failing a content-only predicate; box unchanged.
    Chunks excluded by attribute zone metadata are skipped wholesale."""
    predicate.validate(array.schema)
    ranges = predicate.attr_ranges()
    chunks = []
    for c in array.chunks:
        excluded = any(
            not (c.zone_meta[a][0] <= hi and c.zone_meta[a][1] >= lo)
            for a, (lo, hi) in ranges.items())
        c = keep_cells(array.schema, c,
                       False if excluded else predicate.evaluate(c.columns))
        if c.cell_count:
            chunks.append(c)
    return Array(array.schema, chunks)


def fill(array: Array, defaults: dict, chunk_shape=None) -> Array:
    """Make every cell of the array box valid, assigning defaults to the
    previously invalid cells; the result is dense-suppressed."""
    for a in array.schema.attr_names:
        if a not in defaults:
            raise ConfigError(f"fill: missing default for attribute {a!r}")
    grids, valid = gather_region(array, array.box)
    for a, grid in grids.items():
        grid[~valid] = defaults[a]
    data = {a: grid.ravel() for a, grid in grids.items()}
    data["__valid__"] = np.ones(array.box.volume, dtype=bool)
    schema = ArraySchema(array.schema.name, array.schema.dims,
                         array.schema.attrs, DENSE)
    return dense_array(schema, data, chunk_shape=chunk_shape)


def apply(array: Array, name: str, f) -> Array:  # noqa: A001
    """Add (or replace) an attribute computed per valid cell. Per-cell
    arithmetic faults invalidate the cell and are counted, not raised."""
    f = as_expr(f)
    if isinstance(f, Expr):
        for n in f.names:
            array.schema.attr(n)
    faults = 0
    new_attr = AttributeSpec(name, KIND_FLOAT64)
    attrs = tuple(a for a in array.schema.attrs if a.name != name) + (new_attr,)
    schema = array.schema.with_attrs(attrs)
    chunks = []
    for c in array.chunks:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.asarray(f(c.columns), dtype=np.float64)
        if out.shape == ():
            out = np.full(c.cell_count, float(out))
        bad = ~np.isfinite(out)
        cols = {**c.columns, name: np.where(bad, 0.0, out)}
        chunks.append(keep_cells(schema, c, ~bad, cols))
        faults += c.valid_count - chunks[-1].valid_count
    return Array(schema, chunks, diagnostics={"apply_faults": faults})


def _aligned_pairs(a: Array, b: Array):
    """The chunks of ``a`` and ``b`` with the same box, in ``a``'s order. A
    chunk without a partner (a sparse array drops its empty tiles) must
    overlap no chunk of the other array."""
    if a.box.ranges() != b.box.ranges():
        raise ShapeError(f"box mismatch: {a.box} vs {b.box}")
    by_box = {c.box: c for c in b.chunks}
    a_boxes = {c.box for c in a.chunks}
    for lone in a_boxes ^ by_box.keys():
        others = by_box if lone in a_boxes else a_boxes
        if any(box_intersect(lone, other) for other in others):
            raise ShapeError(
                "non-aligned chunking is unsupported; chunk boxes must match")
    return [(ca, by_box[ca.box]) for ca in a.chunks if ca.box in by_box]


def _cell_keys(schema, box: Box, coords: dict) -> np.ndarray:
    """Each cell's offsets in ``box`` as one big-endian opaque key: keys
    sort row-major and, unlike a flat index, cannot overflow."""
    offsets = np.column_stack([coords[d] - lo for d, lo
                               in zip(schema.dim_names, box.lo)])
    return offsets.astype(">u8").view(np.dtype((np.void, 8 * box.ndim)))[:, 0]


def _join(a: Array, b: Array, attrs, columns) -> Array:
    """The cells valid in both aligned arrays, with attributes ``attrs``
    that ``columns(cols_a, cols_b)`` computes from both inputs' columns of
    the same cells (the layout rules are in the module docstring)."""
    schema = ArraySchema(a.schema.name, a.schema.dims, tuple(attrs), SPARSE)
    chunks = []
    for ca, cb in _aligned_pairs(a, b):
        if ca.layout == DENSE and cb.layout == DENSE:
            chunks.append(make_dense_chunk(
                schema, ca.box, columns(ca.columns, cb.columns),
                ca.validity & cb.validity, chunk_id=ca.chunk_id))
            continue
        ba, bb = cell_batch(ca, a.schema), cell_batch(cb, b.schema)
        _, ia, ib = np.intersect1d(_cell_keys(a.schema, ca.box, ba.coords),
                                   _cell_keys(a.schema, ca.box, bb.coords),
                                   return_indices=True)
        chunks.append(make_sparse_chunk(
            schema, ca.box, {d: v[ia] for d, v in ba.coords.items()},
            columns({n: v[ia] for n, v in ba.columns.items()},
                    {n: v[ib] for n, v in bb.columns.items()}),
            chunk_id=ca.chunk_id))
    density = DENSE if all(c.layout == DENSE for c in chunks) else SPARSE
    return Array(ArraySchema(schema.name, schema.dims, schema.attrs, density),
                 chunks)


def combine(a: Array, b: Array, g) -> Array:
    """Per-cell g over same-named attributes of two aligned arrays; the
    result is valid where both inputs are valid."""
    g = as_expr(g)
    common = [n for n in a.schema.attr_names if b.schema.has_attr(n)]
    if not common:
        raise SchemaError("combine: the arrays share no attribute names")

    def columns(ca, cb):
        if isinstance(g, Expr):
            return {n: g({"a": ca[n], "b": cb[n]}) for n in common}
        return {n: g(ca[n], cb[n]) for n in common}
    return _join(a, b, [spec for spec in a.schema.attrs
                        if spec.name in common], columns)


def inner_djoin(a: Array, b: Array) -> Array:
    """Structural join on dimension equality for aligned arrays; result
    cells carry the concatenated attributes, valid where both valid."""
    rename = {n: n + "_r" if a.schema.has_attr(n) else n
              for n in b.schema.attr_names}
    b_attrs = tuple(AttributeSpec(rename[spec.name], spec.kind)
                    for spec in b.schema.attrs)

    def columns(ca, cb):
        return {**ca, **{new: cb[old] for old, new in rename.items()}}
    return _join(a, b, a.schema.attrs + b_attrs, columns)


# ---------------------------------------------------------------------------
# reduce (group-by aggregation through the aggregate engine)
# ---------------------------------------------------------------------------


class _GroupByGLA(GLA):
    """Grouped aggregation: the state is a list of GroupStates keyed by the
    kept dimensions' coordinates, one per folded chunk, merged into one as
    the state ships or terminates."""

    def __init__(self, keys, aggs, schema):
        self.keys = list(keys)
        self.entries = [a.entry(schema) for a in aggs]

    def init(self):
        return []

    def accumulate(self, state, cells):
        if len(cells):
            keys, groups = _unique_rows(np.column_stack(
                [cells.coords[k] for k in self.keys]) if self.keys
                else np.empty((len(cells), 0), dtype=np.int64))
            state.append(GroupStates.of_cells(self.entries, keys, groups,
                                              cells))

    def local_merge(self, a, b):
        return a + b

    def serialize(self, state):
        return GroupStates.dumps(state)

    def remote_merge(self, state, payload):
        return state + GroupStates.loads(self.entries, payload)

    def terminate(self, state):
        return GroupStates.union(state) if state else None


def reduce(array: Array, keep_dims, aggs, n_workers: int = 1):  # noqa: A001
    """Group the valid cells by the kept dimensions and aggregate.

    Empty ``keep_dims`` yields a single result row (dict of output name ->
    value, empty when there are no valid cells); otherwise a sparse array
    with one cell per group.
    """
    aggs = _normalize_aggs(aggs)
    keep_dims = list(keep_dims)
    for d in keep_dims:
        if d not in array.schema.dim_names:
            raise SchemaError(f"reduce: unknown dimension {d!r}")
    for agg in aggs:
        agg.validate(array.schema)
    gla = _GroupByGLA(keep_dims, aggs, array.schema)
    tree = AggregationTree.balanced_binary(max(1, n_workers))
    by_worker = _round_robin(array.chunks, n_workers)
    groups = run_gla_chunks(array.schema, by_worker, gla, tree).result \
        if by_worker else None
    attr_specs = [AttributeSpec(agg.out_name, agg.out_kind(array.schema))
                  for agg in aggs]
    if not keep_dims:
        if groups is None:
            return {}
        # A user aggregate's value stays as its GLA returned it.
        return {spec.name: (v if agg.kind == "user"
                            else v.astype(spec.dtype)).tolist()[0]
                for agg, spec, v in zip(aggs, attr_specs, groups.values())}

    dims = tuple(d for d in array.schema.dims if d.name in keep_dims)
    dims = tuple(sorted(dims, key=lambda d: keep_dims.index(d.name)))
    schema = ArraySchema(f"{array.schema.name}_reduced", dims,
                         tuple(attr_specs), SPARSE)
    if groups is None:
        return Array(schema, [])
    dim_cols = {d.name: groups.keys[:, i] for i, d in enumerate(dims)}
    attr_cols = {spec.name: v.astype(spec.dtype)
                 for spec, v in zip(attr_specs, groups.values())}
    chunk = make_sparse_chunk(schema, schema.box, dim_cols, attr_cols)
    return Array(schema, [chunk])


from .stencil import apply_plus  # noqa: E402  (defined after its helpers)
