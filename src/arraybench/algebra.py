"""Array algebra operators, implemented chunk-at-a-time.

shift / rebox / filter / fill / apply / combine / inner_djoin / reduce plus
the generalized neighborhood operator apply_plus, which aggregates over a
shape translated to selected origin cells (all valid cells, or cells picked
by per-dimension repeating bit patterns). Cross-chunk stencils run either
by merging per-chunk partial states (through the aggregate engine) or by
pre-replicating border layers so every stencil is chunk-local; the two
strategies produce identical results.
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
    DimensionSpec,
    KIND_FLOAT64,
    KIND_INT64,
    box_intersect,
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
            batch = cell_batch(chunk, array.schema)
            mask = np.ones(len(batch), dtype=bool)
            for d, (lo, hi) in zip(array.schema.dim_names, box.ranges()):
                mask &= (batch.coords[d] >= lo) & (batch.coords[d] <= hi)
            idx = tuple(batch.coords[d][mask] - lo
                        for d, lo in zip(array.schema.dim_names, box.lo))
            valid[idx] = True
            for a in attrs:
                grids[a][idx] = batch.columns[a][mask]
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
    dims = tuple(DimensionSpec(d.name, d.lo + int(o), d.hi + int(o))
                 for d, o in zip(array.schema.dims, offset))
    schema = ArraySchema(array.schema.name, dims, array.schema.attrs,
                         array.schema.density)
    chunks = []
    for c in array.chunks:
        box = c.box.translate(offset)
        meta = dict(c.zone_meta)
        for i, d in enumerate(array.schema.dims):
            lo, hi = meta[d.name]
            meta[d.name] = (lo + int(offset[i]), hi + int(offset[i]))
        if c.layout == DENSE:
            chunks.append(type(c)(c.chunk_id, box, c.layout, c.columns,
                                  validity=c.validity, zone_meta=meta))
        else:
            dim_cols = {d.name: c.dim_columns[d.name] + int(offset[i])
                        for i, d in enumerate(array.schema.dims)}
            chunks.append(type(c)(c.chunk_id, box, c.layout, c.columns,
                                  dim_columns=dim_cols, zone_meta=meta))
    return Array(schema, chunks)


def _clip_dense_chunk(schema, chunk, inter: Box):
    cext = chunk.box.extents
    src = tuple(slice(l - b, h - b + 1)
                for l, h, b in zip(inter.lo, inter.hi, chunk.box.lo))
    validity = chunk.validity.reshape(cext)[src].ravel()
    values = {a: chunk.columns[a].reshape(cext)[src].ravel()
              for a in chunk.columns}
    return make_dense_chunk(schema, inter, values, validity,
                            chunk_id=chunk.chunk_id)


def _clip_sparse_chunk(schema, chunk, inter: Box):
    mask = np.ones(chunk.cell_count, dtype=bool)
    for d, (lo, hi) in zip(schema.dim_names, inter.ranges()):
        col = chunk.dim_columns[d]
        mask &= (col >= lo) & (col <= hi)
    dims = {d: chunk.dim_columns[d][mask] for d in schema.dim_names}
    attrs = {a: chunk.columns[a][mask] for a in chunk.columns}
    return make_sparse_chunk(schema, inter, dims, attrs, chunk_id=chunk.chunk_id)


def _clipped_schema(schema: ArraySchema, new_box: Box) -> ArraySchema:
    dims = tuple(DimensionSpec(d.name, lo, hi)
                 for d, (lo, hi) in zip(schema.dims, new_box.ranges()))
    return ArraySchema(schema.name, dims, schema.attrs, schema.density)


def rebox(array: Array, new_box: Box, mode: str = "clip") -> Array:
    """Clip (subsample) or extend the array domain."""
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
        if c.layout == DENSE:
            chunks.append(_clip_dense_chunk(schema, c, inter))
        else:
            clipped = _clip_sparse_chunk(schema, c, inter)
            if clipped.cell_count:
                chunks.append(clipped)
    return Array(schema, chunks)


def rebox_stored(catalog, name: str, new_box: Box, columns=None,
                 predicate: dict | None = None) -> Array:
    """Range query against a stored array: prune by zone metadata, read
    only intersecting chunks (only the requested columns, and of a dense
    chunk only the band of rows that ``new_box`` covers), clip."""
    entry = catalog.entry(name)
    chunk_ids = catalog.prune(name, new_box, predicate)
    chunks = [catalog.read(name, cid, columns=columns, box=new_box)
              for cid in chunk_ids]
    schema = entry.schema
    if columns is not None:
        attrs = tuple(a for a in schema.attrs if a.name in set(columns))
        schema = schema.with_attrs(attrs)
    return rebox(Array(schema, chunks), new_box)


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
        if c.layout == DENSE:
            if excluded:
                validity = np.zeros(c.box.volume, dtype=bool)
            else:
                mask = predicate.evaluate(c.columns)
                validity = c.validity & mask
            chunks.append(make_dense_chunk(array.schema, c.box, c.columns,
                                           validity, chunk_id=c.chunk_id))
        else:
            if excluded:
                continue
            mask = predicate.evaluate(c.columns)
            dims = {d: c.dim_columns[d][mask] for d in array.schema.dim_names}
            attrs = {a: c.columns[a][mask] for a in c.columns}
            if mask.any():
                chunks.append(make_sparse_chunk(array.schema, c.box, dims,
                                                attrs, chunk_id=c.chunk_id))
    return Array(array.schema, chunks)


def fill(array: Array, defaults: dict, chunk_shape=None) -> Array:
    """Make every cell of the array box valid, assigning defaults to the
    previously invalid cells; the result is dense-suppressed."""
    for a in array.schema.attr_names:
        if a not in defaults:
            raise ConfigError(f"fill: missing default for attribute {a!r}")
    grids, valid = gather_region(array, array.box)
    data = {}
    for a in array.schema.attr_names:
        g = grids[a].copy()
        g[~valid] = defaults[a]
        data[a] = g.ravel()
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
        cols = {a: c.columns[a] for a in array.schema.attr_names if a != name}
        cols[name] = np.where(bad, 0.0, out)
        if c.layout == DENSE:
            faults += int((bad & c.validity).sum())
            chunks.append(make_dense_chunk(schema, c.box, cols,
                                           c.validity & ~bad, chunk_id=c.chunk_id))
        else:
            faults += int(bad.sum())
            keep = ~bad
            dims = {d: c.dim_columns[d][keep] for d in schema.dim_names}
            cols = {a: v[keep] for a, v in cols.items()}
            chunks.append(make_sparse_chunk(schema, c.box, dims, cols,
                                            chunk_id=c.chunk_id))
    return Array(schema, chunks, diagnostics={"apply_faults": faults})


def _aligned_pairs(a: Array, b: Array):
    if a.box.ranges() != b.box.ranges():
        raise ShapeError(f"box mismatch: {a.box} vs {b.box}")
    by_box = {c.box.ranges(): c for c in b.chunks}
    pairs = []
    for ca in a.chunks:
        cb = by_box.get(ca.box.ranges())
        if cb is None:
            raise ShapeError(
                "non-aligned chunking is unsupported; chunk boxes must match")
        pairs.append((ca, cb))
    if len(b.chunks) != len(a.chunks):
        raise ShapeError("non-aligned chunking is unsupported")
    return pairs


def combine(a: Array, b: Array, g) -> Array:
    """Per-cell g over same-named attributes of two aligned arrays; the
    result is valid where both inputs are valid."""
    g_expr = as_expr(g)
    common = [n for n in a.schema.attr_names if b.schema.has_attr(n)]
    if not common:
        raise SchemaError("combine: the arrays share no attribute names")
    chunks = []
    attrs = tuple(spec for spec in a.schema.attrs if spec.name in common)
    schema = a.schema.with_attrs(attrs)
    for ca, cb in _aligned_pairs(a, b):
        if ca.layout == DENSE and cb.layout == DENSE:
            validity = ca.validity & cb.validity
            cols = {}
            for n in common:
                if isinstance(g_expr, Expr):
                    out = g_expr({"a": ca.columns[n], "b": cb.columns[n]})
                else:
                    out = g_expr(ca.columns[n], cb.columns[n])
                cols[n] = np.asarray(out)
            cols = {n: v.astype(schema.attr(n).dtype, copy=False)
                    if v.dtype != schema.attr(n).dtype else v
                    for n, v in cols.items()}
            chunks.append(make_dense_chunk(schema, ca.box, cols, validity,
                                           chunk_id=ca.chunk_id))
        else:
            ba, bb = cell_batch(ca, a.schema), cell_batch(cb, b.schema)
            ia, ib = _match_cells(a.schema, ca.box, ba, bb)
            dims = {d: ba.coords[d][ia] for d in a.schema.dim_names}
            cols = {}
            for n in common:
                if isinstance(g_expr, Expr):
                    out = g_expr({"a": ba.columns[n][ia], "b": bb.columns[n][ib]})
                else:
                    out = g_expr(ba.columns[n][ia], bb.columns[n][ib])
                cols[n] = np.asarray(out)
            chunks.append(make_sparse_chunk(
                ArraySchema(schema.name, schema.dims, schema.attrs, SPARSE),
                ca.box, dims, cols, chunk_id=ca.chunk_id))
    density = DENSE if all(c.layout == DENSE for c in chunks) or not chunks \
        else SPARSE
    schema = ArraySchema(schema.name, schema.dims, schema.attrs, density)
    return Array(schema, chunks)


def _flat_keys(schema, box: Box, coords: dict) -> np.ndarray:
    key = np.zeros(len(next(iter(coords.values()))), dtype=np.int64)
    for d, lo, extent in zip(schema.dim_names, box.lo, box.extents):
        key = key * extent + (coords[d] - lo)
    return key


def _match_cells(schema, box, ba: CellBatch, bb: CellBatch):
    ka = _flat_keys(schema, box, ba.coords)
    kb = _flat_keys(schema, box, bb.coords)
    _, ia, ib = np.intersect1d(ka, kb, assume_unique=False,
                               return_indices=True)
    return ia, ib


def inner_djoin(a: Array, b: Array) -> Array:
    """Structural join on dimension equality for aligned arrays; result
    cells carry the concatenated attributes, valid where both valid."""
    rename = {}
    names = set(a.schema.attr_names)
    b_attrs = []
    for spec in b.schema.attrs:
        n = spec.name
        if n in names:
            n = n + "_r"
        rename[spec.name] = n
        b_attrs.append(AttributeSpec(n, spec.kind))
    attrs = a.schema.attrs + tuple(b_attrs)
    chunks = []
    all_dense = True
    for ca, cb in _aligned_pairs(a, b):
        if ca.layout == DENSE and cb.layout == DENSE:
            validity = ca.validity & cb.validity
            cols = dict(ca.columns)
            for old, new in rename.items():
                cols[new] = cb.columns[old]
            schema = a.schema.with_attrs(attrs)
            chunks.append(make_dense_chunk(schema, ca.box, cols, validity,
                                           chunk_id=ca.chunk_id))
        else:
            all_dense = False
            ba, bb = cell_batch(ca, a.schema), cell_batch(cb, b.schema)
            ia, ib = _match_cells(a.schema, ca.box, ba, bb)
            dims = {d: ba.coords[d][ia] for d in a.schema.dim_names}
            cols = {n: ba.columns[n][ia] for n in a.schema.attr_names}
            for old, new in rename.items():
                cols[new] = bb.columns[old][ib]
            schema = ArraySchema(a.schema.name, a.schema.dims, attrs, SPARSE)
            chunks.append(make_sparse_chunk(schema, ca.box, dims, cols,
                                            chunk_id=ca.chunk_id))
    density = DENSE if all_dense else SPARSE
    schema = ArraySchema(a.schema.name, a.schema.dims, attrs, density)
    return Array(schema, chunks)


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
