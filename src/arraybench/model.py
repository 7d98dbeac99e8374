"""Array schemas, boxes, and chunk containers.

An array is a (box, valid, content) triple realized as a set of chunks.
Dense chunks store cells in row-major order over the dimensions in schema
declaration order with the coordinate columns suppressed; sparse chunks
store explicit coordinate columns. Every chunk carries (min, max) zone
metadata per dimension and per attribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SchemaError

INT64_MAX = np.iinfo(np.int64).max
INT64_MIN = np.iinfo(np.int64).min

# Sentinel zone range for columns with no valid cells: min > max, so any
# overlap test against it fails and pruning naturally drops the chunk.
EMPTY_ZONE_INT = (INT64_MAX, INT64_MIN)
EMPTY_ZONE_FLOAT = (np.inf, -np.inf)

KIND_INT64 = "int64"
KIND_FLOAT64 = "float64"

_KIND_DTYPES = {KIND_INT64: np.int64, KIND_FLOAT64: np.float64}


def dtype_for(kind: str) -> np.dtype:
    try:
        return np.dtype(_KIND_DTYPES[kind])
    except KeyError:
        raise SchemaError(f"unknown attribute kind {kind!r}") from None


@dataclass(frozen=True)
class DimensionSpec:
    """A named dimension with inclusive signed bounds."""

    name: str
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise SchemaError(f"dimension {self.name}: lo {self.lo} > hi {self.hi}")

    @property
    def extent(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class AttributeSpec:
    """A named attribute, either int64 or float64."""

    name: str
    kind: str = KIND_INT64

    def __post_init__(self):
        if self.kind not in _KIND_DTYPES:
            raise SchemaError(f"attribute {self.name}: unknown kind {self.kind!r}")

    @property
    def dtype(self) -> np.dtype:
        return dtype_for(self.kind)


@dataclass(frozen=True)
class Box:
    """Per-dimension inclusive ranges [lo_d, hi_d]."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise DomainError("box lo/hi length mismatch")
        object.__setattr__(self, "lo", tuple(int(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(int(v) for v in self.hi))
        for l, h in zip(self.lo, self.hi):
            if l > h:
                raise DomainError(f"box range [{l}:{h}] is empty")

    @classmethod
    def of(cls, *ranges) -> "Box":
        """Build from (lo, hi) pairs, one per dimension."""
        return cls(tuple(r[0] for r in ranges), tuple(r[1] for r in ranges))

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def extents(self) -> tuple:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def volume(self) -> int:
        n = 1
        for e in self.extents:
            n *= e
        return n

    def contains_box(self, other: "Box") -> bool:
        return all(l <= ol and oh <= h
                   for l, h, ol, oh in zip(self.lo, self.hi, other.lo, other.hi))

    def translate(self, offset) -> "Box":
        if len(offset) != self.ndim:
            raise DomainError("offset dimensionality mismatch")
        lo = tuple(l + int(d) for l, d in zip(self.lo, offset))
        hi = tuple(h + int(d) for h, d in zip(self.hi, offset))
        for v in lo + hi:
            if not (INT64_MIN < v < INT64_MAX):
                raise DomainError("index arithmetic overflow in translate")
        return Box(lo, hi)

    def ranges(self):
        return tuple(zip(self.lo, self.hi))


def box_intersect(a: Box, b: Box):
    """Component-wise intersection; None when disjoint on any dimension."""
    if a.ndim != b.ndim:
        raise DomainError(f"dimensionality mismatch: {a.ndim} vs {b.ndim}")
    lo = tuple(max(x, y) for x, y in zip(a.lo, b.lo))
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    if any(l > h for l, h in zip(lo, hi)):
        return None
    return Box(lo, hi)


DENSE = "dense"
SPARSE = "sparse"


@dataclass(frozen=True)
class ArraySchema:
    """Named array schema: ordered dimensions, ordered attributes, density."""

    name: str
    dims: tuple
    attrs: tuple
    density: str = DENSE

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "attrs", tuple(self.attrs))
        if not self.dims:
            raise SchemaError(f"array {self.name}: no dimensions")
        if len(self.dims) > 8:
            raise SchemaError(f"array {self.name}: more than 8 dimensions")
        names = [d.name for d in self.dims] + [a.name for a in self.attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"array {self.name}: duplicate dim/attr names")
        if self.density not in (DENSE, SPARSE):
            raise SchemaError(f"array {self.name}: bad density {self.density!r}")

    @property
    def box(self) -> Box:
        return Box(tuple(d.lo for d in self.dims), tuple(d.hi for d in self.dims))

    @property
    def dim_names(self) -> tuple:
        return tuple(d.name for d in self.dims)

    @property
    def attr_names(self) -> tuple:
        return tuple(a.name for a in self.attrs)

    def attr(self, name: str) -> AttributeSpec:
        for a in self.attrs:
            if a.name == name:
                return a
        raise SchemaError(f"array {self.name}: unknown attribute {name!r}")

    def has_attr(self, name: str) -> bool:
        return any(a.name == name for a in self.attrs)

    def with_attrs(self, attrs) -> "ArraySchema":
        return ArraySchema(self.name, self.dims, tuple(attrs), self.density)


def _zone_of(values: np.ndarray, kind: str):
    """(min, max) of the values, ignoring NaN: a range predicate never
    matches NaN, so a zone need not cover it. No values, or only NaN, give
    the empty zone."""
    if values.size == 0:
        return EMPTY_ZONE_INT if kind == KIND_INT64 else EMPTY_ZONE_FLOAT
    if kind == KIND_INT64:
        return int(values.min()), int(values.max())
    # fmin/fmax skip NaN and give NaN only when every value is NaN.
    lo = float(np.fmin.reduce(values))
    if lo != lo:
        return EMPTY_ZONE_FLOAT
    return lo, float(np.fmax.reduce(values))


@dataclass
class Chunk:
    """One rectangular piece of an array, stored column-wise.

    Immutable after construction; operators build new chunks instead of
    mutating in place.
    """

    chunk_id: int
    box: Box
    layout: str  # DENSE or SPARSE
    columns: dict  # attr name -> value vector
    validity: np.ndarray | None = None  # dense only, bool, len = box.volume
    dim_columns: dict | None = None  # sparse only, dim name -> int64 vector
    zone_meta: dict = field(default_factory=dict)  # name -> (min, max)

    @property
    def cell_count(self) -> int:
        if self.layout == DENSE:
            return self.box.volume
        first = next(iter(self.dim_columns.values()))
        return len(first)

    @property
    def valid_count(self) -> int:
        if self.layout == DENSE:
            return int(self.validity.sum())
        return self.cell_count

    def coord_column(self, dim_index: int, dim_name: str) -> np.ndarray:
        """Global coordinates of every cell along one dimension.

        For dense chunks the column is reconstructed from the box (the
        stored form suppresses it); for sparse chunks it is stored.
        """
        if self.layout == SPARSE:
            return self.dim_columns[dim_name]
        extents = self.box.extents
        idx = np.arange(self.box.volume, dtype=np.int64)
        for d in range(len(extents) - 1, dim_index, -1):
            idx //= extents[d]
        return idx % extents[dim_index] + self.box.lo[dim_index]


def compute_zone_meta(schema: ArraySchema, box: Box, layout: str, columns: dict,
                      validity=None, dim_columns=None) -> dict:
    meta = {}
    for i, dim in enumerate(schema.dims):
        if layout == DENSE:
            meta[dim.name] = (box.lo[i], box.hi[i])
        else:
            meta[dim.name] = _zone_of(dim_columns[dim.name], KIND_INT64)
    for attr in schema.attrs:
        if attr.name not in columns:
            continue
        vals = columns[attr.name]
        if layout == DENSE:
            vals = vals[validity]
        meta[attr.name] = _zone_of(vals, attr.kind)
    return meta


def make_dense_chunk(schema: ArraySchema, box: Box, values: dict,
                     validity: np.ndarray, chunk_id: int = 0) -> Chunk:
    """Build a dense-suppressed chunk with zone metadata computed from
    contents (attribute min/max over valid cells only)."""
    if box.ndim != len(schema.dims):
        raise DomainError(f"box dimensionality {box.ndim} != schema {len(schema.dims)}")
    if not schema.box.contains_box(box):
        raise DomainError(f"chunk box {box} outside schema bounds {schema.box}")
    n = box.volume
    validity = np.asarray(validity, dtype=bool).ravel()
    if len(validity) != n:
        raise SchemaError(f"validity length {len(validity)} != cell count {n}")
    columns = {}
    for attr in schema.attrs:
        if attr.name not in values:
            raise SchemaError(f"missing values for attribute {attr.name!r}")
        col = np.asarray(values[attr.name], dtype=attr.dtype).ravel()
        if len(col) != n:
            raise SchemaError(
                f"column {attr.name!r} length {len(col)} != cell count {n}")
        columns[attr.name] = col
    meta = compute_zone_meta(schema, box, DENSE, columns, validity=validity)
    return Chunk(chunk_id, box, DENSE, columns, validity=validity, zone_meta=meta)


def make_sparse_chunk(schema: ArraySchema, box: Box, dim_values: dict,
                      values: dict, chunk_id: int = 0) -> Chunk:
    """Build a sparse-explicit chunk; all cells are implicitly valid."""
    if box.ndim != len(schema.dims):
        raise DomainError(f"box dimensionality {box.ndim} != schema {len(schema.dims)}")
    dim_columns = {}
    n = None
    for i, dim in enumerate(schema.dims):
        if dim.name not in dim_values:
            raise SchemaError(f"missing coordinates for dimension {dim.name!r}")
        col = np.asarray(dim_values[dim.name], dtype=np.int64).ravel()
        if n is None:
            n = len(col)
        elif len(col) != n:
            raise SchemaError(f"dimension column {dim.name!r} length mismatch")
        if len(col) and (col.min() < box.lo[i] or col.max() > box.hi[i]):
            raise DomainError(f"coordinates for {dim.name!r} fall outside chunk box")
        dim_columns[dim.name] = col
    columns = {}
    for attr in schema.attrs:
        if attr.name not in values:
            raise SchemaError(f"missing values for attribute {attr.name!r}")
        col = np.asarray(values[attr.name], dtype=attr.dtype).ravel()
        if len(col) != n:
            raise SchemaError(f"column {attr.name!r} length mismatch")
        columns[attr.name] = col
    meta = compute_zone_meta(schema, box, SPARSE, columns, dim_columns=dim_columns)
    return Chunk(chunk_id, box, SPARSE, columns, dim_columns=dim_columns,
                 zone_meta=meta)
