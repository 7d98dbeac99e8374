"""Shared fixtures and oracle helpers for the test suite."""

import numpy as np
import pytest

from arraybench import (
    Array,
    ArraySchema,
    AttributeSpec,
    Box,
    DimensionSpec,
    dense_array,
)


def make_dense_2d(rng, nx, ny, n_attrs=2, chunk_shape=None, valid_prob=0.85,
                  name="a", lo=(0, 0)):
    """Random 2-D dense array plus its plain-numpy mirror (grids, valid)."""
    dims = (DimensionSpec("x", lo[0], lo[0] + nx - 1),
            DimensionSpec("y", lo[1], lo[1] + ny - 1))
    attrs = tuple(AttributeSpec(f"a{k}", "int64") for k in range(n_attrs))
    schema = ArraySchema(name, dims, attrs, "dense")
    grids = {f"a{k}": rng.integers(-50, 51, (nx, ny)).astype(np.int64)
             for k in range(n_attrs)}
    valid = rng.random((nx, ny)) < valid_prob
    data = {k: v.ravel() for k, v in grids.items()}
    data["__valid__"] = valid.ravel()
    arr = dense_array(schema, data, chunk_shape=chunk_shape)
    return arr, grids, valid


def make_sparse_2d(rng, nx, ny, n_cells, n_attrs=2, chunk_shape=None,
                   name="s", lo=(0, 0)):
    """Random 2-D sparse array plus its (coords, columns) mirror."""
    dims = (DimensionSpec("x", lo[0], lo[0] + nx - 1),
            DimensionSpec("y", lo[1], lo[1] + ny - 1))
    attrs = tuple(AttributeSpec(f"a{k}", "int64") for k in range(n_attrs))
    schema = ArraySchema(name, dims, attrs, "sparse")
    n_cells = min(n_cells, nx * ny)
    flat = rng.choice(nx * ny, size=n_cells, replace=False)
    xs = flat // ny + lo[0]
    ys = flat % ny + lo[1]
    cols = {f"a{k}": rng.integers(-50, 51, n_cells).astype(np.int64)
            for k in range(n_attrs)}
    data = {"x": xs, "y": ys, **cols}
    arr = dense_array(schema, data, chunk_shape=chunk_shape)
    return arr, {"x": xs, "y": ys}, cols


INT64_EXTREME = 2**53 + 1  # the smallest positive int64 float64 cannot hold


def make_extreme(rng, extents=(9, 7), chunk_shape=(4, 3)):
    """Random dense array (dimensions x, y, z, ... over ``extents``) whose
    int64 attribute a0 holds 2**53 + 1 and whose float64 attribute a1
    holds -inf and +inf, plus (grids, valid)."""
    dims = tuple(DimensionSpec(name, 0, n - 1)
                 for name, n in zip("xyzw", extents))
    attrs = (AttributeSpec("a0", "int64"), AttributeSpec("a1", "float64"))
    schema = ArraySchema("e", dims, attrs, "dense")
    grids = {"a0": rng.integers(-50, 51, extents).astype(np.int64),
             "a1": rng.normal(size=extents)}
    valid = rng.random(extents) < 0.85
    cells = [tuple(c) for c in np.argwhere(valid)]
    grids["a0"][cells[0]] = INT64_EXTREME
    grids["a1"][cells[1]] = -np.inf
    grids["a1"][cells[-1]] = np.inf
    data = {k: v.ravel() for k, v in grids.items()}
    data["__valid__"] = valid.ravel()
    return dense_array(schema, data, chunk_shape=chunk_shape), grids, valid


KINDS = ["sum", "count", "avg", "min", "max", "count_distinct"]

# (kind, attribute of make_extreme); count_distinct rejects floats.
EXTREME_CASES = [(kind, attr) for attr in ("a0", "a1") for kind in KINDS
                 if (kind, attr) != ("count_distinct", "a1")]


def numpy_aggregate(kind, values):
    """One aggregate over a non-empty value vector, by plain numpy."""
    if kind == "count":
        return len(values)
    if kind == "count_distinct":
        return len(np.unique(values))
    if kind in ("min", "max"):
        return getattr(values, kind)().item()
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN, as in the engine
        total = float(values.sum())
    return total if kind == "sum" else total / len(values)


def assert_aggregate_equal(kind, got, expected):
    """Sums and averages accumulate in float64, in an order that differs
    between callers; every other aggregate is exact."""
    if kind in ("sum", "avg"):
        assert got == pytest.approx(expected, rel=1e-12, nan_ok=True)
    else:
        assert got == expected


def array_cells_sorted(arr: Array):
    """All valid cells of an array as a sorted list of flat tuples."""
    cells = arr.cells()
    dims = list(arr.schema.dim_names)
    attrs = list(arr.schema.attr_names)
    rows = []
    n = len(cells)
    for i in range(n):
        row = tuple(int(cells.coords[d][i]) for d in dims)
        row += tuple(cells.columns[a][i] for a in attrs)
        rows.append(row)
    rows.sort(key=lambda r: r[:len(dims)])
    return rows


@pytest.fixture
def rng():
    return np.random.default_rng(0)
