"""Boxes, schemas, and chunk containers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from arraybench import (
    ArraySchema,
    AttributeSpec,
    Box,
    DimensionSpec,
    box_intersect,
    cell_batch,
    make_dense_chunk,
    make_sparse_chunk,
)
from arraybench.errors import DomainError, SchemaError
from arraybench.model import EMPTY_ZONE_FLOAT, EMPTY_ZONE_INT


def ranges_strategy(ndim):
    return st.lists(
        st.tuples(st.integers(-20, 20), st.integers(0, 10)).map(
            lambda t: (t[0], t[0] + t[1])),
        min_size=ndim, max_size=ndim)


class TestBox:
    def test_basic_properties(self):
        b = Box((0, -2), (3, 5))
        assert b.ndim == 2
        assert b.extents == (4, 8)
        assert b.volume == 32
        assert b.ranges() == ((0, 3), (-2, 5))

    def test_of_builder(self):
        assert Box.of((1, 2), (3, 4)) == Box((1, 3), (2, 4))

    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            Box((2,), (1,))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            Box((0, 0), (1,))

    def test_contains(self):
        outer = Box((0, 0), (9, 9))
        assert outer.contains_box(Box((2, 3), (4, 5)))
        assert not outer.contains_box(Box((2, 3), (4, 10)))

    def test_translate(self):
        b = Box((0, 0), (2, 2)).translate((5, -1))
        assert b == Box((5, -1), (7, 1))

    def test_translate_overflow(self):
        b = Box((0,), (1,))
        with pytest.raises(DomainError):
            b.translate((np.iinfo(np.int64).max,))

    @given(ranges_strategy(2), ranges_strategy(2))
    def test_intersect_oracle(self, ra, rb):
        a, b = Box.of(*ra), Box.of(*rb)
        inter = box_intersect(a, b)
        # Oracle: pointwise membership on a small lattice.
        expected = {
            (x, y)
            for x in range(min(a.lo[0], b.lo[0]), max(a.hi[0], b.hi[0]) + 1)
            for y in range(min(a.lo[1], b.lo[1]), max(a.hi[1], b.hi[1]) + 1)
            if all(box.lo[0] <= x <= box.hi[0] and box.lo[1] <= y <= box.hi[1]
                   for box in (a, b))}
        if inter is None:
            assert not expected
        else:
            got = {(x, y) for x in range(inter.lo[0], inter.hi[0] + 1)
                   for y in range(inter.lo[1], inter.hi[1] + 1)}
            assert got == expected

    @given(ranges_strategy(3), ranges_strategy(3))
    def test_intersect_commutes(self, ra, rb):
        a, b = Box.of(*ra), Box.of(*rb)
        assert box_intersect(a, b) == box_intersect(b, a)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            ArraySchema("t", (DimensionSpec("x", 0, 1),),
                        (AttributeSpec("x", "int64"),))

    def test_too_many_dims_rejected(self):
        dims = tuple(DimensionSpec(f"d{i}", 0, 1) for i in range(9))
        with pytest.raises(SchemaError):
            ArraySchema("t", dims, ())

    def test_bad_attr_kind_rejected(self):
        with pytest.raises(SchemaError):
            AttributeSpec("a", "int32")

    def test_box_and_names(self):
        s = ArraySchema("t", (DimensionSpec("x", 0, 4),
                              DimensionSpec("y", 1, 3)),
                        (AttributeSpec("v", "float64"),))
        assert s.box == Box((0, 1), (4, 3))
        assert s.dim_names == ("x", "y")
        assert s.attr_names == ("v",)
        assert s.attr("v").kind == "float64"
        with pytest.raises(SchemaError):
            s.attr("w")

    def test_derived_values_are_built_once(self):
        s = ArraySchema("t", (DimensionSpec("x", 0, 4),),
                        (AttributeSpec("v", "int64"),))
        assert s.box is s.box
        assert s.dim_names is s.dim_names and s.attr_names is s.attr_names
        assert s == ArraySchema("t", s.dims, s.attrs)


def _schema_2d():
    return ArraySchema("t", (DimensionSpec("x", 0, 3),
                             DimensionSpec("y", 0, 2)),
                       (AttributeSpec("v", "int64"),
                        AttributeSpec("f", "float64")))


class TestDenseChunk:
    def test_cell_coords_row_major(self):
        schema = _schema_2d()
        box = Box((1, 0), (3, 2))
        n = box.volume
        chunk = make_dense_chunk(schema, box,
                                 {"v": np.zeros(n), "f": np.zeros(n)},
                                 np.ones(n, bool))
        # Row-major: the last dimension varies fastest.
        rows = [(x, y) for x in range(1, 4) for y in range(0, 3)]
        coords = cell_batch(chunk, schema).coords
        for i, d in enumerate(schema.dims):
            assert coords[d.name].dtype == np.int64
            assert coords[d.name].tolist() == [row[i] for row in rows]
        # Invalid cells have no coordinates; the order stays row-major.
        valid = np.arange(n) % 2 == 0
        chunk = make_dense_chunk(schema, box,
                                 {"v": np.zeros(n), "f": np.zeros(n)}, valid)
        coords = cell_batch(chunk, schema).coords
        for i, d in enumerate(schema.dims):
            assert coords[d.name].tolist() == [row[i] for row, ok
                                               in zip(rows, valid) if ok]

    def test_zone_meta_over_valid_cells_only(self):
        schema = _schema_2d()
        box = Box((0, 0), (1, 1))
        valid = np.array([True, False, True, False])
        chunk = make_dense_chunk(schema, box,
                                 {"v": np.array([5, 100, -3, -100]),
                                  "f": np.array([1.0, 9.0, 2.0, -9.0])},
                                 valid)
        assert chunk.zone_meta["v"] == (-3, 5)
        assert chunk.zone_meta["f"] == (1.0, 2.0)
        assert chunk.zone_meta["x"] == (0, 1)

    def test_empty_zone_sentinels(self):
        schema = _schema_2d()
        box = Box((0, 0), (1, 1))
        chunk = make_dense_chunk(schema, box,
                                 {"v": np.zeros(4), "f": np.zeros(4)},
                                 np.zeros(4, bool))
        assert chunk.zone_meta["v"] == EMPTY_ZONE_INT
        assert chunk.zone_meta["f"] == EMPTY_ZONE_FLOAT
        # Sentinel ranges never overlap any query range.
        lo, hi = chunk.zone_meta["v"]
        assert lo > hi

    def test_all_nan_column_gets_empty_zone(self):
        schema = _schema_2d()
        box = Box((0, 0), (1, 1))
        chunk = make_dense_chunk(schema, box,
                                 {"v": np.zeros(4), "f": np.full(4, np.nan)},
                                 np.ones(4, bool))
        assert chunk.zone_meta["f"] == EMPTY_ZONE_FLOAT

    def test_length_mismatch_rejected(self):
        schema = _schema_2d()
        box = Box((0, 0), (1, 1))
        with pytest.raises(SchemaError):
            make_dense_chunk(schema, box, {"v": np.zeros(3), "f": np.zeros(4)},
                             np.ones(4, bool))

    def test_box_outside_schema_rejected(self):
        schema = _schema_2d()
        with pytest.raises(DomainError):
            make_dense_chunk(schema, Box((0, 0), (5, 2)),
                             {"v": np.zeros(18), "f": np.zeros(18)},
                             np.ones(18, bool))


class TestSparseChunk:
    def test_counts_and_zones(self):
        schema = _schema_2d()
        box = Box((0, 0), (3, 2))
        chunk = make_sparse_chunk(schema, box,
                                  {"x": [0, 2, 3], "y": [1, 0, 2]},
                                  {"v": [7, -1, 4], "f": [0.5, 1.5, -2.5]})
        assert chunk.cell_count == 3
        assert chunk.valid_count == 3
        assert chunk.zone_meta["x"] == (0, 3)
        assert chunk.zone_meta["y"] == (0, 2)
        assert chunk.zone_meta["v"] == (-1, 7)
        assert chunk.zone_meta["f"] == (-2.5, 1.5)

    def test_coords_outside_box_rejected(self):
        schema = _schema_2d()
        with pytest.raises(DomainError):
            make_sparse_chunk(schema, Box((0, 0), (1, 1)),
                              {"x": [0, 3], "y": [0, 0]},
                              {"v": [1, 2], "f": [0.0, 0.0]})
