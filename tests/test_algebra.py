"""Array algebra operators against naive whole-array oracles."""

import numpy as np
import pytest

from arraybench import (
    AggregateFn,
    Array,
    ArraySchema,
    AttributeSpec,
    Box,
    Catalog,
    CountGLA,
    DimensionSpec,
    NeighborhoodShape,
    Predicate,
    apply,
    combine,
    dense_array,
    fill,
    gather_region,
    inner_djoin,
    make_sparse_chunk,
    materialize,
    metered,
    rebox,
    rebox_stored,
    reduce,
    shift,
    SumGLA,
)
from arraybench import filter as filter_op
from arraybench.errors import (
    ConfigError,
    DomainError,
    SchemaError,
    ShapeError,
)
from tests.conftest import (
    EXTREME_CASES,
    array_cells_sorted,
    assert_aggregate_equal,
    make_dense_2d,
    make_extreme_2d,
    make_sparse_2d,
    numpy_aggregate,
)


class TestMaterialize:
    def test_dense_round_trip(self, rng):
        arr, grids, valid = make_dense_2d(rng, 8, 6, chunk_shape=(3, 4))
        got, gvalid = materialize(arr, "a0")
        assert np.array_equal(gvalid, valid)
        assert np.array_equal(got[valid], grids["a0"][valid])

    def test_sparse_round_trip(self, rng):
        arr, coords, cols = make_sparse_2d(rng, 10, 10, 25, chunk_shape=(5, 5))
        got, gvalid = materialize(arr, "a0")
        assert gvalid.sum() == 25
        for x, y, v in zip(coords["x"], coords["y"], cols["a0"]):
            assert gvalid[x, y]
            assert got[x, y] == v

    def test_gather_region_subbox(self, rng):
        arr, grids, valid = make_dense_2d(rng, 12, 12, chunk_shape=(4, 4))
        box = Box((3, 5), (9, 10))
        got, gvalid = gather_region(arr, box, ["a1"])
        sl = (slice(3, 10), slice(5, 11))
        assert np.array_equal(gvalid, valid[sl])
        assert np.array_equal(got["a1"][gvalid], grids["a1"][sl][valid[sl]])


class TestShift:
    def test_dense_translates_box(self, rng):
        arr, grids, valid = make_dense_2d(rng, 6, 6, chunk_shape=(3, 3))
        out = shift(arr, (10, -2))
        assert out.box == Box((10, -2), (15, 3))
        got, gvalid = materialize(out, "a0")
        assert np.array_equal(gvalid, valid)
        assert np.array_equal(got[gvalid], grids["a0"][valid])

    def test_sparse_translates_coords(self, rng):
        arr, coords, cols = make_sparse_2d(rng, 8, 8, 12)
        out = shift(arr, (5, 5))
        cells = out.cells()
        assert sorted(cells.coords["x"].tolist()) == \
            sorted((coords["x"] + 5).tolist())

    def test_shift_is_invertible(self, rng):
        arr, _, _ = make_dense_2d(rng, 5, 5)
        back = shift(shift(arr, (7, 3)), (-7, -3))
        assert array_cells_sorted(back) == array_cells_sorted(arr)

    def test_bad_offset(self, rng):
        arr, _, _ = make_dense_2d(rng, 4, 4)
        with pytest.raises(DomainError):
            shift(arr, (1,))


class TestRebox:
    def test_clip_matches_oracle(self, rng):
        arr, grids, valid = make_dense_2d(rng, 10, 10, chunk_shape=(4, 4))
        box = Box((2, 3), (7, 8))
        out = rebox(arr, box)
        assert out.box == box
        got, gvalid = materialize(out, "a0")
        sl = (slice(2, 8), slice(3, 9))
        assert np.array_equal(gvalid, valid[sl])
        assert np.array_equal(got[gvalid], grids["a0"][sl][valid[sl]])

    def test_clip_partial_overlap(self, rng):
        arr, grids, valid = make_dense_2d(rng, 6, 6)
        out = rebox(arr, Box((4, 4), (20, 20)))
        # Clipped to the actual intersection.
        assert out.box == Box((4, 4), (5, 5))

    def test_clip_disjoint_is_empty(self, rng):
        arr, _, _ = make_dense_2d(rng, 6, 6)
        out = rebox(arr, Box((100, 100), (110, 110)))
        assert out.chunks == []
        assert out.valid_count() == 0

    def test_extend(self, rng):
        arr, grids, valid = make_dense_2d(rng, 4, 4)
        out = rebox(arr, Box((-2, -2), (6, 6)), mode="extend")
        assert out.box == Box((-2, -2), (6, 6))
        assert out.valid_count() == arr.valid_count()
        got, gvalid = materialize(out, "a0")
        assert gvalid[:2].sum() == 0  # extension cells are invalid

    def test_extend_requires_containment(self, rng):
        arr, _, _ = make_dense_2d(rng, 4, 4)
        with pytest.raises(ShapeError):
            rebox(arr, Box((1, 1), (5, 5)), mode="extend")

    def test_sparse_clip(self, rng):
        arr, coords, cols = make_sparse_2d(rng, 20, 20, 60, chunk_shape=(10, 10))
        box = Box((5, 5), (14, 14))
        out = rebox(arr, box)
        expected = sorted(
            (x, y, a0, a1) for x, y, a0, a1 in zip(
                coords["x"], coords["y"], cols["a0"], cols["a1"])
            if 5 <= x <= 14 and 5 <= y <= 14)
        assert array_cells_sorted(out) == expected


class TestFilter:
    def test_matches_oracle_dense(self, rng):
        for trial in range(20):
            t_rng = np.random.default_rng(trial)
            arr, grids, valid = make_dense_2d(t_rng, 12, 9, chunk_shape=(5, 4))
            pred = Predicate.of(ranges={"a0": (-10, 30)}, expr="a1 % 2 == 0")
            out = filter_op(arr, pred)
            mask = valid & (grids["a0"] >= -10) & (grids["a0"] <= 30) \
                & (grids["a1"] % 2 == 0)
            got, gvalid = materialize(out, "a0")
            assert np.array_equal(gvalid, mask)
            assert np.array_equal(got[mask], grids["a0"][mask])

    def test_matches_oracle_sparse(self, rng):
        arr, coords, cols = make_sparse_2d(rng, 15, 15, 50, chunk_shape=(8, 8))
        out = filter_op(arr, Predicate.of(ranges={"a0": (0, 50)}))
        expected = sorted(
            (x, y, a0, a1) for x, y, a0, a1 in zip(
                coords["x"], coords["y"], cols["a0"], cols["a1"])
            if 0 <= a0 <= 50)
        assert array_cells_sorted(out) == expected

    def test_nan_keeps_in_range_values(self):
        """A NaN in a chunk leaves its zone the range of the other values,
        so zone exclusion keeps every in-range cell of that chunk."""
        schema = ArraySchema("n", (DimensionSpec("x", 0, 9),),
                             (AttributeSpec("a", "float64"),), "dense")
        values = np.arange(10, dtype=np.float64)
        values[3] = np.nan
        arr = dense_array(schema, {"a": values}, chunk_shape=(5,))
        assert arr.chunks[0].zone_meta["a"] == (0.0, 4.0)
        out = filter_op(arr, Predicate.of(ranges={"a": (0.0, 9.0)}))
        got, gvalid = materialize(out, "a")
        assert np.array_equal(gvalid, ~np.isnan(values))
        assert np.array_equal(got[gvalid], values[gvalid])

    def test_box_unchanged(self, rng):
        arr, _, _ = make_dense_2d(rng, 6, 6)
        out = filter_op(arr, Predicate.of(ranges={"a0": (1000, 2000)}))
        assert out.box == arr.box
        assert out.valid_count() == 0

    def test_dimension_reference_rejected(self, rng):
        arr, _, _ = make_dense_2d(rng, 4, 4)
        with pytest.raises(SchemaError):
            filter_op(arr, Predicate.of(ranges={"x": (0, 2)}))
        with pytest.raises(SchemaError):
            filter_op(arr, Predicate.of(expr="y > 1"))

    def test_zone_exclusion_skips_chunks(self, rng):
        # Values in [-50, 50]; an impossible range invalidates everything
        # without evaluating the predicate per cell.
        arr, _, _ = make_dense_2d(rng, 8, 8, chunk_shape=(4, 4))
        out = filter_op(arr, Predicate.of(ranges={"a0": (999, 1000)}))
        assert out.valid_count() == 0


class TestFill:
    def test_fills_invalid_cells(self, rng):
        arr, grids, valid = make_dense_2d(rng, 7, 7, valid_prob=0.5)
        out = fill(arr, {"a0": -1, "a1": 0})
        assert out.valid_count() == out.box.volume
        got, gvalid = materialize(out, "a0")
        assert gvalid.all()
        assert np.array_equal(got[valid], grids["a0"][valid])
        assert (got[~valid] == -1).all()

    def test_sparse_becomes_dense(self, rng):
        arr, coords, cols = make_sparse_2d(rng, 6, 6, 10)
        out = fill(arr, {"a0": 0, "a1": 0})
        assert out.schema.density == "dense"
        assert out.valid_count() == 36

    def test_missing_default_rejected(self, rng):
        arr, _, _ = make_dense_2d(rng, 4, 4)
        with pytest.raises(ConfigError):
            fill(arr, {"a0": 0})


class TestApply:
    def test_matches_oracle(self, rng):
        arr, grids, valid = make_dense_2d(rng, 9, 9, chunk_shape=(4, 5))
        out = apply(arr, "s", "a0 + a1 * 2")
        assert out.schema.attr("s").kind == "float64"
        got, gvalid = materialize(out, "s")
        assert np.array_equal(gvalid, valid)
        expected = (grids["a0"] + grids["a1"] * 2).astype(np.float64)
        assert np.array_equal(got[valid], expected[valid])

    def test_faults_invalidate_cells(self, rng):
        arr, grids, valid = make_dense_2d(rng, 8, 8, valid_prob=1.0)
        out = apply(arr, "q", "a0 / a1")
        zero = grids["a1"] == 0
        got, gvalid = materialize(out, "q")
        assert np.array_equal(gvalid, ~zero)
        assert out.diagnostics["apply_faults"] == int(zero.sum())

    def test_replaces_existing_attribute(self, rng):
        arr, grids, valid = make_dense_2d(rng, 5, 5)
        out = apply(arr, "a0", "a0 * 0 + 7")
        got, gvalid = materialize(out, "a0")
        assert (got[gvalid] == 7).all()

    def test_callable_function(self, rng):
        arr, grids, valid = make_dense_2d(rng, 5, 5)
        out = apply(arr, "t", lambda cols: cols["a0"] * 3)
        got, _ = materialize(out, "t")
        assert np.array_equal(got[valid], (grids["a0"] * 3)[valid])

    def test_unknown_attribute_rejected(self, rng):
        arr, _, _ = make_dense_2d(rng, 4, 4)
        with pytest.raises(SchemaError):
            apply(arr, "t", "nope + 1")


class TestCombine:
    def test_matches_oracle_dense(self, rng):
        a, ga, va = make_dense_2d(rng, 8, 8, chunk_shape=(4, 4), name="a")
        b, gb, vb = make_dense_2d(rng, 8, 8, chunk_shape=(4, 4), name="b")
        out = combine(a, b, "a + b")
        got, gvalid = materialize(out, "a0")
        assert np.array_equal(gvalid, va & vb)
        expected = ga["a0"] + gb["a0"]
        assert np.array_equal(got[gvalid], expected[va & vb])

    def test_callable_g(self, rng):
        a, ga, va = make_dense_2d(rng, 6, 6)
        b, gb, vb = make_dense_2d(rng, 6, 6)
        out = combine(a, b, lambda x, y: np.maximum(x, y))
        got, gvalid = materialize(out, "a1")
        expected = np.maximum(ga["a1"], gb["a1"])
        assert np.array_equal(got[gvalid], expected[va & vb])

    def test_box_mismatch_rejected(self, rng):
        a, _, _ = make_dense_2d(rng, 6, 6)
        b, _, _ = make_dense_2d(rng, 7, 6)
        with pytest.raises(ShapeError):
            combine(a, b, "a + b")

    def test_chunking_mismatch_rejected(self, rng):
        a, _, _ = make_dense_2d(rng, 6, 6, chunk_shape=(3, 3))
        b, _, _ = make_dense_2d(rng, 6, 6, chunk_shape=(2, 2))
        with pytest.raises(ShapeError):
            combine(a, b, "a + b")

    def test_no_common_attributes_rejected(self, rng):
        a, _, _ = make_dense_2d(rng, 4, 4, n_attrs=1)
        dims = (DimensionSpec("x", 0, 3), DimensionSpec("y", 0, 3))
        schema = ArraySchema("b", dims, (AttributeSpec("zz", "int64"),))
        b = dense_array(schema, {"zz": np.zeros(16, np.int64)})
        with pytest.raises(SchemaError):
            combine(a, b, "a + b")

    def test_sparse_intersection(self, rng):
        a, ca, cola = make_sparse_2d(rng, 10, 10, 40, name="a")
        b, cb, colb = make_sparse_2d(rng, 10, 10, 40, name="b")
        out = combine(a, b, "a + b")
        akeys = {(x, y): v for x, y, v in zip(ca["x"], ca["y"], cola["a0"])}
        bkeys = {(x, y): v for x, y, v in zip(cb["x"], cb["y"], colb["a0"])}
        expected = sorted((k[0], k[1], akeys[k] + bkeys[k])
                          for k in set(akeys) & set(bkeys))
        got = [(r[0], r[1], r[2]) for r in array_cells_sorted(out)]
        assert got == expected


class TestInnerDjoin:
    def test_matches_oracle_dense(self, rng):
        a, ga, va = make_dense_2d(rng, 7, 7, chunk_shape=(4, 4))
        b, gb, vb = make_dense_2d(rng, 7, 7, chunk_shape=(4, 4))
        out = inner_djoin(a, b)
        # Same-named attributes of the right side get the _r suffix.
        assert set(out.schema.attr_names) == {"a0", "a1", "a0_r", "a1_r"}
        left, gvalid = materialize(out, "a0")
        right, _ = materialize(out, "a0_r")
        assert np.array_equal(gvalid, va & vb)
        assert np.array_equal(left[gvalid], ga["a0"][gvalid])
        assert np.array_equal(right[gvalid], gb["a0"][gvalid])

    def test_sparse_join_on_coordinates(self, rng):
        a, ca, cola = make_sparse_2d(rng, 9, 9, 30)
        b, cb, colb = make_sparse_2d(rng, 9, 9, 30)
        out = inner_djoin(a, b)
        common = set(zip(ca["x"].tolist(), ca["y"].tolist())) & \
            set(zip(cb["x"].tolist(), cb["y"].tolist()))
        assert out.valid_count() == len(common)


class TestReduce:
    def test_scalar_aggregates_match_numpy(self, rng):
        arr, grids, valid = make_dense_2d(rng, 10, 10, chunk_shape=(5, 5))
        out = reduce(arr, [], [AggregateFn("sum", "a0"),
                               AggregateFn("count"),
                               AggregateFn("avg", "a0"),
                               AggregateFn("min", "a0"),
                               AggregateFn("max", "a0"),
                               AggregateFn("count_distinct", "a0")])
        vals = grids["a0"][valid]
        assert out["sum_a0"] == float(vals.sum())
        assert out["count"] == int(valid.sum())
        assert out["avg_a0"] == pytest.approx(vals.mean(), rel=1e-12)
        assert out["min_a0"] == vals.min()
        assert out["max_a0"] == vals.max()
        assert out["count_distinct_a0"] == len(np.unique(vals))

    def test_group_by_dimension_matches_numpy(self, rng):
        arr, grids, valid = make_dense_2d(rng, 8, 6, chunk_shape=(3, 3))
        out = reduce(arr, ["x"], AggregateFn("sum", "a0", "s"),
                     n_workers=3)
        got = {r[0]: r[1] for r in array_cells_sorted(out)}
        expected = {x: float(grids["a0"][x][valid[x]].sum())
                    for x in range(8) if valid[x].any()}
        assert got == expected

    @pytest.mark.parametrize("kind, attr", EXTREME_CASES)
    def test_extremes_match_numpy(self, rng, kind, attr):
        """Exact min/max of 2**53 + 1 and of -inf/+inf, scalar and grouped."""
        arr, grids, valid = make_extreme_2d(rng)
        agg = AggregateFn(kind, None if kind == "count" else attr, "r")
        scalar = reduce(arr, [], agg, n_workers=3)
        assert_aggregate_equal(kind, scalar["r"],
                               numpy_aggregate(kind, grids[attr][valid]))
        rows = array_cells_sorted(reduce(arr, ["x"], agg, n_workers=3))
        assert [r[0] for r in rows] == \
            [x for x in range(valid.shape[0]) if valid[x].any()]
        for x, got in rows:
            assert_aggregate_equal(
                kind, got, numpy_aggregate(kind, grids[attr][x][valid[x]]))

    @pytest.mark.parametrize("kind, attr", EXTREME_CASES)
    def test_scalar_value_typed_like_grouped_column(self, rng, kind, attr):
        """A scalar result has the type of the grouped column's values:
        an int64 sum is an int, not the float64 accumulator."""
        arr, _, _ = make_extreme_2d(rng)
        agg = AggregateFn(kind, None if kind == "count" else attr, "r")
        scalar = reduce(arr, [], agg)["r"]
        grouped = reduce(arr, ["x"], agg).cells().columns["r"].tolist()
        assert type(scalar) is type(grouped[0])

    @pytest.mark.parametrize("keep", [[], ["x"]])
    def test_user_aggregates_run_once_per_group(self, rng, keep):
        arr, grids, valid = make_dense_2d(rng, 8, 6, chunk_shape=(3, 3))
        out = reduce(arr, keep,
                     [AggregateFn("user", "a0", "s", gla=SumGLA("a0")),
                      AggregateFn("user", None, "n", gla=CountGLA())],
                     n_workers=3)
        if not keep:
            assert out == {"s": float(grids["a0"][valid].sum()),
                           "n": int(valid.sum())}
            return
        assert array_cells_sorted(out) == [
            (x, float(grids["a0"][x][valid[x]].sum()), valid[x].sum())
            for x in range(8) if valid[x].any()]

    def test_worker_count_invariance(self, rng):
        arr, _, _ = make_dense_2d(rng, 12, 12, chunk_shape=(4, 4))
        results = [array_cells_sorted(
            reduce(arr, ["y"], AggregateFn("avg", "a1", "m"), n_workers=nw))
            for nw in (1, 2, 4, 8)]
        assert all(r == results[0] for r in results)

    def test_empty_input(self, rng):
        arr, _, _ = make_dense_2d(rng, 4, 4, valid_prob=0.0)
        assert reduce(arr, [], AggregateFn("sum", "a0")) == {}
        out = reduce(arr, ["x"], AggregateFn("sum", "a0"))
        assert out.valid_count() == 0

    def test_unknown_dim_rejected(self, rng):
        arr, _, _ = make_dense_2d(rng, 4, 4)
        with pytest.raises(SchemaError):
            reduce(arr, ["zz"], AggregateFn("count"))

    def test_count_distinct_on_float_rejected(self, rng):
        arr, _, _ = make_dense_2d(rng, 4, 4)
        arr = apply(arr, "f", "a0 * 0.5")
        with pytest.raises(ConfigError):
            reduce(arr, [], AggregateFn("count_distinct", "f"))


class TestReboxStored:
    def test_prunes_and_clips(self, rng, tmp_path):
        arr, grids, valid = make_dense_2d(rng, 16, 16, chunk_shape=(4, 4))
        cat = Catalog(tmp_path)
        cat.create_array(arr.schema)
        cat.add_chunks("a", arr.chunks)
        box = Box((1, 1), (6, 6))
        with metered() as meter:
            out = rebox_stored(cat, "a", box, columns=["a0"])
        # 2x2 of the 4x4 chunk grid intersect the query box.
        assert meter.chunks_read == 4
        got, gvalid = materialize(out, "a0")
        sl = (slice(1, 7), slice(1, 7))
        assert np.array_equal(gvalid, valid[sl])
        assert np.array_equal(got[gvalid], grids["a0"][sl][valid[sl]])
        assert out.schema.attr_names == ("a0",)


class TestParamTypes:
    def test_neighborhood_shape(self):
        s = NeighborhoodShape.of((-1, 1), (0, 3))
        assert s.extents == (3, 4)
        assert s.volume == 12
        assert NeighborhoodShape.square(2, 1).ranges == ((-1, 1), (-1, 1))
        with pytest.raises(ConfigError):
            NeighborhoodShape.of((2, 1))

    def test_bit_pattern(self):
        from arraybench import BitPattern
        p = BitPattern("1001001000")
        assert p.selected(0, 9).tolist() == [0, 3, 6]
        assert p.selected(0, 19).tolist() == [0, 3, 6, 10, 13, 16]
        # Phase anchors at the dimension lower bound.
        assert BitPattern("10").selected(5, 10).tolist() == [5, 7, 9]
        with pytest.raises(ConfigError):
            BitPattern("10a")
        with pytest.raises(ConfigError):
            BitPattern("000")

    def test_aggregate_fn_validation(self):
        with pytest.raises(ConfigError):
            AggregateFn("median", "a")
        with pytest.raises(ConfigError):
            AggregateFn("sum")
        assert AggregateFn("count").out_name == "count"
        assert AggregateFn("avg", "v").out_name == "avg_v"
        assert AggregateFn("avg", "v", "m").out_name == "m"
