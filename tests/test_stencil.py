"""Neighborhood aggregation: both boundary strategies against a
whole-array oracle."""

import numpy as np
import pytest

from arraybench import (
    AggregateFn,
    BitPattern,
    Box,
    CountGLA,
    NeighborhoodShape,
    apply_plus,
    materialize,
    reduce,
)
from arraybench.errors import ConfigError, DomainError
from tests.conftest import (
    EXTREME_CASES,
    KINDS,
    array_cells_sorted,
    assert_aggregate_equal,
    make_dense_2d,
    make_extreme_2d,
    make_sparse_2d,
    numpy_aggregate,
)


def stencil_oracle(grid, valid, shape, origin_coords, kind, lo=(0, 0)):
    """Direct per-origin loop over the clipped window; returns
    {origin: value} with empty-window origins omitted."""
    nx, ny = grid.shape
    out = {}
    (sx0, sx1), (sy0, sy1) = shape.ranges
    for (ox, oy) in origin_coords:
        x0, x1 = max(ox + sx0, lo[0]), min(ox + sx1, lo[0] + nx - 1)
        y0, y1 = max(oy + sy0, lo[1]), min(oy + sy1, lo[1] + ny - 1)
        if x0 > x1 or y0 > y1:
            continue
        sl = (slice(x0 - lo[0], x1 - lo[0] + 1),
              slice(y0 - lo[1], y1 - lo[1] + 1))
        vals = grid[sl][valid[sl]]
        if len(vals) == 0:
            continue
        if kind == "sum":
            out[(ox, oy)] = float(vals.sum())
        elif kind == "count":
            out[(ox, oy)] = len(vals)
        elif kind == "avg":
            out[(ox, oy)] = float(vals.mean())
        elif kind == "min":
            out[(ox, oy)] = float(vals.min())
        elif kind == "max":
            out[(ox, oy)] = float(vals.max())
        else:
            out[(ox, oy)] = len(np.unique(vals))
    return out


def result_map_valid(arr, out_name):
    """Dense valid-origin result as {(x, y): value}."""
    got, gvalid = materialize(arr, out_name)
    lo = arr.box.lo
    out = {}
    for x, y in zip(*np.nonzero(gvalid)):
        out[(x + lo[0], y + lo[1])] = got[x, y]
    return out


class TestValidOriginsDense:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("boundary", ["merge", "overlap"])
    def test_matches_oracle(self, rng, kind, boundary):
        arr, grids, valid = make_dense_2d(rng, 14, 11, chunk_shape=(5, 4),
                                          valid_prob=0.8)
        shape = NeighborhoodShape.of((-2, 1), (-1, 2))
        out = apply_plus(arr, shape, "valid",
                         AggregateFn(kind, None if kind == "count" else "a0",
                                     "r"),
                         boundary=boundary, n_workers=3)
        got = result_map_valid(out, "r")
        origins = list(zip(*np.nonzero(valid)))
        expected = stencil_oracle(grids["a0"], valid, shape, origins, kind)
        assert set(got) == set(expected)
        for k in expected:
            assert got[k] == pytest.approx(expected[k], rel=1e-12)

    def test_one_sided_shape(self, rng):
        arr, grids, valid = make_dense_2d(rng, 10, 10, chunk_shape=(4, 4),
                                          valid_prob=1.0)
        shape = NeighborhoodShape.of((0, 2), (0, 2))
        out = apply_plus(arr, shape, "valid", AggregateFn("sum", "a0", "s"))
        got = result_map_valid(out, "s")
        origins = [(x, y) for x in range(10) for y in range(10)]
        expected = stencil_oracle(grids["a0"], valid, shape, origins, "sum")
        assert got == {k: pytest.approx(v) for k, v in expected.items()}

    def test_multiple_aggregates_at_once(self, rng):
        arr, grids, valid = make_dense_2d(rng, 8, 8, chunk_shape=(4, 4))
        shape = NeighborhoodShape.square(2, 1)
        out = apply_plus(arr, shape, "valid",
                         [AggregateFn("sum", "a0", "s"),
                          AggregateFn("count", None, "n"),
                          AggregateFn("min", "a1", "lo")])
        assert set(out.schema.attr_names) == {"s", "n", "lo"}
        sums = result_map_valid(out, "s")
        counts = result_map_valid(out, "n")
        origins = list(zip(*np.nonzero(valid)))
        assert counts == stencil_oracle(grids["a0"], valid, shape, origins,
                                        "count")
        expected = stencil_oracle(grids["a0"], valid, shape, origins, "sum")
        for k, v in expected.items():
            assert sums[k] == pytest.approx(v)

    def test_invalid_origins_have_no_output(self, rng):
        arr, grids, valid = make_dense_2d(rng, 9, 9, valid_prob=0.5)
        out = apply_plus(arr, NeighborhoodShape.square(2, 1), "valid",
                         AggregateFn("count", None, "n"))
        _, gvalid = materialize(out, "n")
        assert not (gvalid & ~valid).any()


class TestValidOriginsSparse:
    @pytest.mark.parametrize("boundary", ["merge", "overlap"])
    def test_matches_oracle(self, rng, boundary):
        arr, coords, cols = make_sparse_2d(rng, 16, 16, 60, chunk_shape=(8, 8))
        grid = np.zeros((16, 16), dtype=np.int64)
        valid = np.zeros((16, 16), dtype=bool)
        grid[coords["x"], coords["y"]] = cols["a0"]
        valid[coords["x"], coords["y"]] = True
        shape = NeighborhoodShape.square(2, 2)
        out = apply_plus(arr, shape, "valid", AggregateFn("sum", "a0", "s"),
                         boundary=boundary, n_workers=2)
        origins = list(zip(coords["x"].tolist(), coords["y"].tolist()))
        expected = stencil_oracle(grid, valid, shape, origins, "sum")
        got = {(r[0], r[1]): r[2] for r in array_cells_sorted(out)}
        assert set(got) == set(expected)
        for k in expected:
            assert got[k] == pytest.approx(expected[k])


class TestPatternOrigins:
    @pytest.mark.parametrize("boundary", ["merge", "overlap"])
    def test_regrid_matches_oracle(self, rng, boundary):
        arr, grids, valid = make_dense_2d(rng, 20, 20, chunk_shape=(7, 6),
                                          valid_prob=1.0)
        shape = NeighborhoodShape.of((0, 3), (0, 3))
        out = apply_plus(arr, shape,
                         {"x": BitPattern("1001001000"),
                          "y": BitPattern("1001001000")},
                         AggregateFn("avg", "a0", "m"), boundary=boundary,
                         n_workers=4)
        # Selected origins are concatenated into a dense output grid.
        sel = BitPattern("1001001000").selected(0, 19).tolist()
        assert out.box.extents == (len(sel), len(sel))
        got, gvalid = materialize(out, "m")
        assert gvalid.all()
        expected = stencil_oracle(grids["a0"], valid, shape,
                                  [(x, y) for x in sel for y in sel], "avg")
        for i, x in enumerate(sel):
            for j, y in enumerate(sel):
                assert got[i, j] == pytest.approx(expected[(x, y)])

    def test_pattern_anchored_at_lower_bound(self, rng):
        arr, grids, valid = make_dense_2d(rng, 8, 8, valid_prob=1.0,
                                          lo=(3, 3))
        out = apply_plus(arr, NeighborhoodShape.of((0, 1), (0, 1)),
                         {"x": BitPattern("10"), "y": BitPattern("1")},
                         AggregateFn("sum", "a0", "s"))
        sel = [3, 5, 7, 9]
        assert out.box.extents == (len(sel), 8)
        got, _ = materialize(out, "s")
        expected = stencil_oracle(grids["a0"], valid,
                                  NeighborhoodShape.of((0, 1), (0, 1)),
                                  [(x, y) for x in sel
                                   for y in range(3, 11)], "sum", lo=(3, 3))
        for i, x in enumerate(sel):
            for j, y in enumerate(range(3, 11)):
                assert got[i, j] == pytest.approx(expected[(x, y)])

    def test_missing_pattern_rejected(self, rng):
        arr, _, _ = make_dense_2d(rng, 6, 6)
        with pytest.raises(ConfigError):
            apply_plus(arr, NeighborhoodShape.square(2, 1),
                       {"x": BitPattern("1")}, AggregateFn("count"))


class TestWholeArrayWindow:
    @pytest.mark.parametrize("boundary", ["merge", "overlap"])
    @pytest.mark.parametrize("kind, attr", EXTREME_CASES)
    def test_matches_numpy(self, rng, kind, attr, boundary):
        """One window covering the array: exact min/max of 2**53 + 1 and of
        -inf/+inf, with either boundary strategy."""
        arr, grids, valid = make_extreme_2d(rng)
        nx, ny = valid.shape
        out = apply_plus(arr, NeighborhoodShape.of((0, nx - 1), (0, ny - 1)),
                         {"x": BitPattern("1" + "0" * (nx - 1)),
                          "y": BitPattern("1" + "0" * (ny - 1))},
                         AggregateFn(kind, None if kind == "count" else attr,
                                     "r"),
                         boundary=boundary, n_workers=3)
        got, gvalid = materialize(out, "r")
        assert gvalid.shape == (1, 1) and gvalid.all()
        assert_aggregate_equal(kind, got[0, 0].item(),
                               numpy_aggregate(kind, grids[attr][valid]))


class TestStrategyAgreement:
    def test_merge_equals_overlap_random(self):
        for trial in range(25):
            t_rng = np.random.default_rng(trial + 100)
            nx = int(t_rng.integers(6, 24))
            ny = int(t_rng.integers(6, 24))
            cs = (int(t_rng.integers(2, nx + 1)), int(t_rng.integers(2, ny + 1)))
            arr, _, _ = make_dense_2d(t_rng, nx, ny, chunk_shape=cs,
                                      valid_prob=0.75)
            lo = (int(t_rng.integers(-2, 1)), int(t_rng.integers(-2, 1)))
            hi = (int(t_rng.integers(0, 3)), int(t_rng.integers(0, 3)))
            shape = NeighborhoodShape.of((lo[0], hi[0]), (lo[1], hi[1]))
            kind = ["sum", "count", "avg", "min", "max"][trial % 5]
            agg = AggregateFn(kind, None if kind == "count" else "a0", "r")
            results = [array_cells_sorted(
                apply_plus(arr, shape, "valid", agg, boundary=b,
                           n_workers=nw))
                for b in ("merge", "overlap") for nw in (1, 3)]
            assert all(r == results[0] for r in results)

    def test_user_gla_merge_equals_overlap(self, rng):
        arr, grids, valid = make_dense_2d(rng, 10, 10, chunk_shape=(4, 4))
        agg = [AggregateFn("user", "a0", "n2", gla=CountGLA()),
               AggregateFn("count", None, "n")]
        shape = NeighborhoodShape.square(2, 1)
        a = apply_plus(arr, shape, "valid", agg, boundary="merge")
        b = apply_plus(arr, shape, "valid", agg, boundary="overlap")
        assert array_cells_sorted(a) == array_cells_sorted(b)
        # The user count aggregate agrees with the built-in one.
        for row in array_cells_sorted(a):
            assert row[2] == row[3]


class TestOutputKind:
    @pytest.mark.parametrize("boundary", ["merge", "overlap"])
    @pytest.mark.parametrize("kind, attr", EXTREME_CASES + [("user", None)])
    def test_reduce_and_apply_plus_agree(self, rng, kind, attr, boundary):
        """count and count_distinct give int64, avg and user float64, and
        sum, min and max keep the attribute's kind."""
        arr, _, _ = make_extreme_2d(rng)
        agg = AggregateFn(kind, attr, "r",
                          gla=CountGLA() if kind == "user" else None)
        expected = {"count": "int64", "count_distinct": "int64",
                    "avg": "float64", "user": "float64"}.get(kind)
        expected = expected or arr.schema.attr(attr).kind
        for out in (reduce(arr, ["x"], agg),
                    apply_plus(arr, NeighborhoodShape.square(2, 1), "valid",
                               agg, boundary=boundary)):
            assert out.schema.attr("r").kind == expected
            assert out.cells().columns["r"].dtype == expected


class TestValidation:
    def test_shape_ndim_mismatch(self, rng):
        arr, _, _ = make_dense_2d(rng, 6, 6)
        with pytest.raises(DomainError):
            apply_plus(arr, NeighborhoodShape.of((0, 1)), "valid",
                       AggregateFn("count"))

    def test_shape_larger_than_array(self, rng):
        arr, _, _ = make_dense_2d(rng, 4, 4)
        with pytest.raises(DomainError):
            apply_plus(arr, NeighborhoodShape.of((0, 5), (0, 1)), "valid",
                       AggregateFn("count"))

    def test_unknown_boundary(self, rng):
        arr, _, _ = make_dense_2d(rng, 6, 6)
        with pytest.raises(ConfigError):
            apply_plus(arr, NeighborhoodShape.square(2, 1), "valid",
                       AggregateFn("count"), boundary="ghost")
