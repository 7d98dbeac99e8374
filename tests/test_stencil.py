"""Neighborhood aggregation: both boundary strategies against a
whole-array oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arraybench import (
    AggregateFn,
    ArraySchema,
    AttributeSpec,
    BitPattern,
    Box,
    CountGLA,
    DimensionSpec,
    NeighborhoodShape,
    apply_plus,
    dense_array,
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
    make_extreme,
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
        # A sum starts from +0.0, as the engine's does (``gla._Sum``), so a
        # window holding only -0.0 sums to +0.0.
        if kind == "sum":
            out[(ox, oy)] = float(vals.sum(initial=0.0))
        elif kind == "count":
            out[(ox, oy)] = len(vals)
        elif kind == "avg":
            out[(ox, oy)] = float(vals.sum(initial=0.0) / len(vals))
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
        arr, grids, valid = make_extreme(rng)
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


class TestSeparableWindows:
    """Wide and 3-D windows over cells that straddle chunk edges, against a
    direct per-window loop."""

    GEOMETRIES = [
        (NeighborhoodShape.square(2, 5), (23, 19), (7, 6)),
        (NeighborhoodShape.square(2, 10), (30, 24), (9, 7)),
        (NeighborhoodShape.of((-1, 1), (-2, 1), (1, 2)), (7, 9, 8),
         (3, 4, 5)),
    ]
    CASES = [("count", None)] + [(kind, attr) for attr in ("a0", "a1")
                                 for kind in ("sum", "avg", "min", "max")]

    @pytest.mark.parametrize("n_workers", [1, 3])
    @pytest.mark.parametrize("boundary", ["merge", "overlap"])
    @pytest.mark.parametrize("pattern", [None, ("110", "10", "1001")])
    @pytest.mark.parametrize("shape, extents, chunk_shape", GEOMETRIES)
    def test_matches_per_window_loop(self, rng, shape, extents, chunk_shape,
                                     pattern, boundary, n_workers):
        """count, min and max are exact, 2**53 + 1 included; so are int64
        sums and averages whose every partial sum stays below 2**53. Float
        sums and averages follow the rule for +-inf and NaN."""
        arr, grids, valid = make_extreme(rng, extents, chunk_shape)
        if pattern is None:
            origins, sel = "valid", [np.arange(n) for n in extents]
        else:
            origins = dict(zip(arr.schema.dim_names, pattern))
            sel = [BitPattern(p).selected(0, n - 1)
                   for p, n in zip(pattern, extents)]
        out = apply_plus(arr, shape, origins,
                         [AggregateFn(kind, attr, f"{kind}_{attr}")
                          for kind, attr in self.CASES],
                         boundary=boundary, n_workers=n_workers)
        windows = {}
        for index in itertools.product(*map(range, map(len, sel))):
            origin = [s[i] for s, i in zip(sel, index)]
            if pattern is None and not valid[tuple(origin)]:
                continue
            box = tuple(slice(max(o + lo, 0), min(o + hi, n - 1) + 1)
                        for o, (lo, hi), n in zip(origin, shape.ranges,
                                                   extents))
            if valid[box].any():
                windows[index] = box
        for kind, attr in self.CASES:
            got, gvalid = materialize(out, f"{kind}_{attr}")
            assert set(zip(*np.nonzero(gvalid))) == set(windows)
            for index, box in windows.items():
                values = grids[attr or "a0"][box][valid[box]]
                expected = numpy_aggregate(kind, values)
                if kind in ("count", "min", "max") or (
                        attr == "a0" and np.abs(values).sum() < 2**53):
                    assert got[index].item() == expected
                else:
                    assert_aggregate_equal(kind, got[index].item(), expected)


@st.composite
def special_float_windows(draw):
    """A partly invalid, unevenly chunked 2-D float64 array whose cells are
    one sign of zero, small dyadic values (so every sum is exact), one sign
    of infinity (so no sum makes a new NaN) and NaN; a shape with at least
    one zero-width dimension; and either every valid cell or a bit pattern
    per dimension as origins."""
    extents = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    n = extents[0] * extents[1]
    zero = draw(st.sampled_from([0.0, -0.0]))
    inf = draw(st.sampled_from([np.inf, -np.inf]))
    values = draw(st.lists(st.sampled_from(
        [zero, zero, zero, 1.0, -1.5, 0.25, inf, np.nan]),
        min_size=n, max_size=n))
    valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    chunk_shape = tuple(draw(st.integers(1, e)) for e in extents)
    single = draw(st.sampled_from([(0,), (1,), (0, 1)]))
    ranges = []
    for d, e in enumerate(extents):
        lo = draw(st.integers(-2, 2))
        width = 0 if d in single else draw(st.integers(0, min(e - 1, 3)))
        ranges.append((lo, lo + width))
    pattern = st.sampled_from(["1", "10", "110"])  # each selects cell 0
    patterns = draw(st.none() | st.tuples(pattern, pattern))
    return (extents, np.array(values), np.array(valid).reshape(extents),
            chunk_shape, NeighborhoodShape.of(*ranges), patterns)


class TestSpecialFloatBits:
    @settings(max_examples=120, deadline=None)
    @given(case=special_float_windows())
    def test_merge_overlap_and_oracle_agree_bitwise(self, case):
        """-0.0, +-inf and NaN come out with the same bits from both
        boundary strategies and the per-origin oracle."""
        extents, values, valid, chunk_shape, shape, patterns = case
        schema = ArraySchema("f", tuple(DimensionSpec(d, 0, e - 1)
                                        for d, e in zip("xy", extents)),
                             (AttributeSpec("v", "float64"),), "dense")
        arr = dense_array(schema, {"v": values, "__valid__": valid.ravel()},
                          chunk_shape=chunk_shape)
        if patterns is None:
            origins = "valid"
            cells = {(x, y): (x, y) for x, y in zip(*np.nonzero(valid))}
        else:
            origins = dict(zip("xy", patterns))
            sel = [BitPattern(p).selected(0, e - 1)
                   for p, e in zip(patterns, extents)]
            cells = {(i, j): (x, y) for i, x in enumerate(sel[0])
                     for j, y in enumerate(sel[1])}
        kinds = ("sum", "avg", "min", "max")
        aggs = [AggregateFn(kind, "v", kind) for kind in kinds]
        outs = [apply_plus(arr, shape, origins, aggs, boundary=b,
                           n_workers=2) for b in ("merge", "overlap")]
        grid = values.reshape(extents)
        for kind in kinds:
            expected = stencil_oracle(grid, valid, shape,
                                      list(cells.values()), kind)
            want = {k: expected[o] for k, o in cells.items() if o in expected}
            for out in outs:
                got, gvalid = materialize(out, kind)
                assert set(zip(*np.nonzero(gvalid))) == set(want)
                for k, v in want.items():
                    assert got[k].view(np.int64) == \
                        np.float64(v).view(np.int64), (kind, k, got[k], v)


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
        arr, _, _ = make_extreme(rng)
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
