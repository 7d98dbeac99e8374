"""The plan-script language: parsing, validation, execution, digests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from arraybench import (
    Box,
    Catalog,
    PlanNode,
    PlanScript,
    execute_plan,
    parse_plan,
    print_plan,
    result_digest,
)
from arraybench.errors import PlanError
from tests.conftest import array_cells_sorted, make_dense_2d, make_sparse_2d


@pytest.fixture
def catalog(rng, tmp_path):
    cat = Catalog(tmp_path)
    arr, grids, valid = make_dense_2d(rng, 16, 16, chunk_shape=(4, 4),
                                      valid_prob=0.9, name="grid")
    cat.create_array(arr.schema)
    cat.add_chunks("grid", arr.chunks)
    sarr, coords, cols = make_sparse_2d(rng, 16, 16, 40, chunk_shape=(8, 8),
                                        name="points")
    cat.create_array(sarr.schema)
    cat.add_chunks("points", sarr.chunks)
    cat.extras = (grids, valid, coords, cols)
    return cat


class TestParsing:
    def test_basic_round_trip(self):
        text = ("a = REBOX(array=grid, x=0:7)\n"
                "b = FILTER(a0=0:10, in=a)\n"
                "c = REDUCE(agg=sum, attr=a0, in=b)\n")
        plan = parse_plan(text)
        assert plan.root == "c"
        assert [n.node_id for n in plan.nodes] == ["a", "b", "c"]
        assert plan.node("b").inputs == ("a",)
        assert parse_plan(print_plan(plan)) == plan

    def test_comments_and_blanks_ignored(self):
        plan = parse_plan("# leading comment\n\n"
                          "a = REBOX(array=grid)  # trailing\n")
        assert len(plan.nodes) == 1

    def test_multi_input_comma_continuation(self):
        plan = parse_plan("a = REBOX(array=grid)\n"
                          "b = REBOX(array=grid)\n"
                          "c = COMBINE(g=a + b, in=a,b)\n")
        assert plan.node("c").inputs == ("a", "b")
        assert plan.node("c").param("g") == "a + b"

    def test_case_insensitive_op(self):
        plan = parse_plan("a = rebox(array=grid)\n")
        assert plan.nodes[0].op == "REBOX"

    @pytest.mark.parametrize("text,fragment", [
        ("a = REBOX(array=grid, in=a)\n", "cycle"),
        ("a = FILTER(in=zz)\n", "undefined"),
        ("a = REBOX(array=g)\na = REBOX(array=g)\n", "twice"),
        ("a = FROBNICATE(x=1)\n", "unknown operator"),
        ("", "empty plan"),
        ("this is not a node\n", "cannot parse"),
        ("a = REBOX(array=g)\nb = REBOX(array=g)\n", "exactly one root"),
    ])
    def test_errors(self, text, fragment):
        with pytest.raises(PlanError) as exc:
            parse_plan(text)
        assert fragment in str(exc.value)

    def test_error_carries_line_number(self):
        with pytest.raises(PlanError) as exc:
            parse_plan("a = REBOX(array=g)\nb = FILTER(in=zz)\n")
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    @given(st.lists(
        st.tuples(st.sampled_from(["REBOX", "FILTER", "REDUCE", "SHIFT"]),
                  st.dictionaries(st.sampled_from(["x", "y", "a0", "agg"]),
                                  st.sampled_from(["0:5", "sum", "1|2"]),
                                  max_size=3)),
        min_size=1, max_size=8))
    def test_print_parse_round_trip(self, specs):
        """Chain-shaped random plans survive print -> parse unchanged."""
        nodes = []
        prev = None
        for i, (op, params) in enumerate(specs):
            nid = f"n{i}"
            inputs = (prev,) if prev else ()
            if not inputs:
                params = {"array": "grid", **params}
            nodes.append(PlanNode(nid, op, tuple(params.items()), inputs))
            prev = nid
        plan = PlanScript(tuple(nodes), prev)
        assert parse_plan(print_plan(plan)) == plan


class TestExecution:
    def test_leaf_rebox_prunes(self, catalog):
        plan = parse_plan("a = REBOX(array=grid, x=0:3, y=0:3)\n")
        result, report = execute_plan(plan, catalog)
        grids, valid, _, _ = catalog.extras
        assert result.box == Box((0, 0), (3, 3))
        assert report.stage("a").chunks_read == 1
        got = {(r[0], r[1]): r[2] for r in array_cells_sorted(result)}
        for (x, y), v in got.items():
            assert v == grids["a0"][x, y]

    def test_leaf_rebox_column_projection(self, catalog):
        plan = parse_plan("a = REBOX(array=grid, columns=a1)\n")
        result, _ = execute_plan(plan, catalog)
        assert result.schema.attr_names == ("a1",)

    def test_pipeline_matches_direct_calls(self, catalog):
        grids, valid, _, _ = catalog.extras
        plan = parse_plan(
            "a = REBOX(array=grid, x=2:13)\n"
            "b = FILTER(a0=-20:20, in=a)\n"
            "c = REDUCE(agg=avg, attr=a0, out=m, in=b)\n")
        result, report = execute_plan(plan, catalog)
        mask = valid[2:14] & (np.abs(grids["a0"][2:14]) <= 20)
        expected = grids["a0"][2:14][mask].mean()
        assert result["m"] == pytest.approx(expected, rel=1e-12)
        assert [s.name for s in report.stages] == ["a", "b", "c", "plan"]

    def test_apply_and_combine(self, catalog):
        grids, valid, _, _ = catalog.extras
        plan = parse_plan(
            "a = REBOX(array=grid)\n"
            "b = APPLY(name=t, f=a0 * 2, in=a)\n"
            "c = REBOX(array=grid)\n"
            "d = COMBINE(g=a + b, in=b,c)\n"
            "e = REDUCE(agg=sum, attr=a0, in=d)\n")
        result, _ = execute_plan(plan, catalog)
        expected = float(grids["a0"][valid].sum() * 2)
        assert result["sum_a0"] == pytest.approx(expected)

    def test_apply_plus_node(self, catalog):
        plan = parse_plan(
            "a = REBOX(array=grid)\n"
            "b = APPLY_PLUS(shape=0:1|0:1, patterns=10|10, agg=avg, "
            "attr=a0, out=m, in=a)\n")
        result, _ = execute_plan(plan, catalog)
        assert result.box.extents == (8, 8)

    def test_shift_and_fill(self, catalog):
        plan = parse_plan(
            "a = REBOX(array=points, x=0:7, y=0:7)\n"
            "b = SHIFT(offset=2|2, in=a)\n"
            "c = FILL(a0=0, a1=0, in=b)\n")
        result, _ = execute_plan(plan, catalog)
        assert result.box.lo == (2, 2)
        assert result.valid_count() == result.box.volume

    def test_inner_djoin_node(self, catalog):
        plan = parse_plan(
            "a = REBOX(array=grid)\n"
            "b = REBOX(array=grid)\n"
            "c = INNERDJOIN(in=a,b)\n")
        result, _ = execute_plan(plan, catalog)
        assert set(result.schema.attr_names) == {"a0", "a1", "a0_r", "a1_r"}

    def test_group_by_reduce(self, catalog):
        grids, valid, _, _ = catalog.extras
        plan = parse_plan("a = REBOX(array=grid)\n"
                          "b = REDUCE(by=x, agg=count, in=a)\n")
        result, _ = execute_plan(plan, catalog)
        got = {r[0]: r[1] for r in array_cells_sorted(result)}
        for x in range(16):
            if valid[x].any():
                assert got[x] == int(valid[x].sum())

    def test_runtime_failure_wrapped(self, catalog):
        plan = parse_plan("a = REBOX(array=missing)\n")
        with pytest.raises(PlanError) as exc:
            execute_plan(plan, catalog)
        assert "a" in str(exc.value)

    def test_bad_dimension_name(self, catalog):
        plan = parse_plan("a = REBOX(array=grid, zz=0:3)\n")
        with pytest.raises(PlanError):
            execute_plan(plan, catalog)

    def test_report_accounts_io(self, catalog):
        plan = parse_plan("a = REBOX(array=grid)\n"
                          "b = REDUCE(agg=count, in=a)\n")
        _, report = execute_plan(plan, catalog)
        assert report.stage("a").chunks_read == 16
        assert report.stage("b").chunks_read == 0
        total = report.stage("plan")
        assert total.chunks_read == 16
        assert total.digest


class TestDigest:
    def test_order_independent(self, catalog):
        rows_a = [(1, 2.5), (3, 4.5), (5, 6.5)]
        rows_b = list(reversed(rows_a))
        assert result_digest(rows_a) == result_digest(rows_b)

    def test_value_sensitive(self):
        assert result_digest([(1, 2)]) != result_digest([(1, 3)])
        assert result_digest([(1,)]) != result_digest([(1,), (1,)])
        assert result_digest([]) != result_digest([(0,)])

    def test_float_canonicalization(self):
        # Values equal to 10 significant digits share a digest.
        assert result_digest([0.1 + 0.2]) == result_digest([0.3])
        assert result_digest([np.float64(2.0)]) == result_digest([2.0])

    def test_array_digest_ignores_chunking(self, rng):
        a1, grids, valid = make_dense_2d(rng, 12, 12, chunk_shape=(3, 3))
        data = {k: v.ravel() for k, v in grids.items()}
        data["__valid__"] = valid.ravel()
        from arraybench import dense_array
        a2 = dense_array(a1.schema, data, chunk_shape=(4, 6))
        assert result_digest(a1) == result_digest(a2)

    def test_dict_and_scalar_results(self):
        assert result_digest({"a": 1, "b": 2}) == \
            result_digest({"b": 2, "a": 1})
        assert result_digest(5) == result_digest(5)
        assert result_digest(None) == result_digest([])
