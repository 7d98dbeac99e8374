"""The mergeable user-aggregate engine: lifecycle, laws, trees, traffic."""

import pickle

import numpy as np
import pytest

from arraybench import (
    AggregationTree,
    AvgGLA,
    Box,
    Catalog,
    CountDistinctGLA,
    CountGLA,
    GLA,
    MaxGLA,
    MinGLA,
    SumGLA,
    cell_batch,
    make_sparse_chunk,
    metered,
    run_gla,
    run_gla_chunks,
)
from arraybench.errors import ConfigError
from tests.conftest import KINDS, make_extreme_2d
from tests.test_storage import dense_schema, random_dense_chunk

ALL_AGGS = [lambda: SumGLA("v"), lambda: CountGLA(), lambda: AvgGLA("v"),
            lambda: MinGLA("v"), lambda: MaxGLA("v"),
            lambda: CountDistinctGLA("v")]


def make_chunks(rng, n=7):
    schema = dense_schema()
    return schema, [random_dense_chunk(rng) for _ in range(n)]


def oracle_values(schema, chunks, attr="v"):
    """Reference values computed with plain numpy over all valid cells."""
    cols = [cell_batch(c, schema).columns[attr] for c in chunks]
    v = np.concatenate(cols) if cols else np.empty(0, np.int64)
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN, as in the engine
        return {
            "sum": float(v.sum()) if len(v) else None,
            "count": sum(c.valid_count for c in chunks),
            "avg": float(v.mean()) if len(v) else None,
            "min": v.min().item() if len(v) else None,
            "max": v.max().item() if len(v) else None,
            "count_distinct": len(np.unique(v)),
        }


# The random "v" cases, then the extremes of make_extreme_2d: 2**53 + 1 in
# the int64 a0, -inf and +inf in the float64 a1.
ORACLE_CASES = [pytest.param(kind, "v", id=kind) for kind in KINDS] + \
    [pytest.param(kind, attr, id=f"{attr}-{kind}")
     for attr in ("a0", "a1") for kind in KINDS]


class TestCellBatch:
    def test_dense_batch_filters_invalid(self, rng):
        schema, chunks = make_chunks(rng, 1)
        batch = cell_batch(chunks[0], schema)
        assert len(batch) == chunks[0].valid_count
        # Coordinates point back at valid cells of the source grid.
        grid = chunks[0].columns["v"].reshape(chunks[0].box.extents)
        for i in range(min(len(batch), 20)):
            x, y = batch.coords["x"][i], batch.coords["y"][i]
            assert grid[x, y] == batch.columns["v"][i]

    def test_sparse_batch_is_all_cells(self, rng):
        from tests.test_storage import sparse_schema
        schema = sparse_schema()
        chunk = make_sparse_chunk(schema, schema.box,
                                  {"x": [1, 2], "y": [3, 4]}, {"v": [9, 8]})
        batch = cell_batch(chunk, schema)
        assert len(batch) == 2
        assert batch.coords["x"].tolist() == [1, 2]


class TestBuiltinsMatchOracle:
    @pytest.mark.parametrize("kind, attr", ORACLE_CASES)
    def test_values(self, rng, kind, attr):
        if attr == "v":
            schema, chunks = make_chunks(rng)
        else:
            arr, _, _ = make_extreme_2d(rng)
            schema, chunks = arr.schema, arr.chunks
        gla = {"sum": SumGLA, "avg": AvgGLA, "min": MinGLA, "max": MaxGLA,
               "count_distinct": CountDistinctGLA}.get(kind, CountGLA)(attr) \
            if kind != "count" else CountGLA()
        tree = AggregationTree.star(2)
        run = run_gla_chunks(schema, {0: chunks[::2], 1: chunks[1::2]},
                             gla, tree)
        expected = oracle_values(schema, chunks, attr)[kind]
        if kind == "avg" or (kind == "sum" and attr != "v"):
            assert run.result == pytest.approx(expected, rel=1e-12,
                                               nan_ok=True)
        else:
            assert run.result == expected

    def test_empty_input(self):
        schema = dense_schema()
        tree = AggregationTree.star(1)
        assert run_gla_chunks(schema, {}, SumGLA("v"), tree).result is None
        assert run_gla_chunks(schema, {}, CountGLA(), tree).result == 0
        assert run_gla_chunks(schema, {}, MinGLA("v"), tree).result is None
        assert run_gla_chunks(schema, {}, AvgGLA("v"), tree).result is None


class TestMergeLaws:
    @pytest.mark.parametrize("make", ALL_AGGS)
    def test_permutation_invariance(self, rng, make):
        schema, chunks = make_chunks(rng)
        tree = AggregationTree.star(1)
        base = run_gla_chunks(schema, {0: chunks}, make(), tree).result
        for seed in range(5):
            perm = list(np.random.default_rng(seed).permutation(len(chunks)))
            shuffled = [chunks[i] for i in perm]
            got = run_gla_chunks(schema, {0: shuffled}, make(), tree).result
            assert got == base

    @pytest.mark.parametrize("make", ALL_AGGS)
    def test_worker_count_invariance(self, rng, make):
        schema, chunks = make_chunks(rng)
        base = None
        for nw in (1, 2, 4, 8):
            by_worker = {w: chunks[w::nw] for w in range(nw) if chunks[w::nw]}
            tree = AggregationTree.balanced_binary(nw)
            got = run_gla_chunks(schema, by_worker, make(), tree).result
            if base is None:
                base = got
            assert got == base

    @pytest.mark.parametrize("make", ALL_AGGS)
    def test_tree_shape_invariance(self, rng, make):
        schema, chunks = make_chunks(rng)
        nw = 4
        by_worker = {w: chunks[w::nw] for w in range(nw) if chunks[w::nw]}
        results = []
        for build in (AggregationTree.star, AggregationTree.chain,
                      AggregationTree.balanced_binary):
            for root in (0, 2):
                tree = build(nw, root=root)
                results.append(run_gla_chunks(schema, by_worker, make(),
                                              tree).result)
        assert all(r == results[0] for r in results)

    @pytest.mark.parametrize("make", ALL_AGGS)
    def test_remote_merge_equals_local_merge(self, rng, make):
        """remote_merge(s, serialize(t)) == local_merge(s, t) on random
        states built by real accumulation."""
        schema, chunks = make_chunks(rng, 4)
        gla = make()

        def fold(chunk):
            s = gla.init()
            gla.begin_chunk(s, chunk)
            gla.accumulate(s, cell_batch(chunk, schema))
            gla.end_chunk(s)
            return s
        for i in range(len(chunks)):
            for j in range(len(chunks)):
                a = gla.local_merge(fold(chunks[i]), fold(chunks[j]))
                b = gla.remote_merge(fold(chunks[i]),
                                     gla.serialize(fold(chunks[j])))
                assert gla.terminate(a) == gla.terminate(b)


class TestLifecycle:
    def test_begin_end_bracket_every_chunk_once(self, rng):
        schema, chunks = make_chunks(rng, 5)
        events = []

        class Recorder(GLA):
            def init(self):
                return []

            def begin_chunk(self, state, chunk):
                events.append(("begin", chunk.chunk_id))

            def accumulate(self, state, cells):
                events.append(("acc", cells.chunk.chunk_id))

            def end_chunk(self, state):
                events.append(("end", None))
                return None

            def local_merge(self, a, b):
                return a + b

            def terminate(self, state):
                return None

        for i, c in enumerate(chunks):
            c.chunk_id = i
        run_gla_chunks(schema, {0: chunks}, Recorder(),
                       AggregationTree.star(1))
        begins = [e for e in events if e[0] == "begin"]
        ends = [e for e in events if e[0] == "end"]
        assert len(begins) == len(ends) == len(chunks)
        # Per chunk: begin, accumulate, end, in that order.
        assert [e[0] for e in events] == ["begin", "acc", "end"] * len(chunks)

    def test_materialized_rows_collected(self, rng):
        schema, chunks = make_chunks(rng, 3)

        class Emitter(CountGLA):
            def end_chunk(self, state):
                return [("row", state[0])]

        run = run_gla_chunks(schema, {0: chunks[:2], 1: chunks[2:]},
                             Emitter(), AggregationTree.star(2))
        assert len(run.materialized) == 3


class TestTrees:
    def test_shapes(self):
        star = AggregationTree.star(5)
        assert all(star.depth(w) <= 1 for w in range(5))
        chain = AggregationTree.chain(5)
        assert sorted(chain.depth(w) for w in range(5)) == [0, 1, 2, 3, 4]
        bb = AggregationTree.balanced_binary(7)
        assert max(bb.depth(w) for w in range(7)) == 2

    def test_rooted_elsewhere(self):
        t = AggregationTree.star(4, root=2)
        assert t.parent[2] == -1
        assert all(t.parent[w] == 2 for w in range(4) if w != 2)

    def test_invalid_trees_rejected(self):
        with pytest.raises(ConfigError):
            AggregationTree(2, (1, 0), 0)  # cycle, no -1 root
        with pytest.raises(ConfigError):
            AggregationTree(3, (-1, 0), 0)  # wrong length
        with pytest.raises(ConfigError):
            AggregationTree(2, (-1, -1), 0)  # second root unreachable

    def test_tree_must_cover_workers(self, rng):
        schema, chunks = make_chunks(rng, 3)
        with pytest.raises(ConfigError):
            run_gla_chunks(schema, {5: chunks}, CountGLA(),
                           AggregationTree.star(2))


class TestTraffic:
    def test_edge_bytes_match_serialized_sizes(self, rng):
        schema, chunks = make_chunks(rng, 6)
        gla = CountDistinctGLA("v")
        nw = 3
        by_worker = {w: chunks[w::nw] for w in range(nw)}
        tree = AggregationTree.chain(nw)
        run = run_gla_chunks(schema, by_worker, gla, tree)
        traffic = run.edge_bytes
        # One payload per non-root worker, along chain edges.
        assert set(traffic) == {(2, 1), (1, 0)}
        assert all(v > 0 for v in traffic.values())
        assert run.cross_worker_bytes == sum(traffic.values())
        # The deepest edge carries exactly that worker's serialized state.
        s = gla.init()
        for c in by_worker[2]:
            gla.accumulate(s, cell_batch(c, schema))
        assert traffic[(2, 1)] == len(gla.serialize(s))

    def test_single_worker_no_traffic(self, rng):
        schema, chunks = make_chunks(rng, 4)
        run = run_gla_chunks(schema, {0: chunks}, SumGLA("v"),
                             AggregationTree.star(1))
        assert run.cross_worker_bytes == 0

    def test_merge_bytes_reach_enclosing_meters(self, rng):
        schema, chunks = make_chunks(rng, 4)
        tree = AggregationTree.star(2)
        with metered() as outer:
            first = run_gla_chunks(schema, {0: chunks[:1], 1: chunks[1:]},
                                   SumGLA("v"), tree)
            with metered() as inner:
                second = run_gla_chunks(schema, {0: chunks[:2], 1: chunks[2:]},
                                        SumGLA("v"), tree)
            # The inner meter sees only its own run, and passes it out.
            assert inner.merge_bytes == second.cross_worker_bytes > 0
            assert outer.merge_bytes == \
                first.cross_worker_bytes + second.cross_worker_bytes
        with metered() as fresh:
            pass
        assert fresh.merge_bytes == 0

    def test_payloads_are_bytes(self, rng):
        """State crosses workers only as serialized bytes."""
        schema, chunks = make_chunks(rng, 2)

        class Spy(SumGLA):
            payloads = []

            def remote_merge(self, state, payload):
                assert isinstance(payload, bytes)
                Spy.payloads.append(payload)
                return super().remote_merge(state, payload)

        run_gla_chunks(schema, {0: chunks[:1], 1: chunks[1:]}, Spy("v"),
                       AggregationTree.star(2))
        assert Spy.payloads
        # Payloads are plain picklings of the partial state.
        assert isinstance(pickle.loads(Spy.payloads[0]), list)


class TestCatalogExecution:
    def _catalog(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        schema = dense_schema()
        cat.create_array(schema)
        chunks = [random_dense_chunk(rng) for _ in range(6)]
        cat.add_chunks("d", chunks)
        return cat, schema, chunks

    def test_run_gla_from_catalog(self, rng, tmp_path):
        cat, schema, chunks = self._catalog(rng, tmp_path)
        run = run_gla(cat, "d", range(6), CountGLA(), n_workers=3)
        assert run.result == sum(c.valid_count for c in chunks)
        # Three workers hold chunks; both non-root ones ship a state.
        assert set(run.edge_bytes) == {(1, 0), (2, 0)}

    def test_reads_made_while_folding_are_metered(self, rng, tmp_path):
        """A chunk a user aggregate reads inside ``accumulate`` counts in
        the caller's meter, like the chunks ``run_gla`` reads itself."""
        cat = Catalog(tmp_path)
        cat.create_array(dense_schema())
        cat.add_chunks("d", [random_dense_chunk(rng) for _ in range(4)])

        class RereadGLA(CountGLA):
            def accumulate(self, state, cells):
                cat.read("d", cells.chunk.chunk_id)
                return super().accumulate(state, cells)

        with metered() as meter:
            run_gla(cat, "d", range(4), RereadGLA(), n_workers=2)
        assert meter.chunks_read == 8
