"""Mergeable user-aggregate execution over chunk streams.

A user aggregate is a state plus a lifecycle: per-chunk bracketing
(begin/end), accumulation over the chunk's valid cells, associative and
commutative merging of partial states, and a final terminate. Workers are
simulated: the caller's thread folds each worker's chunks in turn, but
state never crosses a worker boundary except as serialized bytes; the
per-edge byte traffic is recorded on the run and added to the current
meter, as is every chunk a user aggregate reads while it folds.
"""

from __future__ import annotations

import functools
import pickle
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .meter import record
from .model import DENSE, Chunk, frame_decode, frame_encode

# ---------------------------------------------------------------------------
# Cell batches
# ---------------------------------------------------------------------------


class CellBatch:
    """The valid cells of one chunk: global coordinates plus attribute
    columns, all equally sized numpy vectors.

    Built from given columns, or (``cell_batch``) from a chunk and its
    schema, in which case ``coords`` and ``columns`` are extracted on
    first access: a consumer that reads only ``chunk`` pays for neither.
    """

    def __init__(self, coords=None, columns=None, chunk: Chunk = None,
                 schema=None):
        if schema is None:
            self.coords = coords  # dim name -> int64 vector
            self.columns = columns  # attr name -> value vector
        self.chunk = chunk
        self._schema = schema

    @functools.cached_property
    def coords(self) -> dict:
        chunk = self.chunk
        if chunk.layout != DENSE:
            return dict(chunk.dim_columns)
        # Row-major over the box, the last dimension varying fastest.
        index = np.nonzero(chunk.validity.reshape(chunk.box.extents))
        return {d: (i + lo).astype(np.int64, copy=False) for d, i, lo
                in zip(self._schema.dim_names, index, chunk.box.lo)}

    @functools.cached_property
    def columns(self) -> dict:
        chunk = self.chunk
        if chunk.layout != DENSE:
            return dict(chunk.columns)
        return {name: col[chunk.validity]
                for name, col in chunk.columns.items()}

    def __len__(self):
        if self._schema is not None:
            return self.chunk.valid_count
        if self.coords:
            return len(next(iter(self.coords.values())))
        return len(next(iter(self.columns.values())))


def cell_batch(chunk: Chunk, schema) -> CellBatch:
    """The valid cells of a chunk as a batch, extracted lazily."""
    return CellBatch(chunk=chunk, schema=schema)


# ---------------------------------------------------------------------------
# The aggregate contract
# ---------------------------------------------------------------------------


class GLA:
    """Base class for user aggregates.

    ``local_merge`` must be associative and commutative up to result
    equality, and ``remote_merge(s, serialize(t))`` must equal
    ``local_merge(s, t)`` — the default implementations guarantee the
    latter. ``begin_chunk``/``end_chunk`` bracket every chunk exactly once
    on the state that folds it; ``end_chunk`` may return rows to
    materialize early.
    """

    def init(self):
        raise NotImplementedError

    def begin_chunk(self, state, chunk: Chunk):
        pass

    def accumulate(self, state, cells: CellBatch):
        raise NotImplementedError

    def end_chunk(self, state):
        return None

    def local_merge(self, a, b):
        raise NotImplementedError

    def serialize(self, state) -> bytes:
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    def remote_merge(self, state, payload: bytes):
        return self.local_merge(state, pickle.loads(payload))

    def terminate(self, state):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# The aggregate table
# ---------------------------------------------------------------------------


class _Entry:
    """One aggregate kind over grouped states. ``AGGREGATES`` maps each
    ``AggregateFn.kind`` to its entry; the built-in GLAs, REDUCE and
    APPLY_PLUS compute every aggregate through this table.

    An entry aggregates attribute ``attr`` of ``dtype``. ``init(n)`` is the
    identity state of ``n`` groups. ``accumulate(state, groups, cells)``
    folds cell ``i`` into group ``groups[i]`` and ``merge(state, groups,
    other)`` folds group ``i`` of ``other`` into group ``groups[i]``; both
    return the new state. ``finalize(state, counts)`` gives one value per
    group. ``serialize``/``deserialize`` convert a state to its wire form
    and back. Callers keep each group's cell count, which all aggregates
    over the same cells share; a group without cells has no value (a
    built-in GLA returns ``empty``). The dense window kernel folds grids of
    cells with ``ufunc`` from ``identity``; of the entries without one,
    ``dense`` ones need only the count.

    Numeric rule: count and count_distinct are exact. min and max stay in
    the input dtype and start from that dtype's identity (its integer
    limits, or -inf/+inf), so int64 never passes through float64. sum and
    avg accumulate in float64, in an order set by the chunking and, for
    APPLY_PLUS, the boundary, so float sums may associate differently
    between the two boundaries. Emptiness is decided by the count, never by
    the value: -inf and +inf are ordinary values, and a NaN makes its
    group's sum, avg, min and max NaN. A range predicate (``filter``,
    pruning) never matches NaN, so zone maps ignore NaN: a chunk's zone is
    the min and max of its non-NaN values, and the empty zone when it has
    none.
    """

    ufunc = None
    dense = False
    empty = None

    def __init__(self, attr=None, dtype=None, gla=None):
        self.attr = attr
        self.dtype = dtype
        self.gla = gla

    def serialize(self, state):
        return _pack(state)

    def deserialize(self, wire):
        return _unpack(wire)


def _pack(a):
    """An array (or None) as dtype, shape, raw bytes and frame: a few bytes
    of header where a pickled ndarray takes about 150. An int64 array goes
    through the frame codec (``model.frame_encode``), so its bytes are the
    narrow deltas and its frame their ``lo``; any other array is raw, with
    frame None."""
    if a is None:
        return None
    if a.dtype == np.int64:
        lo, deltas = frame_encode(a)
        return deltas.dtype.str, a.shape, deltas.tobytes(), lo
    return a.dtype.str, a.shape, a.tobytes(), None


def _unpack(wire):
    if wire is None:
        return None
    dtype, shape, raw, lo = wire
    a = np.frombuffer(raw, dtype).reshape(shape)
    return a.copy() if lo is None else frame_decode(lo, a)


class _Fold(_Entry):
    """One slot per group, folded by ``ufunc``; ``exact`` keeps the input
    dtype, otherwise the slots are float64."""

    dense = True
    exact = False

    def init(self, n):
        dtype = np.dtype(self.dtype if self.exact else np.float64)
        return np.full(n, self.identity(dtype), dtype)

    def accumulate(self, state, groups, cells):
        return self.merge(state, groups, cells.columns[self.attr].astype(
            state.dtype, copy=False))

    def merge(self, state, groups, other):
        with np.errstate(invalid="ignore"):  # inf + -inf is NaN, by the rule
            self.ufunc.at(state, groups, other)
        return state

    def finalize(self, state, counts):
        return state


class _Sum(_Fold):
    ufunc = np.add

    def identity(self, dtype):
        return 0


class _Avg(_Sum):
    def finalize(self, state, counts):
        return state / np.maximum(counts, 1)


class _Min(_Fold):
    ufunc = np.minimum
    exact = True

    def identity(self, dtype):
        return np.inf if dtype.kind == "f" else np.iinfo(dtype).max


class _Max(_Fold):
    ufunc = np.maximum
    exact = True

    def identity(self, dtype):
        return -np.inf if dtype.kind == "f" else np.iinfo(dtype).min


class _Count(_Entry):
    """Stateless: the value is the group's cell count."""

    dense = True
    empty = 0

    def init(self, n):
        return None

    def accumulate(self, state, groups, cells):
        return None

    def merge(self, state, groups, other):
        return None

    def finalize(self, state, counts):
        return counts


class _CountDistinct(_Entry):
    """The state is the sorted unique (group, value) rows, in the dtype
    that holds both."""

    empty = 0

    def init(self, n):
        return np.empty((0, 2), dtype=np.result_type(np.int64, self.dtype))

    def accumulate(self, state, groups, cells):
        return self._add(state, groups, cells.columns[self.attr])

    def merge(self, state, groups, other):
        return self._add(state, groups[other[:, 0].astype(np.intp)],
                         other[:, 1])

    def _add(self, state, groups, values):
        rows = np.column_stack([groups, values]).astype(state.dtype,
                                                         copy=False)
        return _unique_rows(np.concatenate([state, rows]))[0]

    def finalize(self, state, counts):
        return np.bincount(state[:, 0].astype(np.intp), minlength=len(counts))


class _User(_Entry):
    """The wrapped GLA, run once per group on that group's cells."""

    def init(self, n):
        return [self.gla.init() for _ in range(n)]

    def accumulate(self, state, groups, cells):
        order = np.argsort(groups, kind="stable")
        bounds = np.searchsorted(groups[order], np.arange(len(state) + 1))
        for g, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if hi > lo:
                idx = order[lo:hi]
                self.gla.accumulate(state[g], CellBatch(
                    {d: c[idx] for d, c in cells.coords.items()},
                    {a: c[idx] for a, c in cells.columns.items()},
                    cells.chunk))
        return state

    def merge(self, state, groups, other):
        for g, s in zip(groups.tolist(), other):
            state[g] = self.gla.local_merge(state[g], s)
        return state

    def serialize(self, state):
        return [self.gla.serialize(s) for s in state]

    def deserialize(self, wire):
        # By the GLA contract, remote_merge(init(), serialize(s)) equals s.
        return [self.gla.remote_merge(self.gla.init(), p) for p in wire]

    def finalize(self, state, counts):
        return np.fromiter((self.gla.terminate(s) for s in state),
                           dtype=object, count=len(state))


AGGREGATES = {"sum": _Sum, "count": _Count, "avg": _Avg, "min": _Min,
              "max": _Max, "count_distinct": _CountDistinct, "user": _User}


def _unique_rows(rows):
    """The sorted unique rows of a 2-D array, and the index of each input
    row among them."""
    if not rows.shape[1]:  # no key columns: one group
        return rows[:1], np.zeros(len(rows), dtype=np.intp)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


class GroupStates:
    """The table states of several aggregates over keyed groups.

    ``keys`` holds one int64 row per group, sorted and unique, or is None
    where the groups form a grid; ``counts`` holds the cells each group has
    seen, ``states`` one state per entry.
    """

    def __init__(self, entries, keys, counts, states):
        self.entries = entries
        self.keys = keys
        self.counts = counts
        self.states = states

    @classmethod
    def of_cells(cls, entries, keys, groups, cells):
        """Fold cell ``i`` of ``cells`` into the group keyed by row
        ``groups[i]`` of ``keys``."""
        counts = np.bincount(groups, minlength=len(keys))
        return cls(entries, keys, counts,
                   [e.accumulate(e.init(len(keys)), groups, cells)
                    for e in entries])

    @classmethod
    def union(cls, parts):
        """Merge the groups of equal key across ``parts``."""
        if len(parts) == 1:
            return parts[0]
        entries = parts[0].entries
        keys, inverse = _unique_rows(np.concatenate([p.keys for p in parts]))
        counts = np.zeros(len(keys), dtype=np.int64)
        np.add.at(counts, inverse, np.concatenate([p.counts for p in parts]))
        where = np.split(inverse, np.cumsum([len(p.keys) for p in parts])[:-1])
        states = []
        for i, e in enumerate(entries):
            s = e.init(len(keys))
            for p, w in zip(parts, where):
                s = e.merge(s, w, p.states[i])
            states.append(s)
        return cls(entries, keys, counts, states)

    def values(self):
        """One finalized value vector per entry."""
        return [e.finalize(s, self.counts)
                for e, s in zip(self.entries, self.states)]

    @staticmethod
    def dumps(parts) -> bytes:
        """The wire form of a list of GroupStates: their union, with each
        state serialized by its entry."""
        wire = []
        if parts:
            u = GroupStates.union(parts)
            wire.append((_pack(u.keys), _pack(u.counts),
                         [e.serialize(s) for e, s in zip(u.entries, u.states)]))
        return pickle.dumps(wire, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def loads(cls, entries, payload):
        """The list of GroupStates that ``dumps`` wrote."""
        return [cls(entries, _unpack(keys), _unpack(counts),
                    [e.deserialize(s) for e, s in zip(entries, states)])
                for keys, counts, states in pickle.loads(payload)]


# ---------------------------------------------------------------------------
# Built-in aggregates
# ---------------------------------------------------------------------------

class _BuiltinGLA(GLA):
    """One table entry over a single group. The state is typed by the first
    cells the aggregate sees; nothing else depends on the dtype."""

    kind = None

    def __init__(self, attr=None):
        self.attr = attr
        self.entry = AGGREGATES[self.kind](attr)

    def init(self):
        return [0, None]  # cell count, entry state

    def accumulate(self, state, cells):
        n = len(cells)
        if n:
            if not state[0]:
                dtype = cells.columns[self.attr].dtype if self.attr else None
                state[1] = AGGREGATES[self.kind](self.attr, dtype).init(1)
            state[0] += n
            state[1] = self.entry.accumulate(
                state[1], np.zeros(n, dtype=np.intp), cells)

    def local_merge(self, a, b):
        if not a[0]:
            return b
        if b[0]:
            a[0] += b[0]
            a[1] = self.entry.merge(a[1], np.zeros(1, dtype=np.intp), b[1])
        return a

    def terminate(self, state):
        if not state[0]:
            return self.entry.empty
        return self.entry.finalize(state[1], np.array([state[0]])).tolist()[0]


class SumGLA(_BuiltinGLA):
    kind = "sum"


class CountGLA(_BuiltinGLA):
    kind = "count"


class AvgGLA(_BuiltinGLA):
    kind = "avg"


class MinGLA(_BuiltinGLA):
    kind = "min"


class MaxGLA(_BuiltinGLA):
    kind = "max"


class CountDistinctGLA(_BuiltinGLA):
    kind = "count_distinct"


# ---------------------------------------------------------------------------
# Aggregation trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregationTree:
    """Worker -> parent edges with a single root."""

    n_workers: int
    parent: tuple  # parent[w] is the parent worker of w; parent[root] == -1
    root: int

    def __post_init__(self):
        if len(self.parent) != self.n_workers:
            raise ConfigError("parent vector length != n_workers")
        if not (0 <= self.root < self.n_workers):
            raise ConfigError("tree root out of range")
        if self.parent[self.root] != -1:
            raise ConfigError("root must have parent -1")
        # Every non-root worker must reach the root without cycles.
        for w in range(self.n_workers):
            seen = set()
            cur = w
            while cur != self.root:
                if cur in seen or not (0 <= cur < self.n_workers):
                    raise ConfigError("aggregation tree contains a cycle")
                seen.add(cur)
                cur = self.parent[cur]

    @classmethod
    def star(cls, n_workers: int, root: int = 0):
        parent = [root] * n_workers
        parent[root] = -1
        return cls(n_workers, tuple(parent), root)

    @classmethod
    def chain(cls, n_workers: int, root: int = 0):
        order = [root] + [w for w in range(n_workers) if w != root]
        parent = [0] * n_workers
        parent[order[0]] = -1
        for i in range(1, n_workers):
            parent[order[i]] = order[i - 1]
        return cls(n_workers, tuple(parent), root)

    @classmethod
    def balanced_binary(cls, n_workers: int, root: int = 0):
        order = [root] + [w for w in range(n_workers) if w != root]
        parent = [0] * n_workers
        parent[order[0]] = -1
        for i in range(1, n_workers):
            parent[order[i]] = order[(i - 1) // 2]
        return cls(n_workers, tuple(parent), root)

    def depth(self, w: int) -> int:
        d = 0
        while w != self.root:
            w = self.parent[w]
            d += 1
        return d


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class GLARun:
    """Result and instrumentation of one aggregate execution."""

    result: object = None
    materialized: list = field(default_factory=list)
    edge_bytes: dict = field(default_factory=dict)  # (child, parent) -> bytes

    @property
    def cross_worker_bytes(self) -> int:
        return sum(self.edge_bytes.values())


def _fold_worker(gla, schema, chunks, run):
    """Fold one worker's chunks, in order, into a single state."""
    state = gla.init()
    for chunk in chunks:
        gla.begin_chunk(state, chunk)
        gla.accumulate(state, cell_batch(chunk, schema))
        rows = gla.end_chunk(state)
        if rows:
            run.materialized.extend(rows)
    return state


def _round_robin(chunks, n_workers):
    """Deal chunk ``i`` to worker ``i % n_workers``; workers without chunks
    are left out."""
    n = max(1, n_workers)
    return {w: chunks[w::n] for w in range(min(n, len(chunks)))}


def run_gla(catalog, name, chunk_ids, gla: GLA, tree: AggregationTree | None = None,
            columns=None, *, n_workers: int = 1) -> GLARun:
    """Execute an aggregate over the named chunks.

    The chunks are read in the caller's thread and dealt to ``n_workers``
    workers by list position. Each worker folds its chunks in order, then
    states ascend the tree as serialized bytes; terminate runs once at the
    root. The result is independent of chunk order and tree shape for any
    law-abiding aggregate.
    """
    chunks = [catalog.read(name, cid, columns=columns) for cid in chunk_ids]
    tree = tree or AggregationTree.balanced_binary(max(1, n_workers))
    return run_gla_chunks(catalog.entry(name).schema,
                          _round_robin(chunks, n_workers), gla, tree)


def run_gla_chunks(schema, chunks_by_worker: dict, gla: GLA,
                   tree: AggregationTree) -> GLARun:
    """Core executor over already-loaded chunks grouped by worker. The
    workers fold in the caller's thread, one after another in worker
    order."""
    run = GLARun()
    workers = sorted(chunks_by_worker)
    if any(w >= tree.n_workers for w in workers):
        raise ConfigError("aggregation tree does not cover all chunk owners")
    states = {w: _fold_worker(gla, schema, chunks_by_worker[w], run)
              for w in workers}

    # Ascend the tree: deepest workers first, each child shipping its state
    # to its parent as bytes. Workers without chunks may still appear as
    # relay points once a child merges into them.
    while any(w != tree.root for w in states):
        w = max((w for w in states if w != tree.root), key=tree.depth)
        parent = tree.parent[w]
        payload = gla.serialize(states[w])
        run.edge_bytes[(w, parent)] = run.edge_bytes.get((w, parent), 0) + len(payload)
        base = states[parent] if parent in states else gla.init()
        states[parent] = gla.remote_merge(base, payload)
        del states[w]

    root_state = states.get(tree.root, gla.init())
    run.result = gla.terminate(root_state)
    record(merge_bytes=run.cross_worker_bytes)
    return run

