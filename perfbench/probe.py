"""Run-scoped counters and spans around calls into the engine's layers.

The probe wraps engine functions from the outside, where they are looked
up: every module of the ``arraybench`` package that holds a name bound to
the original function gets the wrapper instead (``workload``, ``algebra``
and ``stencil`` import ``run_gla_chunks`` and friends by name). Methods are
wrapped on their classes. ``uninstall`` puts every original back.

Counters are always on; they are exact and belong to the probe, not to the
process. Spans are recorded only while ``tracing`` is true. A span is
``(op, span_id, parent_id, name, t0, t1)``; spans opened on a thread other
than the client's (the thread that created the probe and calls the engine)
take the client's innermost open span as parent, because the engine's
simulated workers run while the client waits inside the call that started
them.
"""

from __future__ import annotations

import collections
import functools
import gzip
import inspect
import itertools
import json
import os
import sys
import threading
import time

from arraybench import algebra, expr, gla, model, plans, stencil, storage, \
    workload

# Span names whose self time the benchmark reports, in report order.
SPAN_LAYERS = (
    "storage.read_chunk", "storage.prune", "storage.write_chunk",
    "storage.manifest", "model.make_chunk",
    "algebra.rebox_stored", "algebra.reduce", "algebra.filter",
    "algebra.shift", "stencil.apply_plus",
    "gla.run", "gla.accumulate.GroupByGLA", "gla.accumulate.ApplyPlusGLA",
    "gla.merge", "gla.terminate",
    "workload.cook.kernel", "workload.cook.terminate",
    "workload.generate", "workload.group_cycle",
    "plans.parse_plan", "plans.execute_plan", "plans.result_digest",
    "expr.eval",
)
OP_SPAN = "bench.op"
CHECK_SPAN = "bench.check"

_GLA_METHODS = ("begin_chunk", "accumulate", "end_chunk", "local_merge",
                "serialize", "remote_merge", "terminate")
# The base class's other methods are no-ops or abstract.
_BASE_GLA_METHODS = ("serialize", "remote_merge")


def _gla_span(cls, method: str) -> str:
    if method in ("local_merge", "serialize", "remote_merge"):
        return "gla.merge"
    if cls is workload.CookGLA:
        return ("workload.cook.terminate" if method == "terminate"
                else "workload.cook.kernel")
    if method == "terminate":
        return "gla.terminate"
    return "gla.accumulate." + cls.__name__.lstrip("_")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Probe:
    """Counters and spans of one benchmark run."""

    def __init__(self):
        self.tracing = False
        self.op = None
        self.spans = []
        self.counts = collections.Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._client = threading.get_ident()
        self._client_stack = []
        self._local = threading.local()
        self._undo = []
        self._gla_active = 0

    # -- counters ---------------------------------------------------------

    def add(self, **amounts):
        with self._lock:
            for key, n in amounts.items():
                self.counts[key] += n

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.counts)

    def since(self, before: dict) -> dict:
        now = self.snapshot()
        return {k: v - before.get(k, 0) for k, v in now.items()}

    # -- spans ------------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._client:
            return self._client_stack, None
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        client = self._client_stack
        return stack, (client[-1] if client else 0)

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span when tracing; return its result."""
        if not self.tracing:
            return fn(*args, **kwargs)
        stack, fallback = self._stack()
        parent = stack[-1] if stack else (fallback or 0)
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((self.op, sid, parent, name, t0, t1))

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for op, sid, parent, name, t0, t1 in self.spans:
                f.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                    "name": name, "t0": t0, "t1": t1}))
                f.write("\n")

    # -- installation -----------------------------------------------------

    def _replace_function(self, fn, wrapper):
        found = False
        for mod_name in sorted(sys.modules):
            if mod_name != "arraybench" and \
                    not mod_name.startswith("arraybench."):
                continue
            mod = sys.modules[mod_name]
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"no module binds {fn.__qualname__}")

    def _replace_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _wrap(self, fn, name, after=None, before=None):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            out = probe.timed(name, fn, *args, **kwargs)
            if after is not None:
                after(out, args, kwargs, token)
            return out
        return wrapper

    def install(self):
        """Wrap the engine's layer boundaries. Call ``uninstall`` after."""
        if self._undo:
            raise RuntimeError("probe already installed")
        add = self.add

        def read_after(chunk, args, kwargs, _):
            add(read_calls=1, read_bytes=chunk.bytes_read,
                read_cells=chunk.cell_count)

        def write_after(nbytes, args, kwargs, _):
            add(write_bytes=nbytes)

        def manifest_after(_out, args, kwargs, _):
            catalog, name = args[0], args[1]
            add(manifest_bytes=os.path.getsize(
                catalog.data_dir / name / "manifest.txt"))

        def prune_after(kept, args, kwargs, _):
            add(prune_kept=len(kept), prune_total=len(args[0].chunk_index))

        def rebox_before(args, kwargs):
            with self._lock:
                return self.counts["read_cells"]

        def rebox_after(arr, args, kwargs, cells_before):
            with self._lock:
                decoded = self.counts["read_cells"] - cells_before
            add(rebox_cells_decoded=decoded,
                rebox_cells_returned=sum(c.cell_count for c in arr.chunks))

        def apply_plus_before(args, kwargs):
            add(apply_plus_cells_in=sum(c.cell_count
                                        for c in args[0].chunks))

        self._replace_function(storage.read_chunk, self._wrap(
            storage.read_chunk, "storage.read_chunk", read_after))
        self._replace_function(storage.write_chunk, self._wrap(
            storage.write_chunk, "storage.write_chunk", write_after))
        self._replace_function(storage.prune, self._wrap(
            storage.prune, "storage.prune", prune_after))
        self._replace_method(storage.Catalog, "_write_manifest", self._wrap(
            storage.Catalog._write_manifest, "storage.manifest",
            manifest_after))
        for fn in (model.make_dense_chunk, model.make_sparse_chunk):
            self._replace_function(fn, self._wrap(fn, "model.make_chunk"))
        self._replace_function(algebra.rebox_stored, self._wrap(
            algebra.rebox_stored, "algebra.rebox_stored", rebox_after,
            rebox_before))
        for fn in (algebra.reduce, algebra.filter, algebra.shift):
            self._replace_function(fn, self._wrap(
                fn, "algebra." + fn.__name__))
        self._replace_function(stencil.apply_plus, self._wrap(
            stencil.apply_plus, "stencil.apply_plus",
            before=apply_plus_before))
        self._replace_function(gla.run_gla_chunks,
                               self._gla_run_wrapper(gla.run_gla_chunks))
        self._replace_method(workload.Workload, "generate", self._wrap(
            workload.Workload.generate, "workload.generate"))
        self._replace_function(workload.group_cycle, self._wrap(
            workload.group_cycle, "workload.group_cycle"))
        for fn in (plans.parse_plan, plans.execute_plan, plans.result_digest):
            self._replace_function(fn, self._wrap(fn, "plans." + fn.__name__))
        self._replace_method(expr.Expr, "__call__", self._wrap(
            expr.Expr.__call__, "expr.eval"))
        for cls in [gla.GLA, *_subclasses(gla.GLA)]:
            methods = _BASE_GLA_METHODS if cls is gla.GLA else _GLA_METHODS
            for method in methods:
                if method in cls.__dict__:
                    self._replace_method(cls, method, self._gla_method(
                        cls.__dict__[method], _gla_span(cls, method),
                        method == "terminate"))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _gla_run_wrapper(self, fn):
        """``run_gla_chunks``: merge bytes from each returned ``GLARun``,
        chunks per worker from its arguments, and the count of runs seen."""
        signature = inspect.signature(fn)
        traced = self._wrap(fn, "gla.run")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            sizes = [len(c) for c in bound["chunks_by_worker"].values()]
            n_workers = bound["tree"].n_workers
            with self._lock:
                self._gla_active += 1
            try:
                run = traced(*args, **kwargs)
            finally:
                with self._lock:
                    self._gla_active -= 1
            self.add(gla_runs=1, merge_bytes=run.cross_worker_bytes,
                     fold_max_chunks=max(sizes, default=0),
                     fold_mean_chunks=sum(sizes) / n_workers)
            return run
        return wrapper

    def _gla_method(self, fn, name, is_terminate):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_terminate and probe._gla_active == 0:
                # A terminate outside every wrapped run_gla_chunks call
                # means an aggregate ran through an executor we missed.
                probe.add(gla_unseen_runs=1)
            return probe.timed(name, fn, *args, **kwargs)
        return wrapper


def attribute(spans) -> dict:
    """Wall-clock self time per span name over a set of spans.

    Sweeping the spans in time order, each instant goes to the innermost
    open spans (those with no open child), split evenly when several run
    at once on different threads. For nested spans on one thread this is
    the span's duration minus the time its children cover; the shares
    always sum to the time the spans cover, so nothing is counted twice.
    """
    parent_of = {}
    name_of = {}
    events = []
    for _op, sid, parent, name, t0, t1 in spans:
        parent_of[sid] = parent
        name_of[sid] = name
        events.append((t0, 1, sid))
        events.append((t1, 0, -sid))   # at equal times, ends go first,
    events.sort()                      # innermost (newest) end first
    out = collections.defaultdict(float)
    open_children = collections.Counter()
    active = set()
    leaves = set()
    prev = None
    for t, is_start, key in events:
        if leaves:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                out[name_of[leaf]] += share
        prev = t
        sid = key if is_start else -key
        parent = parent_of[sid]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return dict(out)
