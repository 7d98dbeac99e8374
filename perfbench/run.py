"""arraybench benchmark: one closed-loop workload, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload raw-slab --seed 42 --seconds 20 \
        --trace 0

Workloads are ``ingest``, ``raw-slab`` and ``catalog-lookup`` (see
``workloads.py``). A run builds the catalog the workload reads (three times
with ``--trace 0``, reporting the median), runs ops for a few seconds to
warm up, then runs them again from the start, back to back, for
``--seconds`` seconds. Each
op's result is digested after its timer stops and compared with the
digest of its earlier repeats and, for the default seed, with
``golden.json``. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` each op runs
untraced and then traced, and the JSON carries the per-layer metrics.
The lines before it are a readable report. Spans and digests are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 42
SETUP_REPEATS = 3
WARMUP_SECONDS = 3.0
MIN_OPS = 100   # so that at least 10 latency samples lie beyond p90
MB = 1e6

# Metric names of the cooking spans' self times.
_SPAN_METRIC = {"workload.cook.kernel": "workload.cook.kernel_s",
                "workload.cook.terminate": "workload.cook.terminate_s"}
SETUP_LAYERS = ("workload.generate", "storage.write_chunk",
                "storage.manifest", "model.make_chunk", "storage.read_chunk",
                "workload.cook.kernel", "workload.cook.terminate",
                "workload.group_cycle")
KIND_P50 = tuple(f"q{i}" for i in range(1, 10)) + ("plan",)


def span_metric(layer: str) -> str:
    return _SPAN_METRIC.get(layer, layer + ".self_s")


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "raw-slab", "catalog-lookup"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("desk", "toy"), default="desk",
                        help="toy is a seconds-long catalog for smoke tests")
    return parser


def import_engine():
    """Import the engine from this checkout's sources, never from an
    installed copy."""
    src = ROOT / "src"
    if not (src / "arraybench" / "__init__.py").is_file():
        raise ImportError(f"no engine sources under {src}")
    sys.path.insert(0, str(src))
    import arraybench
    if Path(arraybench.__file__).resolve().parent != src / "arraybench":
        raise ImportError(f"arraybench imported from {arraybench.__file__}")


class Checker:
    """Digests each op result after its timer stops. Repeats of one
    configuration must agree; with golden digests, they must match too."""

    def __init__(self, digest, golden):
        self.digest = digest
        self.golden = golden
        self.seen = {}

    def check(self, op, value) -> bool:
        d = self.digest(op, value)
        first = self.seen.setdefault(op.key, d)
        if self.golden is not None and self.golden.get(op.key) != d:
            return False
        return d == first


class Loop:
    """The closed loop: one op at a time, timed, then checked."""

    def __init__(self, runner, probe, checker):
        from probe import CHECK_SPAN, OP_SPAN
        self.spans = (OP_SPAN, CHECK_SPAN)
        self.runner = runner
        self.probe = probe
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, op, op_id, traced=False):
        """Run one op; returns (seconds, counter deltas)."""
        op_span, check_span = self.spans
        probe = self.probe
        before = probe.snapshot()
        probe.op, probe.tracing = op_id, traced
        self.attempted += 1
        ok = False
        t0 = time.perf_counter()
        try:
            value = probe.timed(op_span, self.runner.run, op)
        except Exception:   # a failing op is counted; the loop goes on
            seconds = time.perf_counter() - t0
            self.errors.append(traceback.format_exc())
        else:
            seconds = time.perf_counter() - t0
            try:
                ok = probe.timed(check_span, self.checker.check, op,
                                 value)
            except Exception:
                self.errors.append(traceback.format_exc())
        probe.tracing = False
        if not ok:
            self.failed += 1
        return seconds, probe.since(before)


def percentile(values, q):
    """The q-th percentile, taken as the mean of the samples ranked from the
    (q-5)-th to the (q+5)-th percentile. A workload's ops form clusters, one
    per kind, and where q falls between two clusters the plain sample
    percentile jumps from one to the other between runs; this mean moves
    only as the samples do."""
    x = np.sort(np.asarray(values, dtype=float))
    n, p = len(x), q / 100
    lo = min(n - 1, max(0, round((p - 0.05) * n)))
    hi = max(lo + 1, min(n, round((p + 0.05) * n)))
    return float(x[lo:hi].mean())


def machine_facts(catalog_bytes, seed, scale):
    import scipy
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": len(os.sched_getaffinity(0)),
            "ram_gb": round(ram / 2**30, 1),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "catalog_bytes": catalog_bytes, "seed": seed, "scale": scale}


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def fsync_tree(path: Path):
    for p in path.rglob("*"):
        if p.is_file():
            fd = os.open(p, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def end_to_end(loop, lat, deltas, setup_times, setup_writes, workload):
    n = len(lat)
    read = sum(d.get("read_bytes", 0) for d in deltas)
    written = sum(d.get("write_bytes", 0) + d.get("manifest_bytes", 0)
                  for d in deltas)
    per_build = written / n if workload == "ingest" \
        else statistics.median(setup_writes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "read_mb_per_op": (read / n / MB, "MB"),
        "write_mb_per_build": (per_build / MB, "MB"),
    }
    # Printed in the report only: the first is 0 on a correct run and the
    # second is 0 on the query workloads, so neither can carry a bound.
    extra = {
        "op_failed_frac": (loop.failed / loop.attempted, "ratio"),
        "write_mb_per_op": (written / n / MB, "MB"),
        "op_samples": (n, "count"),
    }
    return metrics, extra


def per_layer(probe, pairs, setup_spans):
    from probe import CHECK_SPAN, OP_SPAN, SPAN_LAYERS, attribute
    by_op = {}
    for span in probe.spans:
        by_op.setdefault(span[0], []).append(span)
    known = set(SPAN_LAYERS) | {OP_SPAN, CHECK_SPAN}
    unknown = {s[3] for s in probe.spans} - known
    if unknown:
        raise RuntimeError(f"spans without a reported layer: {unknown}")

    traced = [p for p in pairs if p["op_id"] in by_op]
    n = len(traced)
    self_s = {}
    for p in traced:
        for name, s in attribute(by_op[p["op_id"]]).items():
            self_s[name] = self_s.get(name, 0.0) + s
    wall = sum(s[5] - s[4] for p in traced for s in by_op[p["op_id"]]
               if s[3] == OP_SPAN)
    covered = sum(v for k, v in self_s.items() if k != CHECK_SPAN)
    if abs(covered - wall) > 1e-6 * wall + 1e-9:
        raise RuntimeError(f"self times sum to {covered} s, not the "
                           f"traced op wall time {wall} s")
    setup_self = attribute(setup_spans) if setup_spans else {}

    counts = {}
    for p in traced:
        for k, v in p["traced_delta"].items():
            counts[k] = counts.get(k, 0) + v

    def ratio(a, b):
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    m = {}
    for layer in SPAN_LAYERS:
        m[span_metric(layer)] = (self_s.get(layer, 0.0) / n, "s")
    m["storage.read_chunk.calls"] = (counts.get("read_calls", 0) / n, "count")
    m["storage.read_chunk.bytes"] = (counts.get("read_bytes", 0) / n, "B")
    m["storage.cells_used_frac"] = (ratio("rebox_cells_returned",
                                          "rebox_cells_decoded"), "ratio")
    m["storage.prune.kept_frac"] = (ratio("prune_kept", "prune_total"),
                                    "ratio")
    m["storage.write_chunk.bytes"] = (counts.get("write_bytes", 0) / n, "B")
    m["stencil.apply_plus.cells_in"] = (
        counts.get("apply_plus_cells_in", 0) / n, "count")
    m["gla.merge.bytes"] = (counts.get("merge_bytes", 0) / n, "B")
    m["gla.fold.imbalance"] = (ratio("fold_max_chunks", "fold_mean_chunks"),
                               "ratio")
    for layer in SETUP_LAYERS:
        m["setup." + span_metric(layer)] = (setup_self.get(layer, 0.0), "s")
    for kind in KIND_P50:
        samples = [p["untraced_s"] for p in pairs
                   if p["kind"] == kind or
                   (kind == "plan" and p["kind"].startswith("plan_"))]
        name = ("plans.plan" if kind == "plan" else "workload." + kind)
        m[name + ".p50_ms"] = (percentile(samples, 50) * 1e3
                               if samples else 0.0, "ms")
    m["bench.check.self_s"] = (self_s.get(CHECK_SPAN, 0.0) / n, "s")
    m["bench.unattributed_frac"] = (self_s.get(OP_SPAN, 0.0) / wall, "ratio")
    untraced = sum(p["untraced_s"] for p in traced)
    m["bench.trace_overhead_frac"] = (
        (sum(p["traced_s"] for p in traced) - untraced) / untraced, "ratio")
    accounting = {"traced_ops": n, "gla_runs_seen": counts.get("gla_runs", 0),
                  "op_wall_s": wall,
                  "layer_self_s": covered - self_s.get(OP_SPAN, 0.0),
                  "unattributed_s": self_s.get(OP_SPAN, 0.0)}
    return m, accounting


def run(args) -> int:
    import probe as probe_mod
    import workloads

    cfg = workloads.catalog_config(args.workload, args.scale, args.seed)
    out_dir = HERE / "out"
    run_dir = out_dir / f"{args.workload}-{os.getpid()}"
    ops = workloads.make_ops(args.workload, cfg, args.seed)
    runner = workloads.Runner(args.workload, cfg, run_dir / "catalog")
    golden = None
    if args.seed == DEFAULT_SEED:
        # The digests of the default seed's op list, in list order.
        with open(HERE / "golden.json", encoding="utf-8") as f:
            digests = json.load(f)[args.scale][args.workload]
        if len(digests) != len(ops):
            raise RuntimeError(f"golden.json has {len(digests)} digests for "
                               f"{len(ops)} ops")
        golden = {op.key: d for op, d in zip(ops, digests)}
    probe = probe_mod.Probe()
    loop = Loop(runner, probe, Checker(runner.digest, golden))
    try:
        with probe:
            # Set-up: build the catalog from an empty directory.
            setup_times, setup_writes = [], []
            for _ in range(1 if args.trace else SETUP_REPEATS):
                runner.clear()
                before = probe.snapshot()
                probe.op, probe.tracing = "setup", bool(args.trace)
                t0 = time.perf_counter()
                probe.timed(probe_mod.OP_SPAN, runner.setup)
                setup_times.append(time.perf_counter() - t0)
                probe.tracing = False
                d = probe.since(before)
                setup_writes.append(d.get("write_bytes", 0)
                                    + d.get("manifest_bytes", 0))
            setup_spans = list(probe.spans)
            probe.spans.clear()
            catalog_bytes = dir_bytes(runner.data_dir)
            # Flush the catalog to disk now, so that the kernel's delayed
            # write-back of it does not run during the measured loop.
            t0 = time.perf_counter()
            fsync_tree(runner.data_dir)
            sync_s = time.perf_counter() - t0

            # Warm-up: the first ops of the list, checked but not measured;
            # the measured loop starts over, so these ops repeat in it.
            start = time.perf_counter()
            for op in ops:
                if time.perf_counter() - start >= WARMUP_SECONDS:
                    break
                loop.op(op, "warmup")

            lat, deltas, pairs = [], [], []
            i = 0
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds or \
                    (not args.trace and i < MIN_OPS):
                op = ops[i % len(ops)]
                if args.trace and i % 2:
                    # Alternate which of the pair runs first, so a cache the
                    # first run warms favours neither side.
                    traced_s, traced_delta = loop.op(op, i, traced=True)
                    seconds, delta = loop.op(op, i)
                elif args.trace:
                    seconds, delta = loop.op(op, i)
                    traced_s, traced_delta = loop.op(op, i, traced=True)
                else:
                    seconds, delta = loop.op(op, i)
                if args.trace:
                    pairs.append({"op_id": i, "kind": op.kind,
                                  "untraced_s": seconds, "traced_s": traced_s,
                                  "traced_delta": traced_delta})
                lat.append(seconds)
                deltas.append(delta)
                i += 1
            if probe.counts.get("gla_unseen_runs", 0):
                raise RuntimeError(
                    "an aggregate ran outside every wrapped run_gla_chunks")
    finally:
        runner.clear()
        try:
            run_dir.rmdir()
        except OSError:
            pass

    out_dir.mkdir(exist_ok=True)
    tag = f"{args.scale}-{args.workload}-seed{args.seed}"
    with open(out_dir / f"digests-{tag}.json", "w", encoding="utf-8") as f:
        json.dump(loop.checker.seen, f, indent=1, sort_keys=True)
    if args.trace:
        probe.spans[:0] = setup_spans
        probe.write_spans(out_dir / f"trace-{tag}.jsonl.gz")
        metrics, accounting = per_layer(probe, pairs, setup_spans)
        extra = {}
    else:
        metrics, extra = end_to_end(loop, lat, deltas, setup_times,
                                    setup_writes, args.workload)
        accounting = None

    facts = machine_facts(catalog_bytes, args.seed, args.scale)
    print(f"arraybench benchmark: workload={args.workload} trace={args.trace}"
          f" seconds={args.seconds:g}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("note: the catalog fits in the page cache, so read latency "
          "measures memory and CPU, not a disk")
    print(f"loop: single client, closed loop, n_workers="
          f"{workloads.N_WORKERS}, {len(ops)} op configurations, "
          f"kinds {','.join(workloads.WORKLOADS[args.workload])}")
    print(f"ops: attempted={loop.attempted} failed={loop.failed} "
          f"measured={len(lat)}; catalog flushed to disk in {sync_s:.2f} s "
          "before the loop")
    if accounting:
        print("accounting: " + " ".join(f"{k}={v:.6g}"
                                        for k, v in accounting.items()))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for err in loop.errors[:3]:
        print(err, file=sys.stderr)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Turn a termination request into an exit, so that the run's catalog
    # directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        import_engine()
    except ImportError as exc:
        print(f"error: cannot import the engine: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
