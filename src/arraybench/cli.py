"""Command-line entry point: benchmark orchestration and plan execution.

Phases run in order: load (generate raw data), cook, group, then queries
q1..q9. Each query runs over several seeded parameter configurations with
repeated executions, and the report carries summed per-configuration
average times plus order-independent result digests.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .errors import ConfigError, EngineError
from .meter import metered
from .plans import RunReport, StageMetrics, execute_plan, parse_plan, \
    result_digest
from .storage import Catalog
from .workload import BenchConfig, Workload

PHASES = ("load", "cook", "group",
          "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9")

PARAM_CONFIGS = 5
REPETITIONS = 10


def read_config_file(path) -> dict:
    """Flat ``key = value`` text; ``#`` starts a comment."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


# ---------------------------------------------------------------------------
# Query parameter randomization
# ---------------------------------------------------------------------------


def _query_params(cfg: BenchConfig, query: str, config_idx: int) -> dict:
    """Seeded random parameters for one (query, configuration) pair."""
    qi = int(query[1:])
    rng = np.random.default_rng((cfg.seed, qi, config_idx))
    g, dom = cfg.grid_extent, cfg.domain_extent
    out = {}
    if query in ("q1", "q2", "q3"):
        ext = int(rng.integers(g // 8, g // 4 + 1))
        x = int(rng.integers(0, g - ext))
        y = int(rng.integers(0, g - ext))
        if query == "q1":
            out = {"x1": x, "y1": y, "t1": ext, "u1": ext}
        elif query == "q2":
            t = cfg.cook_threshold
            out = {"x2": x, "y2": y, "t2": ext, "u2": ext,
                   "threshold": int(rng.integers(int(0.9 * t),
                                                 int(1.1 * t) + 1))}
        else:
            out = {"x1": x, "y1": y, "t3": ext, "u3": ext}
    else:
        w = int(rng.integers(dom // 16, dom // 4 + 1))
        gx = int(rng.integers(dom // 4, 3 * dom // 4 - w))
        gy = int(rng.integers(dom // 4, 3 * dom // 4 - w))
        if query == "q4":
            out = {"gx": gx, "gy": gy, "t2": w, "u2": w}
        else:
            out = {"gx": gx, "gy": gy, "w": w, "h": w}
            if query == "q6":
                out["d4"] = int(rng.integers(20, 61))
                out["d5"] = int(rng.integers(1, 4))
            if query in ("q8", "q9"):
                out["d6"] = int(rng.integers(5, 16))
    return out


# ---------------------------------------------------------------------------
# Benchmark orchestration
# ---------------------------------------------------------------------------


def _run_query_phase(workload: Workload, query: str,
                     param_configs: int, repetitions: int) -> StageMetrics:
    """Time every repetition; count reads and merges over each
    configuration's first one, whose results the others must reproduce."""
    cfg = workload.config
    fn = getattr(workload, query)
    total_seconds = 0.0
    chunks = bytes_read = merge = 0
    results = []
    for ci in range(param_configs):
        params = _query_params(cfg, query, ci)
        times = []
        config_digest = None
        for _ in range(repetitions):
            start = time.perf_counter()
            with metered() as meter:
                runs = [fn(cycle, **params) for cycle in range(cfg.n_cycles)]
            times.append(time.perf_counter() - start)
            rep_results = [value for value, _ in runs]
            if config_digest is None:
                config_digest = result_digest(rep_results)
                results.append(rep_results)
                chunks += meter.chunks_read
                bytes_read += meter.bytes_read
                merge += meter.merge_bytes
            elif result_digest(rep_results) != config_digest:
                raise EngineError(
                    f"{query}: nondeterministic result across repetitions")
        total_seconds += sum(times) / len(times)
    return StageMetrics(name=query, seconds=total_seconds,
                        chunks_read=chunks, bytes_read=bytes_read,
                        merge_bytes=merge,
                        digest=result_digest(results),
                        extra={"param_configs": param_configs,
                               "repetitions": repetitions})


def run_benchmark(config: BenchConfig, data_dir, phases=None,
                  param_configs: int = PARAM_CONFIGS,
                  repetitions: int = REPETITIONS) -> RunReport:
    """Execute the requested phases in order and report per-phase metrics."""
    phases = list(phases) if phases is not None else list(PHASES)
    for p in phases:
        if p not in PHASES:
            raise ConfigError(f"unknown phase {p!r}")
    phases.sort(key=PHASES.index)
    workload = Workload(config, data_dir)
    report = RunReport()
    for phase in phases:
        if phase == "load":
            start = time.perf_counter()
            workload.generate()
            n_chunks = len(workload.catalog.entry("images").chunk_index)
            report.stages.append(StageMetrics(
                name="load", seconds=time.perf_counter() - start,
                extra={"image_chunks": n_chunks}))
        elif phase == "cook":
            start = time.perf_counter()
            with metered() as meter:
                workload.cook()
            n_obs = sum(len(v) for v in workload.observations.values())
            report.stages.append(StageMetrics(
                name="cook", seconds=time.perf_counter() - start,
                merge_bytes=meter.merge_bytes,
                digest=result_digest(
                    [workload.observations[i]
                     for i in sorted(workload.observations)]),
                extra={"observations": n_obs}))
        elif phase == "group":
            start = time.perf_counter()
            workload.group()
            n_groups = sum(len(v) for v in workload.groups.values())
            rows = sorted((cyc, g.group_id, tuple(sorted(g.members)))
                          for cyc, gs in workload.groups.items() for g in gs)
            report.stages.append(StageMetrics(
                name="group", seconds=time.perf_counter() - start,
                digest=result_digest(rows),
                extra={"groups": n_groups}))
        else:
            report.stages.append(_run_query_phase(
                workload, phase, param_configs, repetitions))
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arraybench",
        description="Chunked-array engine benchmark driver")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--data-dir", default="./arraybench-data",
                        help="catalog directory")
    parser.add_argument("--workers", type=int, help="simulated worker count")
    parser.add_argument("--seed", type=int, help="global random seed")
    parser.add_argument("--phases",
                        help="comma-separated subset of: " + ",".join(PHASES))
    parser.add_argument("--plan", help="execute a plan-script file instead "
                        "of benchmark phases")
    parser.add_argument("--report", help="write metric\\tvalue lines here")
    parser.add_argument("--repetitions", type=int, default=REPETITIONS)
    parser.add_argument("--param-configs", type=int, default=PARAM_CONFIGS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        mapping = read_config_file(args.config) if args.config else {}
        if args.workers is not None:
            mapping["n_workers"] = args.workers
        if args.seed is not None:
            mapping["seed"] = args.seed
        config = BenchConfig.from_mapping(mapping)
        if args.plan:
            catalog = Catalog(args.data_dir)
            catalog.load()
            with open(args.plan, encoding="utf-8") as f:
                plan = parse_plan(f.read())
            result, report = execute_plan(plan, catalog,
                                          n_workers=config.n_workers)
        else:
            phases = args.phases.split(",") if args.phases else None
            report = run_benchmark(config, args.data_dir, phases,
                                   param_configs=args.param_configs,
                                   repetitions=args.repetitions)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.table(), end="")
    if args.report:
        report.write(args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
