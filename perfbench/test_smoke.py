"""Toy-scale smoke test of the benchmark, on a catalog like demos/04's.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())
SEED = 42


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric_and_matches_golden(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    *report, last = out.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        # The readable report names every metric with its unit too.
        assert any(line.split()[::2] == [m["name"], m["unit"]]
                   for line in report), m["name"]
    if not trace:
        failed = next(line for line in report
                      if line.split()[0] == "op_failed_frac")
        assert float(failed.split()[1]) == 0

    seen = json.loads((HERE / "out" /
                       f"digests-toy-{workload}-seed{SEED}.json").read_text())
    golden = set(GOLDEN["toy"][workload])
    assert seen and set(seen.values()) <= golden


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench(tmp_path, "raw-slab", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_self_time_sweep_splits_parallel_children():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from probe import attribute
    finally:
        del sys.path[:2]
    spans = [  # (op, id, parent, name, t0, t1)
        (0, 1, 0, "root", 0.0, 10.0),
        (0, 2, 1, "a", 1.0, 5.0),     # a and b overlap on two threads
        (0, 3, 1, "b", 3.0, 7.0),
        (0, 4, 2, "c", 1.0, 2.0),     # nested in a
    ]
    got = attribute(spans)
    assert got == pytest.approx({"root": 4.0, "a": 2.0, "b": 3.0, "c": 1.0})
    assert sum(got.values()) == pytest.approx(10.0)
