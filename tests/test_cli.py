"""Command-line driver: config files, phase orchestration, reports."""

import numpy as np
import pytest

from arraybench.cli import (
    PARAM_CONFIGS,
    PHASES,
    REPETITIONS,
    _query_params,
    build_parser,
    main,
    read_config_file,
    run_benchmark,
)
from arraybench.errors import ConfigError, EngineError
from arraybench.meter import Meter
from arraybench.workload import PHASE_ARRAYS, BenchConfig, Workload
from tests.test_workload import SMALL, small_config


def write_small_config(path, **overrides):
    params = {**SMALL, **overrides}
    lines = ["# benchmark knobs"]
    lines += [f"{k} = {v}" for k, v in params.items()]
    path.write_text("\n".join(lines) + "\n")
    return params


class TestConfigFile:
    def test_parses_keys_comments_blanks(self, tmp_path):
        p = tmp_path / "bench.cfg"
        p.write_text("# header\n\nn_images = 4  # trailing\nseed=7\n")
        assert read_config_file(p) == {"n_images": "4", "seed": "7"}

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "bench.cfg"
        p.write_text("this has no equals sign\n")
        with pytest.raises(ConfigError):
            read_config_file(p)

    def test_from_mapping_types_and_unknown_key(self):
        cfg = BenchConfig.from_mapping({"n_images": "4", "cycle_size": "2",
                                        "grid_extent": "120",
                                        "domain_extent": "2000",
                                        "chunk_side": "40",
                                        "group_radius": "12.5"})
        assert cfg.n_images == 4 and cfg.group_radius == 12.5
        with pytest.raises(ConfigError):
            BenchConfig.from_mapping({"warp_factor": "9"})

    @pytest.mark.parametrize("key, raw", [("n_images", "eight"),
                                          ("seed", "4.5"),
                                          ("group_radius", "wide")])
    def test_from_mapping_bad_value_names_the_key(self, key, raw):
        with pytest.raises(ConfigError, match=f"{key}.*{raw}"):
            BenchConfig.from_mapping({key: raw})


class TestQueryParams:
    def test_seeded_and_reproducible(self):
        cfg = small_config()
        a = _query_params(cfg, "q1", 0)
        b = _query_params(cfg, "q1", 0)
        assert a == b
        assert _query_params(cfg, "q1", 1) != a

    def test_distinct_across_queries(self):
        cfg = small_config()
        assert _query_params(cfg, "q4", 0) != _query_params(cfg, "q5", 0)

    @pytest.mark.parametrize("query", [f"q{i}" for i in range(1, 10)])
    def test_in_domain(self, query):
        cfg = small_config()
        g, dom = cfg.grid_extent, cfg.domain_extent
        for ci in range(5):
            p = _query_params(cfg, query, ci)
            for key, v in p.items():
                assert isinstance(v, int)
                if key in ("x1", "y1", "x2", "y2"):
                    assert 0 <= v < g
                elif key in ("gx", "gy"):
                    assert 0 <= v < dom


class TestRunBenchmark:
    def test_phases_validated_and_ordered(self, tmp_path):
        cfg = small_config()
        with pytest.raises(ConfigError):
            run_benchmark(cfg, tmp_path / "d", phases=["warp"])
        report = run_benchmark(cfg, tmp_path / "d",
                               phases=["cook", "load"],
                               param_configs=1, repetitions=1)
        assert [s.name for s in report.stages] == ["load", "cook"]

    @pytest.mark.parametrize("kwargs", [dict(repetitions=0),
                                        dict(repetitions=-1),
                                        dict(param_configs=0)])
    def test_counts_below_one_rejected_before_any_phase(self, tmp_path,
                                                        kwargs):
        data_dir = tmp_path / "d"
        with pytest.raises(ConfigError, match="at least 1"):
            run_benchmark(small_config(), data_dir, phases=["load", "q1"],
                          **{"param_configs": 1, "repetitions": 1, **kwargs})
        assert not data_dir.exists()

    def test_full_small_run(self, tmp_path):
        report = run_benchmark(small_config(), tmp_path / "d",
                               param_configs=2, repetitions=2)
        assert [s.name for s in report.stages] == list(PHASES)
        for s in report.stages:
            if s.name.startswith("q"):
                assert s.digest
                assert s.extra == {"param_configs": 2, "repetitions": 2}
        assert report.stage("cook").extra["observations"] > 0
        assert report.stage("group").extra["groups"] > 0

    def test_digests_stable_across_runs_and_workers(self, tmp_path):
        kwargs = dict(param_configs=2, repetitions=1)
        r1 = run_benchmark(small_config(), tmp_path / "d1", **kwargs)
        r2 = run_benchmark(small_config(), tmp_path / "d2", **kwargs)
        r3 = run_benchmark(small_config(n_workers=1), tmp_path / "d3",
                           **kwargs)
        for s in r1.stages:
            if s.digest:
                assert r2.stage(s.name).digest == s.digest
                assert r3.stage(s.name).digest == s.digest

    def test_repetition_with_another_result_raises(self, tmp_path,
                                                   monkeypatch):
        n_cycles = small_config().n_cycles
        calls = []

        def q1(self, cycle, **params):
            calls.append(cycle)
            # The second repetition returns another value.
            return {"result": len(calls) > n_cycles}, Meter()
        monkeypatch.setattr(Workload, "q1", q1)
        with pytest.raises(EngineError, match="nondeterministic"):
            run_benchmark(small_config(), tmp_path, phases=["q1"],
                          param_configs=1, repetitions=2)
        assert len(calls) == 2 * n_cycles

    def test_counts_come_from_the_first_repetition(self, tmp_path):
        once = run_benchmark(small_config(), tmp_path, phases=["load", "q1"],
                             param_configs=1, repetitions=1).stage("q1")
        twice = run_benchmark(small_config(), tmp_path, phases=["q1"],
                              param_configs=1, repetitions=2).stage("q1")
        assert once.merge_bytes > 0
        assert (twice.chunks_read, twice.bytes_read, twice.merge_bytes) == \
            (once.chunks_read, once.bytes_read, once.merge_bytes)

    def test_build_phases_count_their_reads(self, tmp_path, monkeypatch):
        """load, cook and group report every chunk read and byte that
        storage.read_chunk returns during the phase."""
        from arraybench import storage
        read_chunk, reads = storage.read_chunk, []

        def counting(*args, **kwargs):
            chunk = read_chunk(*args, **kwargs)
            reads.append(chunk.bytes_read)
            return chunk
        monkeypatch.setattr(storage, "read_chunk", counting)
        for phase in ("load", "cook", "group"):
            reads.clear()
            stage = run_benchmark(small_config(), tmp_path, phases=[phase],
                                  param_configs=1, repetitions=1).stage(phase)
            assert (stage.chunks_read, stage.bytes_read) == \
                (len(reads), sum(reads))
            if phase != "load":
                assert stage.chunks_read > 0

    def test_build_phases_count_their_writes(self, tmp_path):
        """load, cook and group each report the summed size of the chunk
        files they wrote; a query writes nothing."""
        report = run_benchmark(small_config(), tmp_path,
                               phases=["load", "cook", "group", "q1"],
                               param_configs=1, repetitions=1)
        for phase, names in PHASE_ARRAYS.items():
            sizes = [p.stat().st_size for name in names
                     for p in (tmp_path / name).glob("*.chk")]
            assert report.stage(phase).bytes_written == sum(sizes) > 0
        assert report.stage("q1").bytes_written == 0
        assert "written" in report.table().splitlines()[0].split()
        assert "load.bytes_written\t%d" % report.stage("load").bytes_written \
            in report.metric_lines()

    def test_defaults_match_flags(self):
        assert PARAM_CONFIGS == 5 and REPETITIONS == 10


class TestMain:
    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["--config", "c", "--data-dir", "d", "--workers", "3",
             "--seed", "9", "--phases", "load,cook", "--report", "r",
             "--repetitions", "2", "--param-configs", "1"])
        assert args.workers == 3 and args.phases == "load,cook"

    def test_benchmark_invocation_writes_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.cfg"
        write_small_config(cfg_path)
        report_path = tmp_path / "metrics.txt"
        rc = main(["--config", str(cfg_path),
                   "--data-dir", str(tmp_path / "d"),
                   "--phases", "load,cook,group,q1",
                   "--repetitions", "1", "--param-configs", "1",
                   "--report", str(report_path)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "stage" in table and "q1" in table
        lines = report_path.read_text().splitlines()
        assert all("\t" in ln for ln in lines)
        metrics = dict(ln.split("\t", 1) for ln in lines)
        assert "q1.digest" in metrics
        assert int(metrics["q1.chunks_read"]) > 0

    def test_plan_invocation(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.cfg"
        write_small_config(cfg_path)
        data_dir = tmp_path / "d"
        assert main(["--config", str(cfg_path), "--data-dir", str(data_dir),
                     "--phases", "load"]) == 0
        plan_path = tmp_path / "q.plan"
        plan_path.write_text(
            "a = REBOX(array=images, img_id=0:0)\n"
            "b = REDUCE(agg=avg, attr=v1, out=m, in=a)\n")
        capsys.readouterr()
        rc = main(["--config", str(cfg_path), "--data-dir", str(data_dir),
                   "--plan", str(plan_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan" in out

    def test_q9_after_grouping_in_another_run(self, tmp_path, capsys):
        """q9 runs on a grouped data dir without grouping again."""
        cfg_path = tmp_path / "bench.cfg"
        write_small_config(cfg_path)
        common = ["--config", str(cfg_path), "--data-dir", str(tmp_path / "d")]
        assert main(common + ["--phases", "load,cook,group"]) == 0
        assert main(common + ["--phases", "q9", "--repetitions", "1",
                              "--param-configs", "1"]) == 0
        assert "q9" in capsys.readouterr().out

    def test_query_slab_in_config_file_rejected(self, tmp_path, capsys):
        """A slab is a query argument: a config file that sets one fails
        instead of running with the slab ignored."""
        cfg_path = tmp_path / "bench.cfg"
        write_small_config(cfg_path, x1=5)
        assert main(["--config", str(cfg_path),
                     "--data-dir", str(tmp_path / "d"),
                     "--phases", "load"]) == 1
        assert "unknown config key 'x1'" in capsys.readouterr().err

    def test_error_paths_return_one(self, tmp_path, capsys):
        # Unknown phase.
        assert main(["--phases", "warp",
                     "--data-dir", str(tmp_path / "d")]) == 1
        assert "error:" in capsys.readouterr().err
        # Query before its inputs exist.
        cfg_path = tmp_path / "bench.cfg"
        write_small_config(cfg_path)
        assert main(["--config", str(cfg_path),
                     "--data-dir", str(tmp_path / "empty"),
                     "--phases", "q1", "--repetitions", "1",
                     "--param-configs", "1"]) == 1
        assert "error:" in capsys.readouterr().err
        # Config line without "=".
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("n_images 4\n")
        assert main(["--config", str(bad_cfg),
                     "--data-dir", str(tmp_path / "d3")]) == 1
        assert "expected key = value" in capsys.readouterr().err
        # A value of the wrong type names its key.
        bad_cfg.write_text("n_images = eight\n")
        assert main(["--config", str(bad_cfg),
                     "--data-dir", str(tmp_path / "d5")]) == 1
        assert "'n_images'" in capsys.readouterr().err
        # No repetitions.
        assert main(["--config", str(cfg_path), "--phases", "q1",
                     "--data-dir", str(tmp_path / "d6"),
                     "--repetitions", "0"]) == 1
        assert "at least 1" in capsys.readouterr().err
        # Missing config file.
        assert main(["--config", str(tmp_path / "missing.cfg"),
                     "--data-dir", str(tmp_path / "d4")]) == 1
        assert "cannot read config file" in capsys.readouterr().err
        # Broken plan script.
        plan_path = tmp_path / "bad.plan"
        plan_path.write_text("a = NOPE(x=1)\n")
        assert main(["--data-dir", str(tmp_path / "d2"),
                     "--plan", str(plan_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "line 1" in err
        # Missing plan file.
        assert main(["--data-dir", str(tmp_path / "d2"),
                     "--plan", str(tmp_path / "missing.plan")]) == 1
        assert "cannot read plan file" in capsys.readouterr().err
