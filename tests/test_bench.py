"""Tests for the persistent benchmark harness and runner execution metadata."""

import json

import pytest

from repro.cli import main
from repro.runner import SweepConfig, SweepRunner, sweep_task
from repro.runner import bench


@sweep_task("test.bench-echo")
def _echo_task(*, value):
    """Trivial task for the runner-metadata tests (fork workers inherit it)."""
    return value


TINY = (
    bench.BenchScenario("tiny-local", "bench.local", {"n": 32, "degree": 4, "seed": 0}),
    bench.BenchScenario(
        "tiny-congest",
        "bench.congest",
        {"n": 32, "degree": 4, "num_byz": 1, "behaviour": "beacon-flood", "seed": 0},
    ),
)


class TestRunnerTaskMeta:
    def test_meta_recorded_per_task_and_in_artifact(self, tmp_path):
        runner = SweepRunner(artifact_dir=tmp_path)
        configs = [SweepConfig("test.bench-echo", {"value": v}) for v in (1, 2)]
        runner.run(configs)
        assert len(runner.last_metas) == 2
        for config, meta in zip(configs, runner.last_metas):
            assert meta is not None
            assert meta["wall_clock_s"] >= 0.0
            assert isinstance(meta["worker"], int)
            document = json.loads(runner.store.path_for(config).read_text())
            assert document["meta"]["wall_clock_s"] == pytest.approx(
                meta["wall_clock_s"]
            )
            assert runner.store.load_meta(config) == document["meta"]

    def test_cache_hits_have_no_meta(self, tmp_path):
        configs = [SweepConfig("test.bench-echo", {"value": 5})]
        SweepRunner(artifact_dir=tmp_path).run(configs)
        rerun = SweepRunner(artifact_dir=tmp_path)
        rerun.run(configs)
        assert rerun.last_executed == 0
        assert rerun.last_metas == [None]

    def test_parallel_run_records_meta_for_all(self):
        runner = SweepRunner(workers=2)
        configs = [SweepConfig("test.bench-echo", {"value": v}) for v in range(4)]
        runner.run(configs)
        assert all(m is not None for m in runner.last_metas)

    def test_progress_line_on_stderr(self, capsys):
        runner = SweepRunner(workers=2, progress=True)
        configs = [SweepConfig("test.bench-echo", {"value": v}) for v in range(4)]
        runner.run(configs)
        err = capsys.readouterr().err
        assert "4/4 tasks" in err and "ETA" in err

    def test_progress_silent_by_default_without_tty(self, capsys):
        runner = SweepRunner(workers=2)
        configs = [SweepConfig("test.bench-echo", {"value": v}) for v in range(3)]
        runner.run(configs)
        assert "ETA" not in capsys.readouterr().err


class TestRunBench:
    def test_report_shape_and_determinism(self):
        report = bench.run_bench(TINY, repeats=2)
        assert report["schema"] == bench.BENCH_SCHEMA_VERSION
        assert report["repeats"] == 2
        names = [row["name"] for row in report["scenarios"]]
        assert names == ["tiny-local", "tiny-congest"]
        for row in report["scenarios"]:
            assert row["wall_clock_s"] > 0
            assert len(row["wall_clock_all"]) == 2
            assert row["wall_clock_s"] == min(row["wall_clock_all"])
            assert set(row["result"]) >= {"rounds", "messages", "bits"}
            assert row["result"]["messages"] > 0

    def test_write_find_and_load_roundtrip(self, tmp_path):
        report = bench.run_bench(TINY[:1], repeats=1)
        older = bench.write_report(report, tmp_path, filename="BENCH_2000-01-01.json")
        newer = bench.write_report(report, tmp_path, filename="BENCH_2000-01-02.json")
        assert bench.load_report(newer)["scenarios"][0]["name"] == "tiny-local"
        assert bench.find_previous_report(tmp_path) == newer
        assert bench.find_previous_report(tmp_path, exclude=newer) == older
        assert bench.find_previous_report(tmp_path, exclude=None) == newer

    def test_loopback_row_runs_inside_a_pool_worker(self):
        # ``--workers N`` runs every row in a daemonic pool process, and a
        # loopback row must still start its worker daemons from there.
        (row,) = [s for s in bench.SCENARIOS if s.name == "scenario-e3-dist-loopback"]
        pooled = bench.run_bench([row], repeats=2, workers=2)
        serial = bench.run_bench([row], repeats=1)
        assert pooled["scenarios"][0]["result"] == serial["scenarios"][0]["result"]

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            bench.run_bench(TINY[:1], repeats=0)


def _report(rows):
    return {"schema": 1, "scenarios": rows}


def _row(name, wall, result=None):
    return {
        "name": name,
        "task": "t",
        "params": {},
        "wall_clock_s": wall,
        "wall_clock_all": [wall],
        "result": result if result is not None else {"rounds": 5, "messages": 10},
    }


class TestCompareReports:
    def test_statuses(self):
        previous = _report([_row("a", 1.0), _row("b", 1.0), _row("c", 1.0)])
        current = _report(
            [_row("a", 1.05), _row("b", 1.5), _row("c", 0.5), _row("d", 2.0)]
        )
        rows = bench.compare_reports(current, previous, threshold=0.10)
        by_name = {r["scenario"]: r["status"] for r in rows}
        assert by_name == {"a": "ok", "b": "regression", "c": "faster", "d": "new"}
        assert bench.comparison_failed(rows)

    def test_result_drift_is_a_failure(self):
        previous = _report([_row("a", 1.0, result={"rounds": 5, "messages": 10})])
        current = _report([_row("a", 1.0, result={"rounds": 6, "messages": 10})])
        rows = bench.compare_reports(current, previous)
        assert rows[0]["status"] == "result-drift"
        assert bench.comparison_failed(rows)

    def test_added_result_keys_are_not_drift(self):
        # A result that only gained keys (shared keys equal) is reported as
        # schema-added, which never fails; a regression still wins.
        base = {"rounds": 5, "messages": 10}
        grown = dict(base, churn_events=0, rounds_to_reconverge=None)
        previous = _report([_row("a", 1.0, result=base), _row("b", 1.0, result=base)])
        current = _report([_row("a", 1.0, result=grown), _row("b", 1.5, result=grown)])
        rows = bench.compare_reports(current, previous, threshold=0.10)
        assert [r["status"] for r in rows] == ["schema-added", "regression"]
        assert not bench.comparison_failed(rows[:1])
        # A changed shared key, or a dropped one, is still drift.
        for changed in (dict(grown, rounds=6), {"rounds": 5, "churn_events": 0}):
            current = _report([_row("a", 1.0, result=changed)])
            rows = bench.compare_reports(current, _report([_row("a", 1.0, result=base)]))
            assert rows[0]["status"] == "result-drift"
            assert bench.comparison_failed(rows)

    def test_clean_comparison_passes(self):
        previous = _report([_row("a", 1.0)])
        current = _report([_row("a", 0.95)])
        rows = bench.compare_reports(current, previous)
        assert rows[0]["status"] == "ok"
        assert not bench.comparison_failed(rows)
        assert "ok" in bench.render_comparison(rows)


class TestBenchCli:
    @pytest.fixture(autouse=True)
    def tiny_scenarios(self, monkeypatch):
        monkeypatch.setattr(bench, "SCENARIOS", TINY)
        monkeypatch.setattr(bench, "SMOKE_SCENARIOS", TINY[:1])

    def test_bench_writes_file_and_prints_table(self, tmp_path, capsys):
        code = main(
            ["bench", "--repeats", "1", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tiny-local" in out and "wrote" in out
        written = list(tmp_path.glob("BENCH_*.json"))
        assert len(written) == 1
        document = json.loads(written[0].read_text())
        assert document["schema"] == bench.BENCH_SCHEMA_VERSION

    def test_bench_compare_ok_and_regression_exit_codes(self, tmp_path, capsys):
        # Seed a slow "previous" trajectory entry, then compare: current run
        # is faster -> exit 0.
        report = bench.run_bench(TINY, repeats=1)
        for row in report["scenarios"]:
            row["wall_clock_s"] = row["wall_clock_s"] * 100
        bench.write_report(report, tmp_path, filename="BENCH_2000-01-01.json")
        code = main(
            [
                "bench",
                "--repeats",
                "1",
                "--output-dir",
                str(tmp_path),
                "--no-write",
                "--compare",
            ]
        )
        assert code == 0
        assert "faster" in capsys.readouterr().out

        # Now seed an absurdly fast previous entry -> regression -> exit 1.
        for row in report["scenarios"]:
            row["wall_clock_s"] = 1e-9
        bench.write_report(report, tmp_path, filename="BENCH_2000-01-02.json")
        code = main(
            [
                "bench",
                "--repeats",
                "1",
                "--output-dir",
                str(tmp_path),
                "--no-write",
                "--compare",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_same_day_rerun_compares_before_overwriting(self, tmp_path, capsys):
        # A same-day re-run overwrites BENCH_<today>.json; the baseline must
        # be read for comparison *before* the overwrite, or the regression
        # gate silently skips.
        code = main(["bench", "--repeats", "1", "--output-dir", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        todays = list(tmp_path.glob("BENCH_*.json"))
        assert len(todays) == 1
        document = json.loads(todays[0].read_text())
        for row in document["scenarios"]:
            row["wall_clock_s"] = 1e-9  # simulate a much faster baseline
        todays[0].write_text(json.dumps(document))
        code = main(
            ["bench", "--repeats", "1", "--output-dir", str(tmp_path), "--compare"]
        )
        out = capsys.readouterr().out
        assert code == 1, out
        assert "regression" in out

    def test_bench_compare_without_previous_is_ok(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--scenarios",
                "smoke",
                "--repeats",
                "1",
                "--output-dir",
                str(tmp_path),
                "--no-write",
                "--compare",
            ]
        )
        assert code == 0
        assert "no previous" in capsys.readouterr().out

    def test_output_name_overrides_dated_filename(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--repeats",
                "1",
                "--output-dir",
                str(tmp_path),
                "--output-name",
                "BENCH_2026-07-28b.json",
            ]
        )
        assert code == 0
        assert (tmp_path / "BENCH_2026-07-28b.json").exists()
        assert "BENCH_2026-07-28b.json" in capsys.readouterr().out

    def test_profile_writes_top25_report(self, tmp_path, capsys):
        profile_path = tmp_path / "profile_report.txt"
        code = main(
            [
                "bench",
                "--scenarios",
                "smoke",
                "--repeats",
                "1",
                "--no-write",
                "--profile",
                str(profile_path),
            ]
        )
        assert code == 0
        text = profile_path.read_text()
        assert "cumulative" in text
        assert "wrote profile report" in capsys.readouterr().out
