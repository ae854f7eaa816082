"""Tests for the persistent benchmark harness and runner execution metadata."""

import json
from datetime import date

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

    def test_write_report_roundtrips_under_the_given_name(self, tmp_path):
        report = bench.run_bench(TINY[:1], repeats=1)
        path = bench.write_report(report, tmp_path, filename="BENCH_2000-01-01.json")
        assert path == tmp_path / "BENCH_2000-01-01.json"
        assert json.loads(path.read_text()) == report

    def test_same_day_reports_take_the_next_free_name(self, tmp_path, monkeypatch):
        class FixedDate:
            @staticmethod
            def today():
                return date(2000, 1, 1)

        monkeypatch.setattr(bench, "date", FixedDate)
        report = bench.run_bench(TINY[:1], repeats=1)
        first = bench.write_report(report, tmp_path)
        second = bench.write_report(report, tmp_path)
        assert first.name == "BENCH_2000-01-01.json"
        assert second.name == "BENCH_2000-01-01b.json"
        assert first.exists() and second.exists()

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
