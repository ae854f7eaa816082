"""Tests for the experiment drivers (tiny configurations) and the CLI."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import (
    e1_local_theorem1,
    e2_congest_theorem2,
    e3_benign,
    e4_impossibility,
    e5_treelike,
    e6_good_set,
    e7_baselines,
    e8_blacklist_ablation,
    e9_adversary_grid,
    e10_message_size,
    e11_estimate_distribution,
    e12_scaling,
)
from repro.experiments.common import ExperimentResult, mean_or_none, median_or_none


class TestCommon:
    def test_mean_and_median_ignore_none(self):
        assert mean_or_none([1.0, None, 3.0]) == 2.0
        assert median_or_none([None, None]) is None

    def test_experiment_result_render_and_column(self):
        result = ExperimentResult(experiment="EX", claim="claim")
        result.add_row(a=1, b=2)
        result.add_row(a=3)
        result.add_note("note")
        text = result.render()
        assert "EX" in text and "claim" in text and "note" in text
        assert result.column("a") == [1, 3]
        assert result.column("b") == [2, None]

    def test_registry_complete(self):
        assert set(ALL_EXPERIMENTS) == {f"e{i}" for i in range(1, 13)}

    def test_only_protocol_free_drivers_register_tasks(self):
        """Every driver that runs a protocol goes through ``scenario.run``;
        the tasks left in the experiment modules run no protocol."""
        from repro.runner import registered_tasks

        mine = {
            name
            for name, fn in registered_tasks().items()
            if fn.__module__.startswith("repro.experiments.")
        }
        assert mine == {"e4.glued", "e4.control", "e5.trial", "e6.trial"}


class TestExperimentDrivers:
    """Each driver runs on a tiny configuration and produces sensible rows."""

    def test_e1(self):
        result = e1_local_theorem1.run_experiment(sizes=(64,), trials=1)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["decided_fraction"] == 1.0
        assert row["fraction_in_band"] >= 0.9

    def test_e1_rejects_unknown_behaviour(self):
        with pytest.raises(ValueError):
            e1_local_theorem1.run_experiment(behaviour="nope")

    def test_e2(self):
        result = e2_congest_theorem2.run_experiment(sizes=(64,), trials=1)
        row = result.rows[0]
        assert row["goodtl_fraction_in_band"] >= 0.8
        assert row["small_message_fraction"] >= 0.9

    def test_e3(self):
        result = e3_benign.run_experiment(sizes=(64,), trials=1)
        row = result.rows[0]
        assert row["decided_fraction"] == 1.0
        assert row["max_estimate"] <= row["ceil_ln_n"] + 1
        assert row["quiescent_rate"] == 1.0

    def test_e4(self):
        result = e4_impossibility.run_experiment(
            base_n=32, copy_counts=(8,), num_trials=1, include_low_expansion_controls=False
        )
        row = result.rows[0]
        assert row["copies_isomorphic"] is True
        assert row["demonstrates_impossibility"] is True

    def test_e5(self):
        result = e5_treelike.run_experiment(sizes=(256,), degrees=(8,), trials=1)
        assert result.rows[0]["within_lemma_bound"] is True

    def test_e6(self):
        result = e6_good_set.run_experiment(sizes=(128,), placements=("random",), trials=1)
        row = result.rows[0]
        assert row["mean_good_fraction"] > 0.7

    def test_e7(self):
        result = e7_baselines.run_experiment(
            n=64, byzantine_counts=(0, 1), include_algorithm2=False
        )
        by_protocol = {}
        for row in result.rows:
            by_protocol.setdefault(row["protocol"], {})[row["byzantine"]] = row
        geo = by_protocol["geometric-max"]
        assert geo[0]["median_relative_error"] < 1.0
        assert geo[1]["median_relative_error"] > 10

    def test_e8(self):
        result = e8_blacklist_ablation.run_experiment(sizes=(64,), trials=1, num_byzantine=2)
        rows = {row["blacklist"]: row for row in result.rows}
        assert rows[True]["far_node_decided_fraction"] > rows[False]["far_node_decided_fraction"]

    def test_e9(self):
        result = e9_adversary_grid.run_experiment(
            n=64, placements=("random",), congest_byzantine=2
        )
        assert len(result.rows) == 3 + 4  # 3 local behaviours + 4 congest behaviours
        for row in result.rows:
            assert row["fraction_in_band"] >= 0.75

    def test_e10(self):
        result = e10_message_size.run_experiment(sizes=(64,))
        row = result.rows[0]
        assert row["congest_small_message_fraction"] == 1.0
        assert row["local_small_message_fraction"] < 0.5
        assert row["local_max_message_ids"] > row["congest_max_message_ids"]

    def test_e11(self):
        result = e11_estimate_distribution.run_experiment(sizes=(64,), trials=1)
        row = result.rows[0]
        assert row["max_value"] <= row["ceil_ln_n"] + 1
        assert row["spread_factor"] is None or row["spread_factor"] <= 3

    def test_e12(self):
        result = e12_scaling.run_experiment(
            local_sizes=(64, 128), congest_sizes=(64,), congest_byzantine_counts=(1,)
        )
        assert any("Algorithm 1 fit" in note for note in result.notes)
        assert any("Algorithm 2 fit" in note for note in result.notes)


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--n", "32", "--algorithm", "local"])
        assert args.n == 32

    def test_run_local_command(self, capsys):
        code = main(["run", "--algorithm", "local", "--n", "64", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "decided_fraction" in out

    def test_run_congest_with_adversary(self, capsys):
        code = main([
            "run", "--algorithm", "congest", "--n", "64", "--byzantine", "2",
            "--adversary", "beacon-flood", "--seed", "1", "--max-rounds", "400",
        ])
        assert code == 0
        assert "decided estimates" in capsys.readouterr().out

    def test_run_on_cycle_topology(self, capsys):
        code = main(["run", "--topology", "cycle", "--n", "32", "--max-rounds", "200"])
        assert code == 0

    def test_experiment_command_unknown(self, capsys):
        assert main(["experiment", "e99"]) == 2

    def test_experiment_is_an_alias_of_sweep(self):
        args = build_parser().parse_args(["experiment", "e3", "--workers", "2"])
        assert (args.command, args.name, args.workers) == ("sweep", "e3", 2)

    def test_closed_stdout_exits_1_without_traceback(self):
        # The read end closes before the child starts, so its first write
        # to stdout fails with EPIPE on every run.
        read_end, write_end = os.pipe()
        os.close(read_end)
        root = Path(__file__).resolve().parents[1]
        try:
            child = subprocess.run(
                [sys.executable, "-m", "repro.cli", "scenario", "list"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                cwd=str(root),
                env={**os.environ, "PYTHONPATH": str(root / "src")},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert child.returncode == 1
        assert "Traceback" not in child.stderr
        assert "BrokenPipeError" not in child.stderr

    def test_experiment_command_runs(self, capsys, monkeypatch):
        import repro.experiments.e5_treelike as e5

        monkeypatch.setitem(
            ALL_EXPERIMENTS, "e5", e5
        )
        # Patch the driver to a tiny configuration for test speed.
        original = e5.run_experiment
        monkeypatch.setattr(
            e5, "run_experiment", lambda **kw: original(sizes=(256,), degrees=(8,), trials=1)
        )
        assert main(["experiment", "e5"]) == 0
        assert "Lemma 2" in capsys.readouterr().out


class TestExamples:
    @pytest.mark.parametrize(
        "path",
        sorted((Path(__file__).parent.parent / "examples").glob("*.py")),
        ids=lambda path: path.name,
    )
    def test_example_imports(self, path):
        """Every example imports cleanly (without running ``main()``), so a
        renamed library import fails here rather than at the command line."""
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)
