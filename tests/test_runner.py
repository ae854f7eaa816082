"""Tests for the parallel sweep-runner subsystem (src/repro/runner/)."""

import json
import math

import pytest

from repro.cli import main
from repro.experiments import e3_benign, e12_scaling
from repro.runner import (
    MISSING,
    ArtifactStore,
    SweepConfig,
    SweepRunner,
    registered_tasks,
    resolve_task,
    run_task,
    sweep_task,
)


@sweep_task("test.echo")
def _echo_task(*, value, scale=1):
    """Trivial task used by the unit tests (fork workers inherit it)."""
    if isinstance(value, (int, float)):
        return value * scale
    return value


class TestSweepConfig:
    def test_key_is_stable_and_param_order_independent(self):
        a = SweepConfig("t", {"x": 1, "y": 2})
        b = SweepConfig("t", {"y": 2, "x": 1})
        assert a.key() == b.key()
        assert a.key() == SweepConfig("t", {"x": 1, "y": 2}).key()

    def test_key_differs_across_params_and_task(self):
        base = SweepConfig("t", {"x": 1})
        assert base.key() != SweepConfig("t", {"x": 2}).key()
        assert base.key() != SweepConfig("u", {"x": 1}).key()

    def test_non_json_params_rejected_at_hash_time(self):
        with pytest.raises(TypeError):
            SweepConfig("t", {"x": object()}).key()

    def test_non_finite_params_rejected_at_construction(self):
        # Regression: allow_nan used to smuggle NaN/Infinity tokens into
        # content hashes and artifact files as non-standard JSON.
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                SweepConfig("t", {"x": bad})
        with pytest.raises(ValueError, match=r"params\.outer\[1\]\.deep"):
            SweepConfig("t", {"outer": [1.0, {"deep": float("nan")}]})

    def test_canonical_json_rejects_non_finite(self):
        from repro.runner import canonical_json

        with pytest.raises(ValueError, match="NaN/Infinity"):
            canonical_json({"x": float("inf")})
        assert canonical_json({"b": 1, "a": [1.5, None]}) == '{"a":[1.5,null],"b":1}'


class TestRegistry:
    def test_registered_task_resolves(self):
        assert resolve_task("test.echo") is _echo_task
        assert run_task("test.echo", {"value": 3, "scale": 2}) == 6

    def test_unknown_task_raises_with_options(self):
        with pytest.raises(KeyError, match="unknown sweep task"):
            resolve_task("no.such.task")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            sweep_task("test.echo")(lambda: None)

    def test_experiment_tasks_resolve_lazily(self):
        # Resolving an experiment task by name alone must work (this is what
        # freshly spawned worker processes rely on).  The scenario-based
        # drivers all compile to the generic scenario.run task; E6 keeps a
        # driver-specific task.
        assert callable(resolve_task("scenario.run"))
        assert "e6.trial" in registered_tasks()


class TestArtifactStore:
    def test_store_and_load_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = SweepConfig("test.echo", {"value": 5})
        assert store.load(config) is MISSING
        path = store.store(config, {"answer": 5})
        assert path.exists()
        assert path.parent.name == "test.echo"
        assert path.stem == config.key()
        assert store.load(config) == {"answer": 5}

    def test_artifact_records_config(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = SweepConfig("test.echo", {"value": 7})
        path = store.store(config, 7)
        document = json.loads(path.read_text())
        assert document["config"] == {"task": "test.echo", "params": {"value": 7}}

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = SweepConfig("test.echo", {"value": 1})
        path = store.store(config, 1)
        path.write_text("{not json")
        assert store.load(config) is MISSING

    def test_none_result_is_not_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = SweepConfig("test.echo", {"value": None})
        store.store(config, None)
        assert store.load(config) is None

    def test_non_finite_floats_round_trip_as_strict_json(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = SweepConfig("test.echo", {"value": 2})
        inf = float("inf")
        result = {"median": inf, "low": -inf, "spread": float("nan"), "rows": [1.5, [inf]]}
        path = store.store(config, result, meta={"wall_clock_s": inf})

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        # RFC 8259: no bare NaN/Infinity tokens anywhere in the file.
        json.loads(path.read_text(), parse_constant=reject)
        loaded = store.load(config)
        assert list(loaded) == list(result)
        assert loaded["median"] == inf and loaded["low"] == -inf
        assert math.isnan(loaded["spread"])
        assert loaded["rows"] == [1.5, [inf]]
        assert store.load_meta(config) == {"wall_clock_s": inf}

    def test_finite_documents_stay_untagged(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = SweepConfig("test.echo", {"value": 3})
        path = store.store(config, {"median": 1.5})
        assert "__float__" not in path.read_text()
        assert store.load(config) == {"median": 1.5}

    def test_bare_infinity_artifact_still_loads(self, tmp_path):
        # Artifacts written before non-finite floats were tagged.
        store = ArtifactStore(tmp_path)
        config = SweepConfig("test.echo", {"value": 4})
        path = store.path_for(config)
        path.parent.mkdir(parents=True)
        document = {"config": {"task": config.task, "params": config.params},
                    "result": {"median": float("inf")}}
        path.write_text(json.dumps(document))
        assert "Infinity" in path.read_text()
        assert store.load(config) == {"median": float("inf")}

    def test_non_finite_cache_hit_equals_fresh_result(self, tmp_path):
        configs = [SweepConfig("test.echo", {"value": 1e308, "scale": 10}),
                   SweepConfig("test.echo", {"value": -1e308, "scale": 10})]
        runner = SweepRunner(artifact_dir=tmp_path)
        fresh = runner.run(configs)
        cached = runner.run(configs)
        assert runner.last_cached == 2
        assert fresh == cached == [float("inf"), float("-inf")]


class TestArtifactStoreConcurrency:
    def test_concurrent_writers_never_produce_torn_reads(self, tmp_path):
        """Hammer one artifact path from several threads while reading it:
        every read must see a complete document (the unique-temp-file +
        os.replace write makes torn or interleaved writes impossible)."""
        import threading

        store = ArtifactStore(tmp_path)
        config = SweepConfig("test.echo", {"value": 42})
        payload = {"rows": list(range(200))}
        errors = []

        def write(worker):
            for _ in range(30):
                store.store(config, payload, meta={"worker": worker})

        def read():
            for _ in range(200):
                loaded = store.load(config)
                if loaded is not MISSING and loaded != payload:
                    errors.append(loaded)

        threads = [threading.Thread(target=write, args=(i,)) for i in range(4)]
        threads += [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.load(config) == payload
        # No orphaned temp files once all writers finished.
        assert list((tmp_path / "test.echo").glob("*.tmp")) == []

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = SweepConfig("test.echo", {"value": 1})
        with pytest.raises(TypeError):
            store.store(config, object())
        assert list((tmp_path / "test.echo").glob("*")) == []


class TestProgressLine:
    """The sweep-level k/N progress line, unified across backends."""

    @staticmethod
    def _stderr_of(capsys):
        return capsys.readouterr().err

    def test_serial_progress_opt_in(self, capsys):
        # Regression: the line used to be silently pool-only; progress=True
        # must show it for workers=1 sweeps too.
        configs = [SweepConfig("test.echo", {"value": v}) for v in range(3)]
        SweepRunner(progress=True).run(configs)
        err = self._stderr_of(capsys)
        assert "[sweep] 3/3 tasks" in err
        assert "ETA" in err

    def test_progress_counts_cache_prefills(self, tmp_path, capsys):
        configs = [SweepConfig("test.echo", {"value": v}) for v in range(4)]
        SweepRunner(artifact_dir=tmp_path).run(configs[:3])
        capsys.readouterr()
        runner = SweepRunner(artifact_dir=tmp_path, progress=True)
        runner.run(configs)
        err = self._stderr_of(capsys)
        # k/N is honest: the final tick reports all 4 configs done, with the
        # 3 cache hits called out.
        assert "[sweep] 4/4 tasks (3 cached)" in err
        assert (runner.last_cached, runner.last_executed) == (3, 1)

    def test_progress_false_silences_parallel_sweeps(self, capsys):
        configs = [SweepConfig("test.echo", {"value": v}) for v in range(4)]
        SweepRunner(workers=2, progress=False).run(configs)
        assert "[sweep]" not in self._stderr_of(capsys)

    def test_progress_default_off_when_not_a_tty(self, capsys):
        configs = [SweepConfig("test.echo", {"value": v}) for v in range(3)]
        SweepRunner().run(configs)
        assert "[sweep]" not in self._stderr_of(capsys)


class TestSweepRunner:
    def test_results_in_config_order(self):
        configs = [SweepConfig("test.echo", {"value": v}) for v in (3, 1, 2)]
        assert SweepRunner().run(configs) == [3, 1, 2]

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)

    def test_results_canonicalized_like_json(self):
        # Tuples come back as lists whether computed fresh or read from an
        # artifact -- the runner normalizes both paths identically.
        configs = [SweepConfig("test.echo", {"value": [1, 2]})]
        assert SweepRunner().run(configs) == [[1, 2]]

    def test_results_share_their_key_strings(self, tmp_path):
        # A fresh result and one re-read from the artifact cache hold the
        # same key objects, nested dicts included.
        configs = [
            SweepConfig(
                "test.echo",
                {"value": {"decided_fraction": v, "stats": {"messages": v}}},
            )
            for v in range(2)
        ]
        SweepRunner(artifact_dir=tmp_path).run(configs[:1])
        first, second = SweepRunner(artifact_dir=tmp_path).run(configs)
        for a, b in ((first, second), (first["stats"], second["stats"])):
            assert list(a) == list(b)
            assert all(x is y for x, y in zip(a, b))

    def test_artifact_cache_hit_on_rerun(self, tmp_path):
        configs = [SweepConfig("test.echo", {"value": v}) for v in range(4)]
        runner = SweepRunner(artifact_dir=tmp_path)
        first = runner.run(configs)
        assert (runner.last_cached, runner.last_executed) == (0, 4)
        second = runner.run(configs)
        assert (runner.last_cached, runner.last_executed) == (4, 0)
        assert first == second

    def test_force_recomputes_despite_cache(self, tmp_path):
        configs = [SweepConfig("test.echo", {"value": 1})]
        SweepRunner(artifact_dir=tmp_path).run(configs)
        forced = SweepRunner(artifact_dir=tmp_path, force=True)
        assert forced.run(configs) == [1]
        assert (forced.last_cached, forced.last_executed) == (0, 1)

    def test_parallel_matches_serial(self):
        configs = [
            SweepConfig("test.echo", {"value": v, "scale": 3}) for v in range(6)
        ]
        assert SweepRunner(workers=3).run(configs) == SweepRunner().run(configs)

    def test_run_experiment_by_name(self):
        result = SweepRunner().run_experiment("e3", sizes=(64,), trials=1)
        assert result.experiment == "E3"
        with pytest.raises(KeyError):
            SweepRunner().run_experiment("e99")


class TestWorkerEquivalence:
    """workers=1 and workers>1 sweeps must produce identical tables."""

    @staticmethod
    def _rendered(result):
        return result.render()

    def test_e3_parallel_table_identical(self):
        kwargs = dict(sizes=(64, 128), trials=2, seed=0)
        serial = e3_benign.run_experiment(runner=SweepRunner(workers=1), **kwargs)
        parallel = e3_benign.run_experiment(runner=SweepRunner(workers=4), **kwargs)
        assert serial.rows == parallel.rows
        assert self._rendered(serial) == self._rendered(parallel)

    def test_e12_parallel_table_identical(self):
        kwargs = dict(
            local_sizes=(64, 128), congest_sizes=(64,), congest_byzantine_counts=(1, 2)
        )
        serial = e12_scaling.run_experiment(runner=SweepRunner(workers=1), **kwargs)
        parallel = e12_scaling.run_experiment(runner=SweepRunner(workers=4), **kwargs)
        assert serial.rows == parallel.rows
        assert serial.notes == parallel.notes
        assert self._rendered(serial) == self._rendered(parallel)

    def test_e3_cached_rerun_table_identical(self, tmp_path):
        kwargs = dict(sizes=(64,), trials=1, seed=0)
        fresh = e3_benign.run_experiment(
            runner=SweepRunner(workers=2, artifact_dir=tmp_path), **kwargs
        )
        rerun_runner = SweepRunner(workers=1, artifact_dir=tmp_path)
        cached = e3_benign.run_experiment(runner=rerun_runner, **kwargs)
        assert rerun_runner.last_executed == 0
        assert fresh.rows == cached.rows


class TestCliSweep:
    def test_sweep_unknown_experiment(self, capsys):
        assert main(["sweep", "e99"]) == 2

    def test_sweep_command_runs_with_artifacts(self, capsys, monkeypatch, tmp_path):
        import repro.experiments.e5_treelike as e5

        original = e5.run_experiment
        monkeypatch.setattr(
            e5,
            "run_experiment",
            lambda **kw: original(sizes=(256,), degrees=(8,), trials=1, **kw),
        )
        code = main(
            ["sweep", "e5", "--workers", "2", "--artifact-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Lemma 2" in out
        assert "executed -> artifacts in" in out
        # Second invocation is served from the artifact cache.
        assert main(["sweep", "e5", "--artifact-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 cached, 0 executed" in out
