"""Tests for chaos hardening: deterministic fault injection
(src/repro/runner/faults.py), the crash-safe sweep journal
(src/repro/runner/journal.py), resume semantics, backoff, and the
corrupt-artifact recovery path.

The equivalence tests follow the same pattern as tests/test_distributed.py:
real worker subprocesses against a real localhost broker, leasing tasks
registered in importable modules.  The property under test is *chaos
equivalence* -- a sweep executed under injected faults must produce results
and persisted artifacts byte-identical to the serial run -- not identical
fault timelines, which concurrency makes unreproducible across hosts.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import suppress
from pathlib import Path

import pytest

import repro.runner.testing  # noqa: F401  (registers testing.* sweep tasks)
from repro.cli import main
from repro.experiments import e3_benign
from repro.runner import (
    ArtifactStore,
    Backoff,
    Broker,
    BrokerError,
    DistributedBackend,
    FaultInjector,
    FaultPlan,
    InjectedBrokerCrash,
    InjectedFault,
    MISSING,
    SweepConfig,
    SweepHub,
    SweepJournal,
    SweepRunner,
)
from repro.runner.distributed.worker import WorkerDaemon
from repro.runner.journal import sweep_identity
from repro.scenarios import Scenario

#: tests/test_faults.py -> repository root (for subprocess cwd).
ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------------------- #
# FaultPlan
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_default_plan_is_inactive(self):
        assert not FaultPlan().active
        assert not FaultInjector(FaultPlan()).enabled
        assert not FaultInjector().enabled

    def test_any_positive_rate_activates(self):
        assert FaultPlan(drop_connection=0.01).active
        assert FaultPlan(crash_broker=1.0).active

    def test_round_trips_through_json(self):
        plan = FaultPlan(seed=3, crash_worker=0.25, slow_task=0.5, slow_s=0.1)
        document = json.loads(json.dumps(plan.to_dict()))
        assert FaultPlan.from_dict(document) == plan

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault plan field"):
            FaultPlan.from_dict({"crash_wroker": 0.5})

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_dict([1, 2])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": "zero"},
            {"seed": True},
            {"drop_connection": -0.1},
            {"crash_worker": 1.5},
            {"slow_s": -1.0},
            {"hang_s": float("inf")},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)


# --------------------------------------------------------------------------- #
# FaultInjector decision streams
# --------------------------------------------------------------------------- #
class _FakeSock:
    def __init__(self):
        self.sent = []
        self.closed = False

    def sendall(self, data):
        if self.closed:
            raise OSError("socket closed")
        self.sent.append(data)

    def close(self):
        self.closed = True


class TestFaultInjector:
    def _sequence(self, seed, salt, site="crash-worker", rate=0.3, n=50):
        injector = FaultInjector(FaultPlan(seed=seed, crash_worker=rate), salt=salt)
        return [injector.fires(site, rate) for _ in range(n)]

    def test_same_seed_and_salt_is_reproducible(self):
        assert self._sequence(1, "broker") == self._sequence(1, "broker")

    def test_different_salt_diverges(self):
        assert self._sequence(1, "worker-0") != self._sequence(1, "worker-1")

    def test_different_seed_diverges(self):
        assert self._sequence(1, "broker") != self._sequence(2, "broker")

    def test_rate_bounds(self):
        injector = FaultInjector(FaultPlan(seed=0, crash_worker=1.0), salt="w")
        assert all(injector.fires("site", 1.0) for _ in range(20))
        assert not any(injector.fires("site", 0.0) for _ in range(20))

    def test_injected_counts_per_site(self):
        injector = FaultInjector(FaultPlan(seed=0, crash_worker=1.0), salt="w")
        for _ in range(3):
            assert injector.crash_worker()
        assert injector.injected == {"crash-worker": 3}

    def test_disabled_injector_sends_directly(self):
        sock = _FakeSock()
        FaultInjector().send(sock, b"hello\n")
        assert sock.sent == [b"hello\n"] and not sock.closed

    def test_drop_connection_closes_and_raises_oserror(self):
        injector = FaultInjector(FaultPlan(seed=0, drop_connection=1.0), salt="w")
        sock = _FakeSock()
        with pytest.raises(InjectedFault):
            injector.send(sock, b"hello\n")
        assert sock.closed and sock.sent == []
        assert isinstance(InjectedFault("x"), OSError)

    def test_truncate_sends_prefix_then_drops(self):
        injector = FaultInjector(FaultPlan(seed=0, truncate_line=1.0), salt="w")
        sock = _FakeSock()
        with pytest.raises(InjectedFault):
            injector.send(sock, b"0123456789\n")
        assert sock.closed
        assert sock.sent == [b"01234"]

    def test_duplicate_sends_line_twice(self):
        injector = FaultInjector(FaultPlan(seed=0, duplicate_line=1.0), salt="w")
        sock = _FakeSock()
        injector.send(sock, b"hello\n")
        assert sock.sent == [b"hello\n", b"hello\n"] and not sock.closed


# --------------------------------------------------------------------------- #
# Backoff
# --------------------------------------------------------------------------- #
class TestBackoff:
    def test_exponential_growth_with_cap(self):
        backoff = Backoff(base_s=0.5, cap_s=4.0, factor=2.0, jitter=0.0)
        assert [backoff.next_delay() for _ in range(6)] == [
            0.5,
            1.0,
            2.0,
            4.0,
            4.0,
            4.0,
        ]
        assert backoff.attempts == 6

    def test_reset_clears_the_streak(self):
        backoff = Backoff(base_s=0.5, cap_s=4.0, jitter=0.0)
        backoff.next_delay()
        backoff.next_delay()
        backoff.reset()
        assert backoff.attempts == 0
        assert backoff.next_delay() == 0.5

    def test_jitter_stays_in_bounds_and_is_seedable(self):
        a = Backoff(base_s=1.0, cap_s=8.0, jitter=0.25, seed=7)
        b = Backoff(base_s=1.0, cap_s=8.0, jitter=0.25, seed=7)
        delays = [a.next_delay() for _ in range(8)]
        assert delays == [b.next_delay() for _ in range(8)]
        for attempt, delay in enumerate(delays):
            ideal = min(8.0, 1.0 * 2.0**attempt)
            assert ideal * 0.75 <= delay <= ideal * 1.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_s": 0.0},
            {"base_s": 2.0, "cap_s": 1.0},
            {"factor": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            Backoff(**kwargs)


# --------------------------------------------------------------------------- #
# SweepJournal
# --------------------------------------------------------------------------- #
def _configs(n=3):
    return [SweepConfig("testing.sleep_echo", {"value": i}) for i in range(n)]


class TestSweepJournal:
    def test_identity_depends_on_content_and_order(self):
        configs = _configs()
        assert sweep_identity(configs) == sweep_identity(list(configs))
        assert sweep_identity(configs) != sweep_identity(configs[::-1])
        assert sweep_identity(configs) != sweep_identity(configs[:2])

    def test_lifecycle(self, tmp_path):
        configs = _configs()
        journal = SweepJournal.for_configs(tmp_path, configs)
        assert journal.load() is None
        assert journal.begin(configs) is None
        journal.mark_done(1)
        journal.mark_many([0], cached=True)
        state = journal.load()
        assert state["done"] == [0, 1] and state["cached"] == [0]
        assert not state["complete"] and state["error"] is None
        journal.finish(stats={"retries": 2}, events=[{"event": "lease-grant"}])
        state = journal.load()
        assert state["complete"]
        assert state["stats"] == {"retries": 2}
        assert state["events"] == [{"event": "lease-grant"}]
        assert state["tasks"][0]["key"] == configs[0].key()

    def test_abort_records_error_and_stays_incomplete(self, tmp_path):
        configs = _configs()
        journal = SweepJournal.for_configs(tmp_path, configs)
        journal.begin(configs)
        journal.abort("BrokerError('boom')")
        state = journal.load()
        assert not state["complete"] and "boom" in state["error"]
        assert SweepJournal.incomplete_in(tmp_path) == [journal.path]

    def test_begin_resets_completions_and_counts_resumes(self, tmp_path):
        configs = _configs()
        journal = SweepJournal.for_configs(tmp_path, configs)
        journal.begin(configs)
        journal.mark_done(0)
        prior = journal.begin(configs, resume=True)
        assert prior["done"] == [0]
        state = journal.load()
        assert state["done"] == [] and state["resumed"] == 1
        journal.begin(configs, resume=True)
        assert journal.load()["resumed"] == 2

    def test_corrupt_or_foreign_journal_reads_as_absent(self, tmp_path):
        configs = _configs()
        journal = SweepJournal.for_configs(tmp_path, configs)
        journal.begin(configs)
        journal.path.write_text("{ truncated", encoding="utf-8")
        assert journal.load() is None
        assert SweepJournal.incomplete_in(tmp_path) == []
        other = SweepJournal(journal.path, "0" * 16, len(configs))
        journal.begin(configs)
        assert other.load() is None

    def test_flush_leaves_no_temp_files(self, tmp_path):
        configs = _configs()
        journal = SweepJournal.for_configs(tmp_path, configs)
        journal.begin(configs)
        for i in range(3):
            journal.mark_done(i)
        assert [p.name for p in tmp_path.glob("*.tmp")] == []


# --------------------------------------------------------------------------- #
# Resume semantics
# --------------------------------------------------------------------------- #
class TestResume:
    def test_resume_requires_artifact_dir(self):
        with pytest.raises(ValueError, match="resume requires an artifact_dir"):
            SweepRunner(resume=True)

    def test_resume_conflicts_with_force(self, tmp_path):
        with pytest.raises(ValueError, match="contradictory"):
            SweepRunner(artifact_dir=tmp_path, resume=True, force=True)

    def test_cli_resume_requires_artifact_dir(self, tmp_path):
        spec = tmp_path / "spec.json"
        with pytest.raises(SystemExit, match="--resume requires --artifact-dir"):
            main(["scenario", "run", str(spec), "--resume"])

    def test_cli_fault_plan_requires_distributed(self, tmp_path):
        spec = tmp_path / "spec.json"
        with pytest.raises(SystemExit, match="--fault-plan"):
            main(["scenario", "run", str(spec), "--fault-plan", "{}"])

    def test_serial_run_maintains_a_complete_journal(self, tmp_path, capsys):
        configs = _configs()
        runner = SweepRunner(artifact_dir=tmp_path)
        runner.run(configs)
        state = SweepJournal.for_configs(tmp_path, configs).load()
        assert state["complete"] and state["done"] == [0, 1, 2]
        resumed = SweepRunner(artifact_dir=tmp_path, resume=True)
        out = resumed.run(configs)
        assert out == [{"value": 0}, {"value": 1}, {"value": 2}]
        assert resumed.last_cached == 3 and resumed.last_executed == 0
        assert "resuming sweep" in capsys.readouterr().err

    def test_resume_after_injected_broker_crash_matches_serial(self, tmp_path):
        configs = e3_benign.sweep_configs(sizes=(48,), trials=2, seed=0)
        serial = SweepRunner().run(configs)

        # crash_broker=1.0: the broker persists the first streamed result,
        # then dies before publishing it -- the nastiest crash point, where
        # only the artifact cache knows the truth.
        chaos = SweepRunner(
            artifact_dir=tmp_path,
            backend=DistributedBackend(
                spawn_workers=2,
                fault_plan=FaultPlan(seed=0, crash_broker=1.0),
                quiet=True,
            ),
        )
        with pytest.raises(InjectedBrokerCrash, match="--resume"):
            chaos.run(configs)
        journal = SweepJournal.for_configs(tmp_path, configs)
        state = journal.load()
        assert not state["complete"] and "InjectedBrokerCrash" in state["error"]
        persisted = [
            config
            for config in configs
            if ArtifactStore(tmp_path).load(config) is not MISSING
        ]
        assert persisted  # the crash happened after a persist

        resumed = SweepRunner(artifact_dir=tmp_path, resume=True)
        assert resumed.run(configs) == serial
        assert resumed.last_cached >= len(persisted)
        state = journal.load()
        assert state["complete"] and state["resumed"] == 1
        assert len(state["done"]) == len(configs)

    def test_broker_crash_fails_a_sweep_whose_last_task_is_in_flight(self):
        # Two workers finish the last two tasks together: both are marked
        # done before the first result reaches the crash site, so no task
        # is outstanding, yet one completion is never published.
        items = [
            (i, "testing.sleep_echo", {"value": i}, "repro.runner.testing")
            for i in range(2)
        ]
        broker = Broker(
            items,
            injector=FaultInjector(FaultPlan(seed=0, crash_broker=1.0), salt="broker"),
        )
        with broker._lock:
            broker._mark_done_locked(broker._states[1])
        broker._on_result({"type": "result", "id": 0, "result": {"value": 0}, "meta": {}})
        assert isinstance(broker._primary.failure, InjectedBrokerCrash)
        with pytest.raises(InjectedBrokerCrash):
            list(broker.results())


# --------------------------------------------------------------------------- #
# SIGKILL a real ``scenario run`` mid-sweep, then ``--resume`` it
# --------------------------------------------------------------------------- #
#: E3-style benign congest cells: seconds serially, enough of them that
#: the kill lands mid-sweep.
KILL_SCENARIO = {
    "name": "kill-resume-e3",
    "graph": {"name": "hnd", "params": {"n": 48, "degree": 8}, "seed_offset": 0},
    "adversary": {"name": "silent", "params": {}, "seed_offset": 0},
    "placement": {"name": "random", "params": {"count": 0}, "seed_offset": 0},
    "protocol": {"name": "congest", "params": {"d": 8}, "seed_offset": 0},
    "params": {},
    "seeds": list(range(10)),
}

#: Seeded chaos schedule of the loopback sweep.  ``crash_broker`` stays 0
#: (the test kills the broker for real, from outside) and ``slow_task`` is
#: 1.0, so every task sleeps and the kill lands with tasks still pending.
KILL_FAULT_PLAN = {
    "seed": 7,
    "drop_connection": 0.03,
    "truncate_line": 0.02,
    "duplicate_line": 0.05,
    "delay_line": 0.10,
    "delay_s": 0.05,
    "refuse_connect": 0.15,
    "crash_worker": 0.04,
    "hang_worker": 0.03,
    "hang_s": 2.5,
    "slow_task": 1.0,
    "slow_s": 0.35,
    "fail_artifact_write": 0.15,
}


@pytest.fixture
def hub_address(tmp_path):
    """An in-process hub persisting into ``tmp_path / "artifacts"``, with
    two in-thread workers whose every task sleeps 0.35 s (the loopback
    plan's pacing, so a kill after two completions lands mid-sweep)."""
    hub = SweepHub(store=ArtifactStore(tmp_path / "artifacts"))
    host, port = hub.start()
    pacing = FaultPlan(seed=0, slow_task=1.0, slow_s=0.35)
    daemons = [
        WorkerDaemon(host, port, injector=FaultInjector(pacing, salt=f"worker-{i}"))
        for i in range(2)
    ]
    threads = [threading.Thread(target=daemon.run, daemon=True) for daemon in daemons]
    for thread in threads:
        thread.start()
    try:
        yield f"{host}:{port}"
    finally:
        for daemon in daemons:
            daemon.stop()
        for thread in threads:
            thread.join(timeout=20)
        hub.stop()


def _scenario_run(spec, artifacts, flags, *, resume=False):
    """``scenario run`` as the leader of its own process group, so a kill
    of the group also takes the loopback workers it forks."""
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "scenario",
            "run",
            str(spec),
            "--artifact-dir",
            str(artifacts),
            *flags,
            *(["--resume"] if resume else []),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(ROOT),
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        start_new_session=True,
    )


def _kill_group(process):
    with suppress(ProcessLookupError):
        os.killpg(process.pid, signal.SIGKILL)
    process.communicate(timeout=10.0)


class TestSigkillResume:
    @pytest.mark.parametrize("mode", ["loopback", "connect"])
    def test_sigkilled_sweep_resumes_byte_identical_to_serial(
        self, mode, tmp_path, capsys, request
    ):
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(KILL_SCENARIO), encoding="utf-8")
        assert main(["scenario", "run", str(spec)]) == 0
        serial = capsys.readouterr().out
        if mode == "loopback":
            plan = tmp_path / "fault_plan.json"
            plan.write_text(json.dumps(KILL_FAULT_PLAN), encoding="utf-8")
            flags = [
                "--backend", "distributed", "--spawn-workers", "2",
                "--fault-plan", str(plan), "--lease-ttl", "2", "--max-retries", "10",
            ]
        else:
            flags = ["--connect", request.getfixturevalue("hub_address")]
        artifacts = tmp_path / "artifacts"
        journal = SweepJournal.for_configs(
            artifacts, Scenario.from_dict(KILL_SCENARIO).compile()
        )

        sweep = _scenario_run(spec, artifacts, flags)
        try:
            deadline = time.monotonic() + 120.0
            while len((journal.load() or {}).get("done", ())) < 2:
                assert sweep.poll() is None, sweep.communicate()[1][-2000:]
                assert time.monotonic() < deadline, "sweep journaled no progress"
                time.sleep(0.05)
        finally:
            _kill_group(sweep)
        assert not journal.load()["complete"]

        resumed = _scenario_run(spec, artifacts, flags, resume=True)
        try:
            out, err = resumed.communicate(timeout=150.0)
        finally:
            _kill_group(resumed)
        assert resumed.returncode == 0, err[-2000:]
        assert "resuming sweep" in err
        assert out.partition("[scenario]")[0] == serial
        state = journal.load()
        assert state["complete"] and state["resumed"] >= 1
        assert state["cached"], "resume re-executed every pre-kill task"
        if mode == "loopback":
            assert state["events"], "journal carries no broker events"


# --------------------------------------------------------------------------- #
# Chaos equivalence (the property test)
# --------------------------------------------------------------------------- #
#: Moderate everything-at-once schedule: wire faults, refused connects,
#: worker crashes, slowed tasks, artifact-write failures.  Durations are
#: tiny and hangs are off to keep the test fast; crash storms are absorbed
#: by the raised retry/respawn budgets.
CHAOS_RATES = dict(
    drop_connection=0.05,
    truncate_line=0.03,
    duplicate_line=0.05,
    delay_line=0.05,
    delay_s=0.01,
    refuse_connect=0.10,
    crash_worker=0.05,
    slow_task=0.2,
    slow_s=0.01,
    fail_artifact_write=0.10,
)


class TestChaosEquivalence:
    @pytest.mark.parametrize("plan_seed", [1, 2])
    def test_faulty_sweep_is_byte_identical_to_serial(self, tmp_path, plan_seed):
        configs = e3_benign.sweep_configs(sizes=(48,), trials=2, seed=0)
        serial_dir = tmp_path / "serial"
        chaos_dir = tmp_path / f"chaos-{plan_seed}"
        serial = SweepRunner(artifact_dir=serial_dir).run(configs)

        runner = SweepRunner(
            artifact_dir=chaos_dir,
            backend=DistributedBackend(
                spawn_workers=2,
                fault_plan=FaultPlan(seed=plan_seed, **CHAOS_RATES),
                max_retries=10,
                respawn_factor=8,
                quiet=True,
            ),
        )
        assert runner.run(configs) == serial

        def documents(directory):
            store = ArtifactStore(directory)
            docs = []
            for config in configs:
                document = json.loads(store.path_for(config).read_text())
                # meta legitimately differs (pids, hosts, wall-clocks);
                # config + result must be byte-identical.
                docs.append(
                    json.dumps(
                        {"config": document["config"], "result": document["result"]},
                        sort_keys=True,
                    )
                )
            return docs

        assert documents(serial_dir) == documents(chaos_dir)
        state = SweepJournal.for_configs(chaos_dir, configs).load()
        assert state["complete"] and len(state["done"]) == len(configs)


# --------------------------------------------------------------------------- #
# Broker telemetry surfaced through the runner
# --------------------------------------------------------------------------- #
class TestBrokerEvents:
    def test_events_reach_backend_runner_and_journal(self, tmp_path):
        configs = _configs(4)
        backend = DistributedBackend(spawn_workers=1, quiet=True)
        runner = SweepRunner(artifact_dir=tmp_path, backend=backend)
        runner.run(configs)
        kinds = {event["event"] for event in backend.last_events}
        assert {"worker-connect", "lease-grant"} <= kinds
        assert runner.last_events == backend.last_events
        for event in backend.last_events:
            assert isinstance(event["t"], float)
        state = SweepJournal.for_configs(tmp_path, configs).load()
        assert state["events"] == backend.last_events
        assert state["stats"] == backend.last_stats

    def test_dedupe_hits_are_logged(self, tmp_path):
        config = SweepConfig("testing.sleep_echo", {"value": 7, "sleep_s": 0.2})
        backend = DistributedBackend(spawn_workers=1, quiet=True)
        runner = SweepRunner(artifact_dir=tmp_path, backend=backend)
        runner.run([config, config])
        kinds = [event["event"] for event in backend.last_events]
        assert "dedupe-hit" in kinds


# --------------------------------------------------------------------------- #
# Worker backoff and give-up
# --------------------------------------------------------------------------- #
class TestWorkerGiveUp:
    def test_one_shot_worker_counts_attempts_not_wall_time(self):
        # Nothing listens on the target port: every connect fails fast, and
        # the give-up guard counts backoff attempts, so tiny delays make
        # the whole retry ladder sub-second.
        daemon = WorkerDaemon(
            "127.0.0.1",
            1,
            exit_when_drained=True,
            reconnect_delay_s=0.01,
            reconnect_max_s=0.02,
            giveup_attempts=3,
        )
        assert daemon.run() == 1
        assert daemon.connect_failures == 3

    def test_injected_connect_refusals_count_toward_give_up(self):
        injector = FaultInjector(FaultPlan(seed=0, refuse_connect=1.0), salt="w")
        daemon = WorkerDaemon(
            "127.0.0.1",
            1,
            exit_when_drained=True,
            reconnect_delay_s=0.01,
            reconnect_max_s=0.02,
            giveup_attempts=3,
            injector=injector,
        )
        assert daemon.run() == 1
        assert injector.injected["refuse-connect"] == 3

    def test_persistent_worker_has_no_give_up(self):
        daemon = WorkerDaemon(
            "127.0.0.1",
            1,
            exit_when_drained=False,
            reconnect_delay_s=0.01,
            reconnect_max_s=0.02,
            giveup_attempts=1,
        )
        import threading

        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        thread.join(timeout=0.3)
        assert thread.is_alive()  # still retrying, not given up
        daemon.stop()
        thread.join(timeout=2.0)
        assert not thread.is_alive()


# --------------------------------------------------------------------------- #
# Corrupt artifacts are warned-about cache misses
# --------------------------------------------------------------------------- #
class TestCorruptArtifacts:
    def test_truncated_artifact_warns_and_reexecutes(self, tmp_path, capsys):
        config = _configs(1)[0]
        store = ArtifactStore(tmp_path)
        path = store.store(config, {"value": 0})
        path.write_text('{"config": {}, "resu', encoding="utf-8")

        assert store.load(config) is MISSING
        err = capsys.readouterr().err
        assert "ignoring corrupt artifact" in err and "cache miss" in err

        runner = SweepRunner(artifact_dir=tmp_path)
        assert runner.run([config]) == [{"value": 0}]
        assert runner.last_executed == 1
        # The re-execution overwrote the corrupt file with a good one.
        fresh = ArtifactStore(tmp_path)
        assert fresh.load(config) == {"value": 0}

    def test_wrong_shape_document_warns(self, tmp_path, capsys):
        config = _configs(1)[0]
        store = ArtifactStore(tmp_path)
        path = store.store(config, {"value": 0})
        path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
        assert store.load(config) is MISSING
        assert store.load_meta(config) is None
        assert "not an artifact object" in capsys.readouterr().err

    def test_warning_is_deduplicated_per_path(self, tmp_path, capsys):
        config = _configs(1)[0]
        store = ArtifactStore(tmp_path)
        path = store.store(config, {"value": 0})
        path.write_text("{ nope", encoding="utf-8")
        assert store.load(config) is MISSING
        assert store.load_meta(config) is None
        assert store.load(config) is MISSING
        assert capsys.readouterr().err.count("ignoring corrupt artifact") == 1

    def test_missing_artifact_stays_silent(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path)
        assert store.load(_configs(1)[0]) is MISSING
        assert store.load_meta(_configs(1)[0]) is None
        assert capsys.readouterr().err == ""
