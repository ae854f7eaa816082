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
    ResultsDB,
    SweepConfig,
    SweepHub,
    SweepJournal,
    SweepRunner,
)
from repro.runner import journal as journal_module
from repro.runner.artifacts import atomic_write_text
from repro.runner.distributed.worker import WorkerDaemon
from repro.runner.journal import (
    HUB_FILE,
    RUNNER_FILE,
    incomplete_journals,
    read_journal,
    sweep_identity,
)
from repro.scenarios import Scenario
from sweep_support import SUBPROCESS_ENV, completions, submit

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
# SweepJournal: one crash-safe document class, two file roles
# --------------------------------------------------------------------------- #
def _configs(n=3):
    return [SweepConfig("testing.sleep_echo", {"value": i}) for i in range(n)]


def _canonicals(configs):
    return [config.canonical() for config in configs]


#: The two roles a journal serves -- (file name, identity key, restart
#: counter, role-specific fields) -- as the sweep runner and the hub write
#: them.  Tests of an assertion both roles share run it over each role.
JOURNAL_ROLES = {
    "runner": (RUNNER_FILE, "sweep_id", "resumed", {"events": None}),
    "hub": (HUB_FILE, "identity", "adopted", {"name": "t", "priority": 2}),
}


def _role_journal(role, directory, configs):
    """``role``'s journal of ``configs`` under ``directory``, its glob, and
    a ``begin(restart=False)`` writing that role's keys."""
    file_name, id_key, counter, fields = JOURNAL_ROLES[role]
    identity = sweep_identity(_canonicals(configs))
    journal = SweepJournal(directory / file_name.format(identity), id_key, identity)
    tasks = [{"index": index, "task": c.task} for index, c in enumerate(configs)]

    def begin(restart=False):
        return journal.begin(tasks, counter=counter, restart=restart, **fields)

    return journal, file_name.format("*"), begin


def _count_document_writes(monkeypatch):
    """The paths the journal module writes documents to, as it writes them."""
    writes = []

    def counting_write(path, text):
        writes.append(path)
        atomic_write_text(path, text)

    monkeypatch.setattr(journal_module, "atomic_write_text", counting_write)
    return writes


def _umask():
    mask = os.umask(0)
    os.umask(mask)
    return mask


class TestSweepJournal:
    def test_identity_depends_on_content_and_order(self):
        canonicals = _canonicals(_configs())
        assert sweep_identity(canonicals) == sweep_identity(list(canonicals))
        assert sweep_identity(canonicals) != sweep_identity(canonicals[::-1])
        assert sweep_identity(canonicals) != sweep_identity(canonicals[:2])

    def test_artifact_key_and_journal_identity_are_pinned(self, tmp_path):
        # Artifact and journal file names are these hashes: a change to
        # either breaks every cache and --resume already on disk.
        first = SweepConfig(
            "e3.trial", {"n": 48, "seed": 7, "scale": [1, 2.5], "name": "x"}
        )
        second = SweepConfig("testing.sleep_echo", {"value": 1})
        assert first.key() == "7d47c1542f28253f55d1"
        assert second.key() == "d88fbce9c56de7c03b6a"
        assert sweep_identity(_canonicals([first, second])) == "70dbe254cbdad15b"
        # The runner derives both from one canonical JSON per config.
        runner = SweepRunner(artifact_dir=tmp_path)
        runner.run([second])
        assert runner.last_journal_path.name == "sweep-c93a155a56a8e030.journal.json"
        assert (tmp_path / "testing.sleep_echo" / "d88fbce9c56de7c03b6a.json").is_file()

    def test_lifecycle(self, tmp_path):
        configs = _configs()
        runner_dir = tmp_path / "runner"
        runner_path = SweepJournal.for_sweep(runner_dir, _canonicals(configs)).path
        for role, (_, id_key, _, fields) in JOURNAL_ROLES.items():
            directory = tmp_path / role
            journal, pattern, begin = _role_journal(role, directory, configs)
            assert journal.load() is None
            assert begin() is None
            journal.mark_done(1)
            journal.mark_done(0, cached=True)
            # A fresh scan (a restarted hub) sees the interrupted sweep.
            (state,) = incomplete_journals(directory, pattern)
            assert state == journal.load()
            assert state[id_key] == journal.identity and state["total"] == 3
            assert state["done"] == [0, 1] and state["cached"] == [0]
            assert not state["complete"] and state["error"] is None
            assert [task["index"] for task in state["tasks"]] == [0, 1, 2]
            assert {key: state[key] for key in fields} == fields
            journal.mark_done(2)
            journal.finish(stats={"retries": 2}, events=[{"event": "lease-grant"}])
            state = journal.load()
            assert state["complete"] and state["done"] == [0, 1, 2]
            assert state["stats"] == {"retries": 2}
            assert state["events"] == [{"event": "lease-grant"}]
            # Completion removes it from the re-adoption set; the file stays.
            assert incomplete_journals(directory, pattern) == []
            assert journal.path.exists()
        assert runner_path.exists()

    def test_abort_records_error_and_stays_incomplete(self, tmp_path):
        for role in JOURNAL_ROLES:
            journal, pattern, begin = _role_journal(role, tmp_path, _configs())
            begin()
            journal.fail("BrokerError('boom')")
            state = journal.load()
            assert not state["complete"] and state["error"] == "BrokerError('boom')"
            # A failed sweep would only fail again: never re-adopted.
            assert incomplete_journals(tmp_path, pattern) == []

    def test_begin_resets_completions_and_counts_resumes(self, tmp_path):
        for role, (_, _, counter, _) in JOURNAL_ROLES.items():
            journal, pattern, begin = _role_journal(role, tmp_path, _configs())
            begin()
            journal.mark_done(0)
            prior = begin(restart=True)
            assert prior["done"] == [0]
            (state,) = incomplete_journals(tmp_path, pattern)
            # Re-verified against the store, not trusted.
            assert state["done"] == [] and state[counter] == 1
            begin(restart=True)
            assert journal.load()[counter] == 2
            begin()
            assert journal.load()[counter] == 0

    def test_corrupt_or_foreign_journal_reads_as_absent(self, tmp_path, capsys):
        for role, (file_name, id_key, _, _) in JOURNAL_ROLES.items():
            directory = tmp_path / role
            journal, pattern, begin = _role_journal(role, directory, _configs())
            begin()
            garbage = directory / file_name.format("garbage")
            garbage.write_text("{not json", encoding="utf-8")
            (state,) = incomplete_journals(directory, pattern)
            assert state[id_key] == journal.identity
            err = capsys.readouterr().err
            assert err.count("skipping unreadable state file") == 1
            assert str(garbage) in err
            assert SweepJournal(journal.path, id_key, "0" * 16).load() is None
            journal.path.write_text("{ truncated", encoding="utf-8")
            assert journal.load() is None
            assert incomplete_journals(directory, pattern) == []
            assert capsys.readouterr().err.count("skipping unreadable") == 2

    def test_flush_leaves_no_temp_files(self, tmp_path):
        for role in JOURNAL_ROLES:
            journal, _, begin = _role_journal(role, tmp_path, _configs())
            begin()
            for i in range(3):
                journal.mark_done(i)
            journal.finish()
        assert len(list(tmp_path.iterdir())) == 2
        assert [p.name for p in tmp_path.glob("*.tmp")] == []

    @pytest.mark.parametrize("role", JOURNAL_ROLES)
    @pytest.mark.parametrize("size", [3, 40])
    def test_completions_append_one_line_each(self, tmp_path, monkeypatch, role, size):
        # The document is written at begin and at finish, whatever the
        # sweep's size; each completion in between is one appended line.
        writes = _count_document_writes(monkeypatch)
        journal, _, begin = _role_journal(role, tmp_path, _configs(size))
        begin()
        inode = journal.path.stat().st_ino
        for index in range(size):
            journal.mark_done(index, cached=index % 2 == 0)
        assert writes == [journal.path]
        assert journal.path.stat().st_ino == inode
        assert len(journal.log_path.read_text(encoding="utf-8").splitlines()) == size
        state = journal.load()
        assert state["done"] == list(range(size))
        assert state["cached"] == list(range(0, size, 2))
        journal.finish()
        assert writes == [journal.path] * 2
        assert not journal.log_path.exists()
        on_disk = json.loads(journal.path.read_text(encoding="utf-8"))
        assert on_disk == journal.load()
        assert on_disk["complete"] and on_disk["done"] == list(range(size))

    @pytest.mark.parametrize("size", [3, 24])
    def test_runner_writes_its_journal_document_twice(self, tmp_path, monkeypatch, size):
        configs = _configs(size)
        SweepRunner(artifact_dir=tmp_path).run(configs[: size // 3])
        writes = _count_document_writes(monkeypatch)
        SweepRunner(artifact_dir=tmp_path).run(configs)
        journal = SweepJournal.for_sweep(tmp_path, _canonicals(configs))
        assert writes == [journal.path] * 2
        assert not journal.log_path.exists()
        state = journal.load()
        assert state["complete"] and state["done"] == list(range(size))
        assert state["cached"] == list(range(size // 3))

    @pytest.mark.parametrize("role", JOURNAL_ROLES)
    def test_a_torn_last_log_line_is_ignored(self, tmp_path, role):
        journal, pattern, begin = _role_journal(role, tmp_path, _configs())
        begin()
        journal.mark_done(0)
        journal.mark_done(2, cached=True)
        with journal.log_path.open("a", encoding="utf-8") as handle:
            handle.write('{"done": [1], "cach')
        state = journal.load()
        assert state["done"] == [0, 2] and state["cached"] == [2]
        assert incomplete_journals(tmp_path, pattern) == [state]

    @pytest.mark.parametrize("role", JOURNAL_ROLES)
    def test_fail_folds_the_log_into_the_document(self, tmp_path, role):
        journal, _, begin = _role_journal(role, tmp_path, _configs())
        begin()
        journal.mark_done(1, cached=True)
        journal.mark_done(0)
        journal.fail("BrokerError('boom')")
        assert not journal.log_path.exists()
        state = json.loads(journal.path.read_text(encoding="utf-8"))
        assert state["done"] == [0, 1] and state["cached"] == [1]
        assert state["error"] == "BrokerError('boom')" and not state["complete"]

    @pytest.mark.parametrize("role", JOURNAL_ROLES)
    def test_restart_empties_the_completion_state(self, tmp_path, role):
        journal, pattern, begin = _role_journal(role, tmp_path, _configs())
        begin()
        journal.mark_done(0, cached=True)
        journal.mark_done(1)
        prior = begin(restart=True)
        assert prior["done"] == [0, 1] and prior["cached"] == [0]
        assert not journal.log_path.exists()
        state = journal.load()
        assert state["done"] == [] and state["cached"] == []
        # A fresh scan (a restarted hub) agrees.
        assert incomplete_journals(tmp_path, pattern) == [state]

    def test_concurrent_marks_lose_no_completion(self, tmp_path):
        # The hub marks completions from one thread per worker connection.
        configs = _configs(256)
        journal, _, begin = _role_journal("hub", tmp_path, configs)
        begin()

        def mark_lane(lane):
            for index in range(lane, 256, 16):
                journal.mark_done(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=mark_lane, args=(lane,)) for lane in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert journal.load()["done"] == list(range(256))

    @pytest.mark.parametrize("role", JOURNAL_ROLES)
    def test_journal_gets_the_umask_mode_like_artifacts(self, tmp_path, role):
        journal, _, begin = _role_journal(role, tmp_path, _configs())
        begin()
        journal.mark_done(0)
        artifact = ArtifactStore(tmp_path).store(_configs()[0], {"value": 0})
        expected = 0o666 & ~_umask()
        assert journal.path.stat().st_mode & 0o777 == expected
        assert artifact.stat().st_mode & 0o777 == expected

    def test_runner_reads_and_resumes_a_parent_format_journal(self, tmp_path, capsys):
        configs = _configs()
        sweep_id = sweep_identity(_canonicals(configs))
        # Exactly the key set the sweep runner's journal has always had.
        document = {
            "version": 1,
            "sweep_id": sweep_id,
            "created": "2026-01-01T00:00:00+00:00",
            "updated": "2026-01-01T00:00:05+00:00",
            "total": 3,
            "tasks": [
                {"index": index, "task": c.task, "key": c.key()}
                for index, c in enumerate(configs)
            ],
            "done": [0],
            "cached": [],
            "complete": False,
            "resumed": 0,
            "error": None,
            "stats": None,
            "events": None,
            "events_dropped": None,
            "faults": None,
        }
        path = tmp_path / f"sweep-{sweep_id}.journal.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        (record,) = ResultsDB(tmp_path).sweep_records()
        assert record["sweep"] == sweep_id and record["status"] == "resumable"
        assert (record["done"], record["total"], record["resumed"]) == (1, 3, 0)
        assert [task["key"] for task in record["tasks"]] == [c.key() for c in configs]

        runner = SweepRunner(artifact_dir=tmp_path, resume=True)
        assert runner.run(configs) == [{"value": 0}, {"value": 1}, {"value": 2}]
        assert "journal recorded 1/3 done" in capsys.readouterr().err
        state = json.loads(path.read_text(encoding="utf-8"))
        assert set(state) == set(document)
        assert state["complete"] and state["resumed"] == 1
        assert state["created"] == document["created"]
        assert state["tasks"] == document["tasks"]
        (record,) = ResultsDB(tmp_path).sweep_records()
        assert record["status"] == "done" and record["done"] == 3

    def test_hub_readopts_a_parent_format_state_file(self, tmp_path):
        configs = _configs()
        identity = sweep_identity(_canonicals(configs))
        # Exactly the key set the hub's state file has always had.
        document = {
            "version": 1,
            "identity": identity,
            "name": "tenant",
            "priority": 2,
            "force": False,
            "created": "2026-01-01T00:00:00+00:00",
            "updated": "2026-01-01T00:00:05+00:00",
            "total": 3,
            "tasks": [
                {
                    "index": index,
                    "task": c.task,
                    "params": c.params,
                    "module": "sweep_support",
                }
                for index, c in enumerate(configs)
            ],
            "done": [0, 1],
            "cached": [],
            "complete": False,
            "adopted": 0,
            "error": None,
        }
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        path = state_dir / f"hub-{identity}.state.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        store = ArtifactStore(tmp_path / "store")
        store.store(configs[1], {"value": 1})

        hub = SweepHub(store=store, state_dir=state_dir)
        (adopted,) = hub.adopt_journaled()
        assert adopted["identity"] == identity and adopted["name"] == "tenant"
        assert (adopted["total"], adopted["cached"]) == (3, 1)
        assert set(json.loads(path.read_text(encoding="utf-8"))) == set(document)
        # The prefill's completions sit in the log until the sweep ends;
        # every reader folds them in.
        state = read_journal(path)
        assert set(state) == set(document)
        # Done restarts from what the store backs, not from the old list.
        assert state["done"] == [1] and state["cached"] == [1]
        assert state["adopted"] == 1 and not state["complete"]
        assert state["created"] == document["created"]
        assert state["tasks"] == document["tasks"]
        assert (state["name"], state["priority"]) == ("tenant", 2)


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
        state = SweepJournal.for_sweep(tmp_path, _canonicals(configs)).load()
        assert state["complete"] and state["done"] == [0, 1, 2]
        assert state["tasks"][0]["key"] == configs[0].key()
        resumed = SweepRunner(artifact_dir=tmp_path, resume=True)
        out = resumed.run(configs)
        assert out == [{"value": 0}, {"value": 1}, {"value": 2}]
        assert resumed.last_cached == 3 and resumed.last_executed == 0
        assert "resuming sweep" in capsys.readouterr().err

    def test_resume_after_injected_broker_crash_matches_serial(self, tmp_path):
        configs = e3_benign.scenario_suite(sizes=(48,), trials=2, seed=0).compile()
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
        journal = SweepJournal.for_sweep(tmp_path, _canonicals(configs))
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
            (i, "testing.sleep_echo", {"value": i}, "sweep_support")
            for i in range(2)
        ]
        broker = Broker(
            injector=FaultInjector(FaultPlan(seed=0, crash_broker=1.0), salt="broker"),
        )
        sweep = submit(broker, items)
        with broker._lock:
            broker._mark_done_locked(broker._states[1])
        broker._on_result({"type": "result", "id": 0, "result": {"value": 0}, "meta": {}})
        assert isinstance(sweep.failure, InjectedBrokerCrash)
        with pytest.raises(InjectedBrokerCrash):
            list(completions(sweep))


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
        env=SUBPROCESS_ENV,
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
        journal = SweepJournal.for_sweep(
            artifacts, _canonicals(Scenario.from_dict(KILL_SCENARIO).compile())
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
        configs = e3_benign.scenario_suite(sizes=(48,), trials=2, seed=0).compile()
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
        state = SweepJournal.for_sweep(chaos_dir, _canonicals(configs)).load()
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
        state = SweepJournal.for_sweep(tmp_path, _canonicals(configs)).load()
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
