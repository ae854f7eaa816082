"""Tests for hub high availability (hub journal, re-adoption, self-healing
clients, admission control).

The flagship scenario (``TestHubSigkillRestart``) runs the hub as a
subprocess and SIGKILLs it mid-sweep while two tenant clients stream
results, then restarts it on the same port with the same ``--state``
directory: both clients must self-heal (reconnect + identity re-attach)
and finish with tables byte-identical to serial, and no task that already
has an artifact behind it may execute twice.

The hub runs as a *subprocess* here on purpose: an in-process hub sharing
the pytest process with a fork-context worker pool would leak its
listening socket into the forked children, keeping the port alive past
the crash -- a test-harness artifact real deployments (separate
processes) never see.

Unit-level coverage (state-file journaling, re-attach replay, admission
busy replies, heartbeats, crash-hub injection) runs in-process for
speed.
"""

import contextlib
import json
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.runner import (
    ArtifactStore,
    Backoff,
    BrokerError,
    DistributedBackend,
    FaultInjector,
    FaultPlan,
    SweepConfig,
    SweepHub,
    SweepJournal,
    SweepRunner,
)
from repro.runner.distributed.backend import spawn_loopback_worker, stop_workers
from repro.runner.distributed.protocol import (
    PROTOCOL_VERSION,
    read_message,
    reader_for,
    send_message,
)
from repro.runner.faults import CRASH_EXIT_CODE
from repro.runner.hub.client import HubSubmission
from repro.runner.journal import HUB_FILE, incomplete_journals, read_journal
from sweep_support import SUBPROCESS_ENV

#: tests/test_hub_ha.py -> repository root (for subprocess cwd).
ROOT = Path(__file__).resolve().parents[1]


def _items(values, *, sleep_s=0.0, start=0):
    """Hub work items (index, task, params, module) for ``testing.sleep_echo``."""
    params = lambda v: (  # noqa: E731
        {"value": v, "sleep_s": sleep_s} if sleep_s else {"value": v}
    )
    return [
        (start + offset, "testing.sleep_echo", params(value), "sweep_support")
        for offset, value in enumerate(values)
    ]


def _configs(values):
    return [SweepConfig("testing.sleep_echo", {"value": v}) for v in values]


@contextlib.contextmanager
def running_hub(root=None, **kwargs):
    store = ArtifactStore(root) if root is not None else None
    hub = SweepHub(store=store, **kwargs)
    address = hub.start()
    try:
        yield hub, address
    finally:
        if not hub.crashed.is_set():
            hub.stop()


@contextlib.contextmanager
def running_subprocess_worker(address, *, procs=1):
    """A persistent loopback worker subprocess attached to ``address``."""
    process = spawn_loopback_worker(address, procs=procs, exit_when_drained=False)
    try:
        yield process
    finally:
        stop_workers([process])


def _raw_submit(address, items, *, name=""):
    """Open a raw client connection and perform the submit handshake.

    Returns ``(sock, reader, ack)``; the caller owns the socket.
    """
    sock = socket.create_connection(address, timeout=10.0)
    sock.settimeout(10.0)
    send_message(
        sock,
        {
            "type": "submit",
            "protocol": PROTOCOL_VERSION,
            "name": name,
            "priority": 0,
            "force": False,
            "tasks": [
                {"id": index, "task": task, "params": params, "module": module}
                for index, task, params, module in items
            ],
        },
    )
    reader = reader_for(sock)
    return sock, reader, read_message(reader)


# --------------------------------------------------------------------------- #
# State-file journaling: the hub's journal format, re-adoption and
# submission ordering (the journal class itself is covered in
# tests/test_faults.py)
# --------------------------------------------------------------------------- #
def _state_file(state_dir):
    """The one state document, its completion log folded in."""
    (path,) = state_dir.glob("hub-*.state.json")
    return read_journal(path)


def _hub_journal(state_dir, identity, items, **fields):
    """Begin ``identity``'s journal with the keys and file name the hub uses."""
    journal = SweepJournal(
        state_dir / HUB_FILE.format(identity), "identity", identity
    )
    journal.begin(
        [
            {"index": index, "task": task, "params": params, "module": module}
            for index, task, params, module in items
        ],
        counter="adopted",
        **fields,
    )
    return journal


class TestHubJournal:
    def test_record_mark_and_readoption_roundtrip(self, tmp_path):
        journal = _hub_journal(
            tmp_path, "abc123", _items(range(3)), name="t", priority=2
        )
        journal.mark_done(0)
        journal.mark_done(1, cached=True)

        # The scan a restarted hub runs sees the interrupted sweep.
        (doc,) = incomplete_journals(tmp_path, HUB_FILE.format("*"))
        assert doc["identity"] == "abc123"
        assert doc["name"] == "t"
        assert doc["priority"] == 2
        assert doc["done"] == [0, 1]
        assert doc["cached"] == [1]
        assert doc["total"] == 3
        assert [t["index"] for t in doc["tasks"]] == [0, 1, 2]

        # Completion removes it from the re-adoption set; the file stays.
        journal.mark_done(2)
        journal.finish()
        assert incomplete_journals(tmp_path, HUB_FILE.format("*")) == []
        assert SweepHub(state_dir=tmp_path).adopt_journaled() == []
        assert journal.path.exists()

    def test_failed_sweeps_are_not_readopted(self, tmp_path):
        journal = _hub_journal(tmp_path, "dead", _items(range(2)))
        journal.fail("retries exhausted")
        assert SweepHub(state_dir=tmp_path).adopt_journaled() == []
        document = json.loads(journal.path.read_text(encoding="utf-8"))
        assert document["error"] == "retries exhausted"

    def test_adoption_resets_done_and_counts_restarts(self, tmp_path):
        journal = _hub_journal(tmp_path, "x", _items(range(2)))
        journal.mark_done(0)
        # Each restarted hub re-adopts the sweep and restarts its journal.
        (adopted,) = SweepHub(state_dir=tmp_path).adopt_journaled()
        assert adopted["identity"] == "x"
        doc = _state_file(tmp_path)
        assert doc["done"] == []  # re-verified against the store, not trusted
        assert doc["adopted"] == 1
        (adopted,) = SweepHub(state_dir=tmp_path).adopt_journaled()
        assert adopted["identity"] == "x"
        assert _state_file(tmp_path)["adopted"] == 2

    def test_unreadable_state_file_is_skipped_with_warning(self, tmp_path, capsys):
        _hub_journal(tmp_path, "ok", _items(range(1)))
        (tmp_path / "hub-garbage.state.json").write_text("{not json", "utf-8")
        (adopted,) = SweepHub(state_dir=tmp_path).adopt_journaled()
        assert adopted["identity"] == "ok"
        assert "skipping unreadable state file" in capsys.readouterr().err


class TestAdoption:
    def test_adopting_a_live_identity_keeps_its_journaled_done_list(self, tmp_path):
        state_dir = tmp_path / "state"
        _hub_journal(state_dir, "live", _items(range(3)))
        store = ArtifactStore(tmp_path / "store")
        store.store(_configs([0])[0], {"value": 0})
        hub = SweepHub(store=store, state_dir=state_dir)
        (adopted,) = hub.adopt_journaled()
        assert adopted["identity"] == "live" and adopted["cached"] == 1
        # The identity is live now; adopting again must leave its record.
        assert hub.adopt_journaled() == []
        doc = _state_file(state_dir)
        assert doc["done"] == [0]
        assert doc["adopted"] == 1
        assert hub.stats["adopted"] == 1

    def test_completion_racing_the_submission_is_journaled(self, tmp_path):
        """A task completed the instant its submission's lock hold ends --
        the earliest a worker's dispatch-time dedupe hit can land -- is in
        the state file, and completes it."""
        store = ArtifactStore(tmp_path / "store")
        store.store(_configs([5])[0], {"value": 5})
        state_dir = tmp_path / "state"
        hub = SweepHub(store=store, state_dir=state_dir)

        class CompleteOnRelease:
            """The hub's lock; the first release after a sweep registers
            completes every registered sweep from the store."""

            def __init__(self, lock):
                self.lock = lock
                self.fired = False

            def __enter__(self):
                self.lock.acquire()

            def __exit__(self, *exc_info):
                self.lock.release()
                if hub._queues and not self.fired:
                    self.fired = True
                    for sweep in list(hub._queues.values()):
                        hub.prefill_from_store(sweep)

        hub._lock = CompleteOnRelease(hub._lock)
        message = {
            "type": "submit",
            "protocol": PROTOCOL_VERSION,
            "tasks": [
                {"id": index, "task": task, "params": params, "module": module}
                for index, task, params, module in _items([5])
            ],
        }
        ours, theirs = socket.socketpair()
        with ours, theirs:
            theirs.settimeout(10.0)
            hub._serve_client(ours, None, message)
            reader = reader_for(theirs)
            kinds = [read_message(reader)["type"] for _ in range(3)]
        assert hub._lock.fired
        assert kinds == ["accepted", "result", "sweep-done"]
        doc = _state_file(state_dir)
        assert doc["done"] == [0] and doc["cached"] == [0]
        assert doc["complete"]


class TestIdentityReattach:
    def test_resubmitted_identity_replays_without_reexecution(self, tmp_path):
        with running_hub(tmp_path) as (hub, address):
            with running_subprocess_worker(address):
                first = HubSubmission(address, _items(range(4)))
                assert len(list(first)) == 4
                # Identical task list: the hub re-attaches to the finished
                # queue and replays its history; nothing executes again.
                second = HubSubmission(address, _items(range(4)))
                completed = list(second)
            assert second.reattached is True
            assert first.reattached is False
            assert hub.stats["reattached"] == 1
            assert hub.stats["completed"] == 4  # no second execution
        results = [None] * 4
        for index, result, _meta in completed:
            results[index] = result
        assert results == [{"value": v} for v in range(4)]

    def test_accepted_carries_identity_and_heartbeat(self, tmp_path):
        with running_hub(tmp_path, client_heartbeat_s=0.5) as (_hub, address):
            sock, _reader, ack = _raw_submit(address, _items(range(2)))
            sock.close()
        assert ack["type"] == "accepted"
        assert re.fullmatch(r"[0-9a-f]{16}", ack["identity"])
        assert ack["reattached"] is False
        assert ack["heartbeat_s"] == 0.5


# --------------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------------- #
class TestAdmissionControl:
    def test_busy_reply_past_capacity_and_reattach_bypass(self, tmp_path):
        # No workers: submitted tasks stay pending and hold the capacity.
        with running_hub(tmp_path, max_pending=4) as (hub, address):
            first_sock, _reader, ack = _raw_submit(address, _items(range(3)))
            assert ack["type"] == "accepted"
            # 3 pending + 3 more would exceed 4: structured busy reply.
            busy_sock, _reader2, busy = _raw_submit(
                address, _items(range(10, 13))
            )
            assert busy["type"] == "busy"
            assert busy["retry_after_s"] == pytest.approx(1.0)
            assert "capacity" in busy["error"]
            assert hub.stats["rejected_busy"] == 1
            # Re-attaching the existing identity adds no tasks: admitted.
            re_sock, _reader3, re_ack = _raw_submit(address, _items(range(3)))
            assert re_ack["type"] == "accepted"
            assert re_ack["reattached"] is True
            for open_sock in (first_sock, busy_sock, re_sock):
                open_sock.close()

    def test_client_backs_off_and_retries_on_busy(self, tmp_path):
        # One slot of capacity, occupied; a client submission must retry
        # (honouring retry_after_s) and fail only once its budget is spent.
        with running_hub(
            tmp_path, max_pending=2, admission_retry_s=0.05
        ) as (_hub, address):
            holder_sock, _reader, ack = _raw_submit(address, _items(range(2)))
            assert ack["type"] == "accepted"
            submission = HubSubmission(
                address,
                _items(range(10, 12)),
                reconnect_attempts=2,
                backoff=Backoff(base_s=0.05, cap_s=0.1, jitter=0.0, seed=7),
                quiet=True,
            )
            with pytest.raises(BrokerError, match="unavailable"):
                list(submission)
            assert submission.reconnects == 2
            holder_sock.close()

    def test_max_pending_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            SweepHub(max_pending=0)


# --------------------------------------------------------------------------- #
# Stream liveness: heartbeats while the sweep is slow
# --------------------------------------------------------------------------- #
class TestStreamLiveness:
    def test_heartbeats_flow_while_results_are_pending(self, tmp_path):
        with running_hub(tmp_path, client_heartbeat_s=0.1) as (_hub, address):
            sock, reader, ack = _raw_submit(
                address, _items(range(1), sleep_s=0.8)
            )
            assert ack["type"] == "accepted"
            with running_subprocess_worker(address):
                kinds = []
                while True:
                    message = read_message(reader)
                    kinds.append(message["type"])
                    if message["type"] in ("sweep-done", "sweep-failed"):
                        break
            sock.close()
        assert kinds[-1] == "sweep-done"
        assert "result" in kinds
        # The 0.8s task must have produced idle heartbeats first.
        assert kinds.count("hub-heartbeat") >= 2
        assert kinds.index("hub-heartbeat") < kinds.index("result")


# --------------------------------------------------------------------------- #
# Chaos sites: crash-hub / hang-hub
# --------------------------------------------------------------------------- #
class TestHubChaosSites:
    def test_crash_hub_site_kills_hub_abruptly(self, tmp_path):
        plan = FaultPlan(crash_hub=1.0, seed=3)
        with running_hub(
            tmp_path, injector=FaultInjector(plan, salt="hub")
        ) as (hub, address):
            with running_subprocess_worker(address):
                submission = HubSubmission(
                    address, _items(range(3)), reconnect_attempts=0, quiet=True
                )
                with pytest.raises(BrokerError, match="unavailable"):
                    list(submission)
            assert hub.crashed.is_set()
            assert hub.fault_counts.get("crash-hub", 0) == 1

    def test_hang_hub_site_delays_but_heartbeat_budget_absorbs_it(self, tmp_path):
        # Hangs shorter than the client's read timeout (4 heartbeat
        # intervals) cost latency only: no reconnect, full results.
        plan = FaultPlan(hang_hub=1.0, hang_s=0.2, seed=11)
        with running_hub(
            tmp_path, injector=FaultInjector(plan, salt="hub")
        ) as (hub, address):
            with running_subprocess_worker(address):
                submission = HubSubmission(address, _items(range(2)), quiet=True)
                completed = list(submission)
            assert hub.fault_counts.get("hang-hub", 0) >= 2
        assert sorted(index for index, _r, _m in completed) == [0, 1]
        assert submission.reconnects == 0

    def test_stalled_stream_triggers_reconnect_and_reattach(self, tmp_path):
        # A hub that stalls past the read timeout without closing the
        # socket: the client must detect the dead air, reconnect, and
        # re-attach -- the replayed stream finishes the sweep.
        with running_hub(tmp_path, client_heartbeat_s=0.1) as (hub, address):
            original = SweepHub._send_result
            state = {"hung": False}

            def hanging_send(conn, sweep, item):
                if not state["hung"]:
                    state["hung"] = True
                    # Stall until the client has given up on this stream
                    # and re-attached on a new one.  A fixed sleep would
                    # race the client's read timeout (floored at 1 s).
                    deadline = time.monotonic() + 30.0
                    while hub.stats["reattached"] < 1 and time.monotonic() < deadline:
                        time.sleep(0.01)
                return original(hub, conn, sweep, item)

            hub._send_result = hanging_send
            with running_subprocess_worker(address):
                submission = HubSubmission(
                    address,
                    _items(range(3)),
                    reconnect_attempts=8,
                    backoff=Backoff(base_s=0.05, cap_s=0.2, jitter=0.0, seed=5),
                    quiet=True,
                )
                completed = list(submission)
        assert sorted(index for index, _r, _m in completed) == [0, 1, 2]
        assert submission.reconnects >= 1
        assert submission.reattached is True


# --------------------------------------------------------------------------- #
# The flagship: SIGKILL the hub mid-sweep, restart, clients self-heal
# --------------------------------------------------------------------------- #
def _start_hub_process(artifact_dir, state_dir, *, port=0):
    """``hub serve --state`` subprocess; returns (process, (host, port))."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "hub",
            "serve",
            "--listen",
            f"127.0.0.1:{port}",
            "--artifact-dir",
            str(artifact_dir),
            "--state",
            str(state_dir),
            "--lease-ttl",
            "5",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        cwd=str(ROOT),
        env=SUBPROCESS_ENV,
    )
    assert process.stdout is not None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = process.stdout.readline().decode("utf-8", "replace")
        if not line:
            break
        match = re.search(r"\[hub\] listening on ([\d.]+):(\d+)", line)
        if match:
            return process, (match.group(1), int(match.group(2)))
    process.kill()
    raise RuntimeError("hub subprocess never announced its address")


class TestHubSigkillRestart:
    def test_two_tenants_survive_hub_sigkill_with_state_readoption(
        self, tmp_path
    ):
        values_a, values_b = list(range(0, 6)), list(range(20, 26))
        serial_a = SweepRunner().run(_configs(values_a))
        serial_b = SweepRunner().run(_configs(values_b))
        root = tmp_path / "artifacts"
        state = tmp_path / "state"

        rows, errors, backends = {}, {}, {}

        def run_tenant(key, values, address):
            backend = DistributedBackend(connect=address, quiet=True)
            backends[key] = backend
            runner = SweepRunner(backend=backend, artifact_dir=root)
            configs = [
                SweepConfig(
                    "testing.sleep_echo", {"value": v, "sleep_s": 0.25}
                )
                for v in values
            ]
            try:
                rows[key] = runner.run(configs)
            except Exception as exc:  # noqa: BLE001 - reported by the test
                errors[key] = exc

        hub = new_hub = None
        workers = []
        try:
            hub, address = _start_hub_process(root, state)
            workers = [
                spawn_loopback_worker(address, exit_when_drained=False)
                for _ in range(2)
            ]
            threads = [
                threading.Thread(target=run_tenant, args=("a", values_a, address)),
                threading.Thread(target=run_tenant, args=("b", values_b, address)),
            ]
            for thread in threads:
                thread.start()

            # Wait for real progress, then SIGKILL the hub mid-sweep.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if len(list(root.glob("testing.sleep_echo/*.json"))) >= 3:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("no artifacts appeared before the kill window")
            pre_kill = {
                path: path.stat().st_mtime_ns
                for path in root.glob("testing.sleep_echo/*.json")
            }
            hub.send_signal(signal.SIGKILL)
            hub.wait(timeout=10.0)

            # Restart on the same port with the same state directory: the
            # journal re-adopts both sweeps, the store prefill skips every
            # task with an artifact behind it, the workers reconnect, and
            # the clients re-attach by identity.
            new_hub, _ = _start_hub_process(root, state, port=address[1])
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive(), "tenant wedged after hub restart"
        finally:
            for process in workers:
                if process.poll() is None:
                    process.kill()
            for process in workers:
                process.wait(timeout=10.0)
            for process in (hub, new_hub):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait(timeout=10.0)

        assert errors == {}
        # Byte-identical to serial for both tenants.
        assert [json.loads(json.dumps(r)) for r in rows["a"]] == serial_a
        assert [json.loads(json.dumps(r)) for r in rows["b"]] == serial_b
        # At least one client actually rode out the crash...
        assert sum(b.last_stats.get("reconnects", 0) for b in backends.values()) >= 1
        # ...and nothing with an artifact behind it executed twice: the
        # pre-kill artifacts are untouched after the restart.
        for path, mtime_ns in pre_kill.items():
            assert path.stat().st_mtime_ns == mtime_ns, (
                f"{path.name} was rewritten after the restart "
                "(task re-executed despite its artifact)"
            )
        # The adopted sweeps completed in the hub journal.
        state_docs = [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(state.glob("hub-*.state.json"))
        ]
        assert len(state_docs) == 2
        assert all(doc["complete"] for doc in state_docs)
        assert all(doc["adopted"] >= 1 for doc in state_docs)


# --------------------------------------------------------------------------- #
# CLI plumbing for the HA layer
# --------------------------------------------------------------------------- #
class TestHaCli:
    def test_reconnect_attempts_requires_connect(self):
        spec = "examples/scenario_benign_congest.json"
        with pytest.raises(SystemExit, match="--reconnect-attempts"):
            main(["scenario", "run", spec, "--reconnect-attempts", "3"])

    def test_sweeps_cli_surfaces_skipped_files(self, tmp_path, capsys):
        SweepRunner(artifact_dir=tmp_path).run(_configs(range(2)))
        (tmp_path / "sweep-bad.journal.json").write_text("{oops", "utf-8")
        assert main(["sweeps", "--artifact-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "1 unreadable file(s) skipped" in captured.out
        assert "skipping unreadable file" in captured.err
        assert main(["runs", "list", "--artifact-dir", str(tmp_path)]) == 0
        assert "1 unreadable file(s) skipped" in capsys.readouterr().out

    def test_crash_exit_code_is_distinct(self):
        assert CRASH_EXIT_CODE == 70
