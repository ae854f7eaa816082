"""Lease-ahead dispatch of the distributed runner.

A worker asks for its next lease before it runs the last task of the lease
in hand, so the broker persists the previous result and grants the next
task while that task runs.  These tests pin what must not change with it:

- a worker holds at most one lease beyond the one it is running, on the
  serial and the pool path;
- the session's one heartbeat thread renews the lease granted ahead while
  a task longer than the lease TTL runs;
- a draining worker returns the lease granted ahead through ``abandon``,
  uncharged, and a lease granted ahead and never started is requeued
  uncharged when its worker disconnects;
- a lease asked ahead is never granted a duplicate of a config still in
  flight (dispatch-time dedupe holds), and a grant pops past dedupe hits
  instead of answering ``empty`` while uncached work is queued.

Workers run in-thread, so their tasks run in this process.
"""

import socket
import threading
import time

import pytest

from repro.runner import ArtifactStore, Broker, WorkerDaemon
from repro.runner import registry
from repro.runner.distributed import worker as worker_module
from repro.runner.distributed.protocol import (
    PROTOCOL_VERSION,
    read_message,
    reader_for,
    send_message,
)
from sweep_support import completions, submit


def _items(values, *, sleep_s=0.0):
    """Work items (index, task, params, module) for ``testing.sleep_echo``."""
    return [
        (
            index,
            "testing.sleep_echo",
            {"value": value, "sleep_s": sleep_s} if sleep_s else {"value": value},
            "sweep_support",
        )
        for index, value in enumerate(values)
    ]


class _LeaseCounter(Broker):
    """A broker that records, at each grant, how many live leases the
    granted worker then holds, and how many earlier leases the new one
    still links to."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.held_at_grant = []
        self.links_at_grant = []

    def _lease_locked(self, worker_id, sweep, granted, behind):
        reply = super()._lease_locked(worker_id, sweep, granted, behind)
        self.held_at_grant.append(
            sum(lease.worker_id == worker_id for lease in self._leases.values())
        )
        links, lease = 0, self._leases[reply["lease"]].after
        while lease is not None:
            links, lease = links + 1, lease.after
        self.links_at_grant.append(links)
        return reply


def _wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _results(sweep, timeout_s=60.0):
    """``sweep``'s ``(index, result)`` pairs in index order; fails instead
    of waiting past ``timeout_s``."""
    deadline = time.monotonic() + timeout_s

    def check():
        assert time.monotonic() < deadline, "sweep did not complete"

    return sorted(
        (index, result) for index, result, _meta in completions(sweep, poll=check)
    )


def _drain(broker, sweep, **daemon_options):
    """Run one one-shot in-thread worker until ``sweep`` drains; returns
    the daemon and the ``(index, result)`` pairs in index order."""
    host, port = broker.start()
    daemon = WorkerDaemon(host, port, exit_when_drained=True, **daemon_options)
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    try:
        completed = _results(sweep)
        thread.join(timeout=30)
        assert not thread.is_alive(), "worker did not exit after the sweep drained"
    finally:
        daemon.stop()
        broker.stop()
    return daemon, completed


class _Probe:
    """A raw worker connection speaking the wire protocol by hand."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10.0)
        self.reader = reader_for(self.sock)
        send_message(
            self.sock,
            {
                "type": "hello",
                "worker_id": "probe",
                "host": "probe",
                "pid": 0,
                "procs": 1,
                "protocol": PROTOCOL_VERSION,
            },
        )
        assert read_message(self.reader)["type"] == "welcome"

    def lease(self):
        send_message(self.sock, {"type": "lease", "capacity": 1})
        return read_message(self.reader)

    def report(self, granted, result):
        (task,) = granted["tasks"]
        send_message(
            self.sock,
            {
                "type": "result",
                "lease": granted["lease"],
                "id": task["id"],
                "result": result,
                "meta": {},
            },
        )

    def close(self):
        # The line reader holds the socket open until it closes too.
        self.reader.close()
        self.sock.close()


# --------------------------------------------------------------------------- #
# The worker side
# --------------------------------------------------------------------------- #
class TestWorkerLeaseAhead:
    def test_serial_worker_holds_at_most_one_lease_ahead(self):
        broker = _LeaseCounter()
        sweep = submit(broker, _items(range(6), sleep_s=0.02))
        _daemon, completed = _drain(broker, sweep)
        assert completed == [(v, {"value": v}) for v in range(6)]
        # Every lease after the first was granted while the worker still
        # ran the one before it, and never more than one ahead.
        assert broker.held_at_grant == [1] + [2] * 5
        # A lease links only to the one it was granted behind.
        assert broker.links_at_grant == [0] + [1] * 5

    def test_pool_worker_asks_ahead_once_per_lease(self):
        broker = _LeaseCounter()
        sweep = submit(broker, _items(range(8), sleep_s=0.02))
        daemon, completed = _drain(broker, sweep, procs=2)
        assert completed == [(v, {"value": v}) for v in range(8)]
        assert max(broker.held_at_grant) == 2
        assert broker.held_at_grant.count(2) >= 1
        assert daemon.tasks_run == 8

    def test_one_heartbeat_thread_per_session(self, monkeypatch):
        started = []
        original = threading.Thread.start

        def counting_start(thread):
            started.append(getattr(thread, "_target", None))
            original(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        broker = Broker()
        sweep = submit(broker, _items(range(12)))
        daemon, completed = _drain(broker, sweep)
        assert len(completed) == 12 and daemon.tasks_run == 12
        heartbeats = [
            target for target in started
            if getattr(target, "__name__", "") == "_heartbeat_loop"
        ]
        assert len(heartbeats) == 1

    def test_heartbeat_renews_the_lease_granted_ahead(self):
        # The lease of the second task is granted when the first starts and
        # is not read until the first ends, 2 s later: only the session
        # heartbeat keeps that 0.8 s lease alive.
        broker = _LeaseCounter(lease_ttl_s=0.8, max_retries=0)
        sweep = submit(
            broker,
            [
                (0, "testing.sleep_echo", {"value": 0, "sleep_s": 2.0}, None),
                (1, "testing.sleep_echo", {"value": 1}, None),
            ]
        )
        _daemon, completed = _drain(broker, sweep)
        assert completed == [(0, {"value": 0}), (1, {"value": 1})]
        assert broker.held_at_grant == [1, 2]
        assert broker.stats["expired_leases"] == 0
        assert broker.stats["retries"] == 0

    def test_drain_abandons_the_lease_granted_ahead_uncharged(self, monkeypatch):
        release = threading.Event()

        def gated(*, value):
            release.wait(timeout=30)
            return {"value": value}

        monkeypatch.setitem(registry._TASKS, "testing.gated", gated)
        items = [(0, "testing.gated", {"value": 0}, None)] + [
            (index, "testing.sleep_echo", {"value": index}, None) for index in (1, 2)
        ]
        broker = Broker()
        sweep = submit(broker, items)
        host, port = broker.start()
        draining = WorkerDaemon(host, port)
        thread = threading.Thread(target=draining.run, daemon=True)
        thread.start()
        replacement = None
        try:
            # The gated task is running and the next lease was granted ahead.
            _wait_until(lambda: broker.stats["dispatched"] >= 2)
            draining.request_shutdown()
            release.set()
            thread.join(timeout=30)
            assert not thread.is_alive(), "draining worker never exited"
            assert draining.tasks_run == 1
            # The broker reads the ``abandon`` before the drained worker's EOF.
            _wait_until(lambda: broker.stats["abandoned"] >= 1)
            assert broker.stats["abandoned"] == 1
            replacement = WorkerDaemon(host, port, exit_when_drained=True)
            replacement_thread = threading.Thread(target=replacement.run, daemon=True)
            replacement_thread.start()
            completed = _results(sweep)
            replacement_thread.join(timeout=30)
        finally:
            release.set()
            draining.stop()
            if replacement is not None:
                replacement.stop()
            broker.stop()
        assert completed == [(v, {"value": v}) for v in range(3)]
        assert broker.stats["retries"] == 0
        assert "abandon" in [event["event"] for event in broker.events]

    def test_duplicate_then_fresh_task_needs_no_empty_poll(self, tmp_path, monkeypatch):
        # [X, X, Y] with the poll backoff raised to an hour: an ``empty``
        # reply to a request not sent ahead would park the worker for it.
        replies = []
        original = worker_module.read_message

        def recording(reader):
            message = original(reader)
            replies.append(message)
            return message

        monkeypatch.setattr(worker_module, "read_message", recording)
        broker = Broker(store=ArtifactStore(tmp_path))
        x, y = {"value": 1}, {"value": 2}
        sweep = submit(
            broker,
            [(i, "testing.sleep_echo", p, None) for i, p in enumerate((x, x, y))]
        )
        _daemon, completed = _drain(
            broker, sweep, poll_interval_s=3600.0, poll_max_s=3600.0
        )
        assert completed == [(0, x), (1, x), (2, y)]
        assert broker.stats["cache_hits"] == 1 and broker.stats["completed"] == 2
        grants = [
            event for event in broker.events
            if event["event"] in ("lease-grant", "dedupe-hit")
        ]
        kinds = [event["event"] for event in grants]
        assert kinds == ["lease-grant", "dedupe-hit", "lease-grant"]
        assert grants[2]["tasks"] == [2]
        # The worker finished without the hour's wait, and its last reply
        # said the sweep had drained.
        assert replies[-1] == {"type": "empty", "done": True}


# --------------------------------------------------------------------------- #
# The broker side, over the raw protocol
# --------------------------------------------------------------------------- #
class TestBrokerLeaseAhead:
    def test_grant_pops_past_dedupe_hits(self, tmp_path):
        broker = Broker(store=ArtifactStore(tmp_path))
        x, y = {"value": 1}, {"value": 2}
        items = [(i, "testing.sleep_echo", p, None) for i, p in enumerate((x, x, y))]
        submit(broker, items)
        address = broker.start()
        probe = _Probe(address)
        try:
            first = probe.lease()
            assert [task["id"] for task in first["tasks"]] == [0]
            probe.report(first, x)
            # The duplicate completes from the artifact just persisted, and
            # the same reply grants the fresh task behind it.
            second = probe.lease()
            assert second["type"] == "tasks"
            assert [task["id"] for task in second["tasks"]] == [2]
            assert broker.stats["cache_hits"] == 1
        finally:
            probe.close()
            broker.stop()

    def test_lease_ahead_is_not_granted_an_in_flight_duplicate(self, tmp_path):
        broker = Broker(store=ArtifactStore(tmp_path))
        x = {"value": 1}
        submit(broker, [(i, "testing.sleep_echo", x, None) for i in range(2)])
        address = broker.start()
        probe = _Probe(address)
        try:
            first = probe.lease()
            # Asked ahead while task 0 is in flight: its duplicate waits.
            assert probe.lease() == {"type": "empty", "done": False}
            probe.report(first, x)
            assert probe.lease() == {"type": "empty", "done": True}
            assert broker.stats["cache_hits"] == 1
            assert broker.stats["dispatched"] == 1
        finally:
            probe.close()
            broker.stop()

    def test_without_a_store_a_lease_ahead_gets_the_duplicate(self):
        # Nothing can dedupe it, so holding it back would only idle a worker.
        broker = Broker()
        submit(
            broker, [(i, "testing.sleep_echo", {"value": 1}, None) for i in range(2)]
        )
        address = broker.start()
        probe = _Probe(address)
        try:
            probe.lease()
            assert [task["id"] for task in probe.lease()["tasks"]] == [1]
        finally:
            probe.close()
            broker.stop()

    @pytest.mark.parametrize("reported", [False, True])
    def test_disconnect_charges_only_a_started_lease(self, reported):
        broker = Broker(max_retries=2)
        sweep = submit(broker, _items(range(3)))
        address = broker.start()
        probe = _Probe(address)
        try:
            first = probe.lease()
            ahead = probe.lease()
            assert ahead["type"] == "tasks"
            if reported:
                # The first lease is done, so the one granted ahead started.
                probe.report(first, {"value": 0})
            probe.close()
            _wait_until(lambda: broker.snapshot()["active_leases"] == 0)
            states = {state.index: state for state in sweep.tasks.values()}
            # The started lease is charged; the one granted ahead of an
            # unfinished lease goes back as it was.
            assert broker.stats["retries"] == 1
            assert states[1].dispatches == (1 if reported else 0)
        finally:
            probe.close()
            broker.stop()
