"""Tests for the distributed sweep backend (src/repro/runner/distributed/).

The fault-tolerance tests start real worker processes (forked loopback
worker daemons) against a real TCP broker on localhost, so they take a few
seconds; the support tasks they lease live in :mod:`repro.runner.testing`
(an importable module, so they also resolve in a worker daemon started on
its own with ``repro-byzantine-counting worker``).
"""

import json
import os
import signal
import socket
import time
from pathlib import Path

import pytest

import repro.runner.testing  # noqa: F401  (registers testing.* sweep tasks)
from repro.cli import main
from repro.experiments import e3_benign
from repro.runner import (
    ArtifactStore,
    Broker,
    BrokerError,
    DistributedBackend,
    PoolBackend,
    SerialBackend,
    SweepConfig,
    SweepRunner,
    resolve_backend,
    resolve_task,
)
from repro.runner import registry
from repro.runner.backends import worker_context
from repro.runner.distributed import spawn_loopback_worker
from repro.runner.distributed.backend import stop_workers
from repro.runner.distributed.protocol import (
    PROTOCOL_VERSION,
    format_address,
    parse_address,
    read_message,
    reader_for,
    send_message,
)
from repro.runner.distributed.worker import WorkerDaemon
from repro.runner.faults import Backoff
from repro.runner.hub import SweepHub, client


def _work_items(configs):
    """The runner's (index, task, params, module) items for ``configs``."""
    return [
        (
            index,
            config.task,
            dict(config.params),
            getattr(resolve_task(config.task), "__module__", None),
        )
        for index, config in enumerate(configs)
    ]


def _wait_until(predicate, timeout_s=10.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


# --------------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_message_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            message = {
                "type": "result",
                "lease": 3,
                "id": 7,
                "result": {"rounds": 12, "fraction": 0.5, "ids": [1, 2]},
                "meta": {"wall_clock_s": 0.25, "worker": 123},
            }
            send_message(left, message)
            send_message(left, {"type": "heartbeat", "lease": 3})
            reader = reader_for(right)
            assert read_message(reader) == message
            assert read_message(reader) == {"type": "heartbeat", "lease": 3}
            left.close()
            assert read_message(reader) is None  # EOF
        finally:
            for sock in (left, right):
                try:
                    sock.close()
                except OSError:
                    pass

    def test_garbage_line_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"not json\n")
            left.sendall(b'["a", "list"]\n')
            reader = reader_for(right)
            with pytest.raises(ValueError):
                read_message(reader)
            with pytest.raises(ValueError):
                read_message(reader)
        finally:
            left.close()
            right.close()

    def test_parse_and_format_address(self):
        assert parse_address("10.0.0.5:9876") == ("10.0.0.5", 9876)
        assert parse_address(":9876") == ("0.0.0.0", 9876)
        assert format_address(("localhost", 80)) == "localhost:80"
        for bad in ("nohost", "host:", "host:abc", "9876"):
            with pytest.raises(ValueError):
                parse_address(bad)


def _nodelay(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


def _handshake(sock):
    """Greet a broker as a worker called ``probe``; wait for its welcome."""
    send_message(
        sock,
        {
            "type": "hello",
            "worker_id": "probe",
            "host": "probe",
            "pid": 0,
            "procs": 1,
            "protocol": PROTOCOL_VERSION,
        },
    )
    assert read_message(reader_for(sock))["type"] == "welcome"


def _accepted_nodelay(service):
    """Handshake as a worker; whether the service's end sets TCP_NODELAY."""
    with socket.create_connection(service.address, timeout=10.0) as sock:
        _handshake(sock)
        # The accept thread records a connection before serving it, so the
        # welcome proves the service's end is the (only) one recorded.
        (conn,) = service._connections
        return _nodelay(conn)


def _socket_inodes(pid):
    """Inodes of the sockets process ``pid`` holds open."""
    inodes = set()
    for entry in Path(f"/proc/{pid}/fd").iterdir():
        try:
            target = os.readlink(entry)
        except OSError:
            continue  # closed while we looked
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:[") : -1]))
    return inodes


def _fork_connected_worker(broker, address):
    """Fork a loopback worker and wait until ``broker`` sees it connect.

    The at-fork hook runs in the child before its daemon starts, so the
    connect proves the hook is done.
    """
    worker = spawn_loopback_worker(address, exit_when_drained=False)
    assert _wait_until(
        lambda: any(
            event["event"] == "worker-connect"
            and event["worker"].endswith(f":{worker.pid}")
            for event in list(broker.events)
        )
    )
    return worker


class TestSockets:
    """Every runner socket sends each line at once: no Nagle/delayed-ACK wait."""

    def test_worker_and_broker_accepted_sockets_set_nodelay(self):
        broker = Broker()
        broker.start()
        try:
            assert _accepted_nodelay(broker)
            sock = WorkerDaemon(*broker.address)._connect(Backoff())
            try:
                assert _nodelay(sock)
            finally:
                sock.close()
        finally:
            broker.stop()

    def test_hub_client_and_hub_accepted_sockets_set_nodelay(self, monkeypatch):
        sent = []

        def recording_send(sock, message, **kwargs):
            sent.append((message["type"], _nodelay(sock)))
            send_message(sock, message, **kwargs)

        monkeypatch.setattr(client, "send_message", recording_send)
        hub = SweepHub(host="127.0.0.1", port=0)
        address = hub.start()
        try:
            assert _accepted_nodelay(hub)
            assert list(client.HubSubmission(address, [], reconnect_attempts=0)) == []
            client.query_hub_status(address)
        finally:
            hub.stop()
        assert sent == [("submit", True), ("status", True)]

    @pytest.mark.parametrize("halt", ["stop", "crash"])
    def test_halting_a_broker_ends_its_accept_thread(self, halt):
        # The listener is blocking; only the shutdown in stop()/crash()
        # wakes the accept() it is parked in.
        broker = Broker()
        broker.start()
        getattr(broker, halt)()
        assert broker._threads
        assert not any(thread.is_alive() for thread in broker._threads)


def _sigterm_is_default():
    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


_ECHO_CONFIGS = [SweepConfig("testing.sleep_echo", {"value": v}) for v in range(4)]


def _two_proc_loopback_sweep(configs):
    backend = DistributedBackend(spawn_workers=1, worker_procs=2, quiet=True)
    return SweepRunner(backend=backend, progress=False).run(configs)


class TestForkedWorkers:
    """Loopback workers are forked from the sweep process."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_forked_worker_holds_no_broker_socket(self):
        broker = Broker()
        address = broker.start()
        first = socket.create_connection(address, timeout=10.0)
        worker = None
        try:
            _handshake(first)
            held = {
                os.fstat(sock.fileno()).st_ino
                for sock in [broker._listener, *broker._connections]
            }
            assert len(held) == 2
            worker = _fork_connected_worker(broker, address)
            assert not held & _socket_inodes(worker.pid)
        finally:
            if worker is not None:
                stop_workers([worker])
            first.close()
            broker.stop()

    def test_worker_forked_from_a_pool_process_starts_its_own_pool(self):
        # A pool process is daemonic; its loopback worker is not, so a
        # ``procs > 1`` worker can still fan out.
        with worker_context().Pool(1) as pool:
            (pooled,) = pool.map(_two_proc_loopback_sweep, [_ECHO_CONFIGS])
        assert pooled == SweepRunner(workers=1, progress=False).run(_ECHO_CONFIGS)

    def test_pool_processes_die_on_sigterm_under_a_drain_handler(self):
        # ``Pool.terminate`` SIGTERMs its processes; one that inherited the
        # daemon's drain handler would survive, and the pool would hang.
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        daemon = WorkerDaemon("127.0.0.1", 1, procs=2)
        try:
            assert daemon._ensure_pool().apply(_sigterm_is_default)
        finally:
            daemon._close_pool()
            signal.signal(signal.SIGTERM, previous)

    def test_forked_workers_inherit_runtime_registered_tasks(self, monkeypatch):
        def cube(*, value):
            return {"value": value, "cube": value**3}

        # No importable module registers this task: only a worker that
        # inherits this process's registry can run it.
        cube.__module__ = None
        monkeypatch.setitem(registry._TASKS, "testing.runtime-cube", cube)
        configs = [SweepConfig("testing.runtime-cube", {"value": v}) for v in range(4)]
        backend = DistributedBackend(spawn_workers=1, quiet=True)
        distributed = SweepRunner(backend=backend, progress=False).run(configs)
        assert distributed == SweepRunner(workers=1, progress=False).run(configs)


class TestEmptyReply:
    """An ``empty`` lease reply's ``done`` flag tells one-shot workers to exit."""

    @pytest.mark.parametrize(
        "service, drained_done", [(Broker, True), (SweepHub, False)], ids=["broker", "hub"]
    )
    def test_done_flag_once_the_sweep_drains(self, service, drained_done):
        broker = service()
        broker.submit(_work_items(_ECHO_CONFIGS[:1]))
        address = broker.start()

        def lease():
            send_message(sock, {"type": "lease", "capacity": 1})
            return read_message(reader)

        try:
            with socket.create_connection(address, timeout=10.0) as sock:
                _handshake(sock)
                reader = reader_for(sock)
                granted = lease()
                assert granted["type"] == "tasks"
                # Leased but not finished: the sweep has not drained yet.
                assert lease() == {"type": "empty", "done": False}
                (task,) = granted["tasks"]
                send_message(
                    sock,
                    {
                        "type": "result",
                        "lease": granted["lease"],
                        "id": task["id"],
                        "result": {"value": 0},
                        "meta": {},
                    },
                )
                # One connection is served in order: the result settles first.
                assert lease() == {"type": "empty", "done": drained_done}
        finally:
            broker.stop()


# --------------------------------------------------------------------------- #
# Backend resolution
# --------------------------------------------------------------------------- #
class TestBackendResolution:
    def test_default_derives_from_workers(self):
        assert isinstance(SweepRunner().backend, SerialBackend)
        pool = SweepRunner(workers=3).backend
        assert isinstance(pool, PoolBackend) and pool.workers == 3

    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("pool", workers=4), PoolBackend)
        distributed = resolve_backend("distributed", workers=4)
        assert isinstance(distributed, DistributedBackend)
        assert distributed.spawn_workers == 4

    def test_instance_passes_through(self):
        backend = DistributedBackend(spawn_workers=2, quiet=True)
        assert SweepRunner(backend=backend).backend is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            SweepRunner(backend="carrier-pigeon")

    def test_cli_listen_requires_distributed(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "e3", "--listen", "127.0.0.1:9999"])


# --------------------------------------------------------------------------- #
# Loopback equivalence: serial == pool == distributed, artifacts included
# --------------------------------------------------------------------------- #
class TestBackendEquivalence:
    def test_e3_mini_sweep_identical_across_backends(self, tmp_path):
        """Property: all three backends produce identical results *and*
        identical artifact documents for a seeded E3 mini-sweep."""
        configs = e3_benign.scenario_suite(sizes=(48,), trials=2, seed=0).compile()
        backends = {
            "serial": SerialBackend(),
            "pool": PoolBackend(2),
            "distributed": DistributedBackend(spawn_workers=2, quiet=True),
        }
        rows = {}
        for name, backend in backends.items():
            runner = SweepRunner(backend=backend, artifact_dir=tmp_path / name)
            rows[name] = runner.run(configs)
            assert runner.last_executed == len(configs)
        assert rows["serial"] == rows["pool"] == rows["distributed"]

        def documents(name):
            store = ArtifactStore(tmp_path / name)
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

        assert documents("serial") == documents("pool") == documents("distributed")

    def test_e3_suite_table_identical_and_meta_tagged(self):
        kwargs = dict(sizes=(48,), trials=2, seed=1)
        serial = e3_benign.run_experiment(runner=SweepRunner(), **kwargs)
        runner = SweepRunner(
            backend=DistributedBackend(spawn_workers=2, quiet=True)
        )
        distributed = e3_benign.run_experiment(runner=runner, **kwargs)
        assert serial.rows == distributed.rows
        assert serial.render() == distributed.render()
        # Distributed metas carry the extra provenance fields.
        for meta in runner.last_metas:
            assert meta["wall_clock_s"] >= 0
            assert meta["host"] and meta["worker_id"]

    def test_duplicate_configs_deduped_against_cache_mid_sweep(self, tmp_path):
        config = SweepConfig("testing.sleep_echo", {"value": 7})
        backend = DistributedBackend(spawn_workers=1, quiet=True)
        runner = SweepRunner(backend=backend, artifact_dir=tmp_path)
        out = runner.run([config, SweepConfig("testing.sleep_echo", {"value": 8}), config])
        assert out == [{"value": 7}, {"value": 8}, {"value": 7}]
        # The duplicate was completed from the artifact written mid-sweep,
        # not executed a second time.
        assert backend.last_stats["cache_hits"] == 1
        assert backend.last_stats["completed"] == 2
        assert (runner.last_cached, runner.last_executed) == (1, 2)
        assert runner.last_metas[2] is None

    def test_one_artifact_key_per_config_and_per_broker_task(self, tmp_path, monkeypatch):
        """The runner hashes each config once for its cache probe, journal
        and persist; the broker hashes each submitted task once for its
        grant-time probe and persist."""
        configs = [SweepConfig("testing.sleep_echo", {"value": v}) for v in range(8)]
        SweepRunner(artifact_dir=tmp_path).run(configs[::2])
        hashed = []
        key = SweepConfig.key
        monkeypatch.setattr(SweepConfig, "key", lambda self: hashed.append(self) or key(self))

        serial = SweepRunner(artifact_dir=tmp_path / "serial")
        assert serial.run(configs) == [{"value": v} for v in range(8)]
        assert len(hashed) == len(configs)

        hashed.clear()
        runner = SweepRunner(
            backend=DistributedBackend(spawn_workers=1, quiet=True), artifact_dir=tmp_path
        )
        assert runner.run(configs) == [{"value": v} for v in range(8)]
        assert (runner.last_cached, runner.last_executed) == (4, 4)
        assert len(hashed) == len(configs) + 4


# --------------------------------------------------------------------------- #
# Fault tolerance
# --------------------------------------------------------------------------- #
class TestFaultTolerance:
    def test_killed_worker_mid_lease_is_retried_and_table_identical(self):
        """Kill a worker holding a lease; the task must be re-leased to a
        second worker and the final table must match the serial run."""
        configs = (
            [SweepConfig("testing.sleep_echo", {"value": 0, "sleep_s": 0.05})]
            + [
                SweepConfig("testing.sleep_echo", {"value": v, "sleep_s": 1.5})
                for v in (1, 2)
            ]
            + [SweepConfig("testing.sleep_echo", {"value": 3, "sleep_s": 0.05})]
        )
        broker = Broker(lease_ttl_s=15.0, max_retries=2)
        sweep = broker.submit(_work_items(configs))
        address = broker.start()
        victim = survivor = None
        try:
            victim = spawn_loopback_worker(address, exit_when_drained=False)
            results_iter = sweep.results()
            first = next(results_iter)
            # Wait until the victim holds a lease on the next (slow) task,
            # then kill it mid-execution.
            assert _wait_until(lambda: broker.stats["dispatched"] >= 2)
            victim.kill()
            victim.wait(timeout=10)
            survivor = spawn_loopback_worker(address, exit_when_drained=True)
            completed = [first] + list(results_iter)
            # Let the survivor observe the drained sweep (one more lease
            # round-trip) and exit cleanly before the broker goes away.
            survivor_exit = survivor.wait(timeout=10)
        finally:
            broker.stop()
            for process in (victim, survivor):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)
        assert broker.stats["retries"] >= 1  # the killed lease was requeued
        results = [None] * len(configs)
        for index, result, _meta in completed:
            results[index] = result
        serial = SweepRunner().run(configs)
        assert [json.loads(json.dumps(r)) for r in results] == serial
        assert survivor_exit == 0  # drained cleanly

    def test_silent_worker_lease_expires_and_task_is_redispatched(self):
        """A worker that leases a task and then hangs (connection open, no
        heartbeats) loses the lease after the TTL; a healthy worker then
        finishes the sweep."""
        configs = [SweepConfig("testing.sleep_echo", {"value": v}) for v in range(3)]
        broker = Broker(lease_ttl_s=0.5, max_retries=2)
        sweep = broker.submit(_work_items(configs))
        address = broker.start()
        zombie = socket.create_connection(address, timeout=5.0)
        worker = None
        try:
            reader = reader_for(zombie)
            send_message(
                zombie,
                {
                    "type": "hello",
                    "worker_id": "zombie",
                    "host": "test",
                    "pid": 0,
                    "procs": 1,
                    "protocol": PROTOCOL_VERSION,
                },
            )
            assert read_message(reader)["type"] == "welcome"
            send_message(zombie, {"type": "lease", "capacity": 1})
            granted = read_message(reader)
            assert granted["type"] == "tasks" and len(granted["tasks"]) == 1
            # ... and now the zombie goes silent, holding the lease open.
            assert _wait_until(lambda: broker.stats["expired_leases"] >= 1)
            # A late error from the expired lease must be dropped: the task
            # is owned by the queue (or a live worker) again, and acting on
            # the zombie report would double-queue it / burn retry budget.
            send_message(
                zombie,
                {
                    "type": "error",
                    "lease": granted["lease"],
                    "id": granted["tasks"][0]["id"],
                    "error": "zombie says boom",
                },
            )
            worker = spawn_loopback_worker(address, exit_when_drained=True)
            completed = list(sweep.results())
        finally:
            broker.stop()
            zombie.close()
            if worker is not None and worker.poll() is None:
                worker.kill()
                worker.wait(timeout=10)
        assert broker.stats["retries"] >= 1
        assert broker.stats["worker_errors"] == 0  # the zombie error was dropped
        results = [None] * len(configs)
        for index, result, _meta in completed:
            results[index] = result
        assert results == [{"value": v} for v in range(3)]

    def test_heartbeats_keep_long_tasks_leased(self):
        """A task longer than the lease TTL must not expire while its worker
        is alive: heartbeats renew the lease."""
        configs = [SweepConfig("testing.sleep_echo", {"value": 9, "sleep_s": 2.0})]
        backend = DistributedBackend(
            spawn_workers=1, quiet=True, lease_ttl_s=0.8, max_retries=0
        )
        out = SweepRunner(backend=backend).run(configs)
        assert out == [{"value": 9}]
        assert backend.last_stats["expired_leases"] == 0
        assert backend.last_stats["retries"] == 0

    def test_deterministic_task_failure_exhausts_bounded_retries(self):
        backend = DistributedBackend(
            spawn_workers=1, quiet=True, max_retries=1
        )
        runner = SweepRunner(backend=backend)
        with pytest.raises(BrokerError, match=r"after 2 attempt\(s\).*kapow"):
            runner.run([SweepConfig("testing.boom", {"message": "kapow"})])
        assert backend.last_stats["worker_errors"] == 2


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCliDistributed:
    def test_scenario_run_distributed_matches_serial(self, capsys):
        spec = "examples/scenario_benign_congest.json"
        assert main(["scenario", "run", spec]) == 0
        serial_out = capsys.readouterr().out
        assert (
            main(
                [
                    "scenario",
                    "run",
                    spec,
                    "--backend",
                    "distributed",
                    "--spawn-workers",
                    "2",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == serial_out

    def test_worker_requires_connect(self, capsys):
        with pytest.raises(SystemExit):
            main(["worker"])
