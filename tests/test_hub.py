"""Tests for the Sweep Hub subsystem (src/repro/runner/hub/).

Covers the multi-tenant acceptance criteria of the hub: concurrent sweeps
sharing one hub and artifact root with results identical to serial,
fair-share dispatch and priorities, cross-sweep dedupe through the shared
store, graceful worker drain (the ``abandon`` path), ``events_dropped``
accounting in sweep stats and journals, the ResultsDB query layer, the
``sweeps`` / ``runs`` / ``hub`` CLI.

Workers here run as in-thread :class:`WorkerDaemon` instances (the
subprocess fleet is exercised by ``tests/test_distributed.py`` and
``tests/test_hub_ha.py``); tasks live in ``tests/sweep_support.py`` so they
resolve anywhere.
"""

import contextlib
import json
import threading
import time

import pytest

from repro.cli import main
from repro.runner import (
    ArtifactStore,
    Broker,
    DistributedBackend,
    ResultsDB,
    SweepConfig,
    SweepHub,
    SweepRunner,
    WorkerDaemon,
)
from repro.runner.distributed.protocol import (
    PROTOCOL_VERSION,
    connect,
    read_message,
    reader_for,
    send_message,
)
from repro.runner.hub.client import HubSubmission, query_hub_status
from sweep_support import completions, submit


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
    """A started :class:`SweepHub` (with a store at ``root`` when given)."""
    store = ArtifactStore(root) if root is not None else None
    hub = SweepHub(store=store, **kwargs)
    address = hub.start()
    try:
        yield hub, address
    finally:
        hub.stop()


@contextlib.contextmanager
def running_worker(address, **kwargs):
    """An in-thread persistent :class:`WorkerDaemon` attached to ``address``."""
    daemon = WorkerDaemon(address[0], address[1], **kwargs)
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    try:
        yield daemon
    finally:
        daemon.stop()
        thread.join(timeout=20)
        assert not thread.is_alive(), "worker daemon failed to stop"


# --------------------------------------------------------------------------- #
# Submissions: equivalence, concurrency, dedupe, fair share
# --------------------------------------------------------------------------- #
class TestHubSubmissions:
    def test_single_submission_matches_serial(self, tmp_path):
        serial = SweepRunner().run(_configs(range(4)))
        with running_hub(tmp_path) as (_hub, address):
            with running_worker(address):
                completed = list(HubSubmission(address, _items(range(4))))
        results = [None] * 4
        for index, result, _meta in completed:
            results[index] = result
        assert [json.loads(json.dumps(r)) for r in results] == serial

    def test_two_concurrent_connect_sweeps_identical_to_serial(self, tmp_path):
        """Two concurrent ``--connect`` sweeps against one hub + artifact
        root: rows identical to serial, one journal per sweep at the shared
        root, both complete."""
        values_a, values_b = list(range(0, 5)), list(range(10, 15))
        serial_a = SweepRunner().run(_configs(values_a))
        serial_b = SweepRunner().run(_configs(values_b))
        rows = {}

        def run_connect(key, values, address):
            runner = SweepRunner(
                backend=DistributedBackend(connect=address, quiet=True),
                artifact_dir=tmp_path,
            )
            rows[key] = runner.run(_configs(values))

        with running_hub(tmp_path) as (hub, address):
            with running_worker(address, procs=2):
                threads = [
                    threading.Thread(target=run_connect, args=("a", values_a, address)),
                    threading.Thread(target=run_connect, args=("b", values_b, address)),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive(), "connect sweep wedged"
            assert len(hub.snapshot()["sweeps"]) == 2
        assert rows["a"] == serial_a
        assert rows["b"] == serial_b
        journals = sorted(tmp_path.glob("sweep-*.journal.json"))
        assert len(journals) == 2
        for path in journals:
            document = json.loads(path.read_text(encoding="utf-8"))
            assert document["complete"] is True
            assert document["events_dropped"] == 0

    def test_cross_sweep_dedupe_through_shared_store(self, tmp_path):
        """A second sweep overlapping an earlier one on the same hub hits
        the shared artifact store at dispatch time."""
        with running_hub(tmp_path) as (hub, address):
            with running_worker(address):
                first = HubSubmission(address, _items(range(4)))
                assert len(list(first)) == 4
                assert first.stats["completed"] == 4
                second = HubSubmission(address, _items(range(2, 6)))
                completed = list(second)
        results = [None] * 4
        cache_hits = 0
        for index, result, meta in completed:
            results[index] = result
            cache_hits += meta is None
        assert results == [{"value": v} for v in range(2, 6)]
        assert cache_hits == 2  # values 2 and 3 came from the store
        assert second.stats["cached"] == 2
        assert second.stats["completed"] == 2
        assert "events_dropped" in second.stats
        assert hub.stats["cache_hits"] >= 2

    def test_equal_priority_sweeps_are_granted_fair_share(self, tmp_path):
        """With one worker and chunk_size=1, two equal-priority sweeps must
        alternate lease grants (least-recently-granted wins)."""
        with running_hub(tmp_path, chunk_size=1) as (hub, address):
            sweep_a = submit(hub, _items(range(3)), name="a")
            sweep_b = submit(hub, _items(range(10, 13)), name="b")
            with running_worker(address):
                assert len(list(completions(sweep_a))) == 3
                assert len(list(completions(sweep_b))) == 3
            grants = [
                event["sweep"]
                for event in hub.events
                if event["event"] == "lease-grant"
            ]
        assert len(grants) == 6
        # Strict alternation while both queues have pending work.
        assert grants[:4] in (["s0", "s1"] * 2, ["s1", "s0"] * 2)

    def test_high_priority_sweep_preempts_dispatch(self, tmp_path):
        """A higher-priority sweep submitted to the same hub is granted
        before an earlier lower-priority one."""
        with running_hub(tmp_path, chunk_size=1) as (hub, address):
            low = submit(hub, _items(range(3)), name="low", priority=0)
            high = submit(hub, _items(range(10, 13)), name="high", priority=5)
            with running_worker(address):
                assert len(list(completions(high))) == 3
                assert len(list(completions(low))) == 3
            grants = [
                event["sweep"]
                for event in hub.events
                if event["event"] == "lease-grant"
            ]
        assert grants[:3] == [high.key] * 3
        assert grants[3:] == [low.key] * 3

    def test_status_query_reports_sweeps_and_workers(self, tmp_path):
        with running_hub(tmp_path) as (_hub, address):
            with running_worker(address, worker_id="w-test"):
                submission = HubSubmission(address, _items(range(2)), name="probe")
                assert len(list(submission)) == 2
                status = query_hub_status(address)
        assert status["stats"]["completed"] == 2
        assert "events_dropped" in status
        sweeps = {entry["name"]: entry for entry in status["sweeps"]}
        assert sweeps["probe"]["status"] == "done"
        assert any(worker["worker"] == "w-test" for worker in status["workers"])


# --------------------------------------------------------------------------- #
# Graceful worker shutdown (satellite: SIGTERM drain)
# --------------------------------------------------------------------------- #
class TestGracefulShutdown:
    def test_request_shutdown_abandons_lease_remainder_uncharged(self):
        """A draining worker finishes its current task, abandons the rest
        of the lease (front-requeued, no retry charged), and a replacement
        finishes the sweep."""
        items = _items(range(6), sleep_s=0.2)
        broker = Broker(lease_ttl_s=30.0, chunk_size=6)
        sweep = submit(broker, items)
        address = broker.start()
        completed = []
        try:
            daemon = WorkerDaemon(
                address[0], address[1], procs=1, lease_capacity=6
            )
            thread = threading.Thread(target=daemon.run, daemon=True)
            thread.start()
            results_iter = completions(sweep)
            completed.append(next(results_iter))
            daemon.request_shutdown()
            thread.join(timeout=20)
            assert not thread.is_alive(), "draining worker never exited"
            with running_worker(address, exit_when_drained=True):
                completed.extend(results_iter)
        finally:
            broker.stop()
        assert broker.stats["abandoned"] >= 1
        assert broker.stats["retries"] == 0  # abandonment is uncharged
        kinds = [event["event"] for event in broker.events]
        assert "abandon" in kinds
        results = [None] * 6
        for index, result, _meta in completed:
            results[index] = result
        assert results == [{"value": v} for v in range(6)]

    def test_lease_capacity_validation(self):
        with pytest.raises(ValueError, match="lease_capacity"):
            WorkerDaemon("127.0.0.1", 1, lease_capacity=0)


class TestStoppedHubStopsServing:
    def test_stop_closes_worker_connections_and_joins_serve_threads(self):
        """A worker connected to a hub reads EOF once ``stop()`` returns,
        even if it asks for a lease afterwards, and no serve thread is left."""
        hub = SweepHub()
        address = hub.start()
        sock = connect(address, timeout=5.0)
        try:
            reader = reader_for(sock)
            send_message(sock, {"type": "hello", "protocol": PROTOCOL_VERSION, "worker_id": "probe"})
            assert read_message(reader)["type"] == "welcome"
            hub.stop()
            assert not any(thread.is_alive() for thread in hub._serve_threads)
            time.sleep(0.3)
            with contextlib.suppress(OSError):
                send_message(sock, {"type": "lease", "capacity": 1})
            try:
                reply = read_message(reader)
            except ConnectionResetError:
                reply = None
            assert reply is None
        finally:
            sock.close()


# --------------------------------------------------------------------------- #
# events_dropped accounting (satellite)
# --------------------------------------------------------------------------- #
class TestEventsDropped:
    def test_dropped_events_counted_in_stats_and_journal(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.runner.distributed.broker.EVENTS_CAP", 2)
        backend = DistributedBackend(spawn_workers=1, quiet=True)
        runner = SweepRunner(backend=backend, artifact_dir=tmp_path)
        assert runner.run(_configs(range(3))) == [{"value": v} for v in range(3)]
        assert backend.last_stats["events_dropped"] >= 1
        (journal,) = tmp_path.glob("sweep-*.journal.json")
        document = json.loads(journal.read_text(encoding="utf-8"))
        assert document["events_dropped"] == backend.last_stats["events_dropped"]

    def test_snapshot_exposes_events_dropped(self, tmp_path):
        with running_hub(tmp_path) as (hub, _address):
            assert hub.snapshot()["events_dropped"] == 0


# --------------------------------------------------------------------------- #
# ResultsDB and the sweeps / runs CLI
# --------------------------------------------------------------------------- #
class TestResultsDB:
    @pytest.fixture()
    def populated_root(self, tmp_path):
        runner = SweepRunner(artifact_dir=tmp_path)
        runner.run(_configs(range(3)))
        return tmp_path

    def test_sweep_and_run_records(self, populated_root):
        db = ResultsDB(populated_root)
        (sweep,) = db.sweep_records()
        assert sweep["status"] == "done"
        assert sweep["done"] == sweep["total"] == 3
        assert sweep["complete"] is True
        runs = db.run_records(task="testing.sleep_echo")
        assert len(runs) == 3
        assert {run["result"]["value"] for run in runs} == {0, 1, 2}
        for run in runs:
            assert run["sweeps"] == [sweep["sweep"]]

    def test_find_and_diff(self, populated_root):
        db = ResultsDB(populated_root)
        runs = db.run_records(task="testing.sleep_echo")
        ref_a = f"testing.sleep_echo/{runs[0]['key']}"
        ref_b = f"testing.sleep_echo/{runs[1]['key']}"
        assert db.find(ref_a)["key"] == runs[0]["key"]
        with pytest.raises(KeyError):
            db.find("testing.sleep_echo/nope")
        delta = db.diff(ref_a, ref_b)
        assert "value" in delta["params"]
        assert "value" in delta["result"]

    def test_sweeps_and_runs_cli(self, populated_root, capsys):
        root = str(populated_root)
        assert main(["sweeps", "--artifact-dir", root]) == 0
        assert "done" in capsys.readouterr().out
        assert main(["runs", "list", "--artifact-dir", root]) == 0
        listing = capsys.readouterr().out
        assert "testing.sleep_echo" in listing
        key = ResultsDB(populated_root).run_records()[0]["key"]
        ref = f"testing.sleep_echo/{key}"
        assert main(["runs", "show", ref, "--artifact-dir", root]) == 0
        assert "value" in capsys.readouterr().out
        assert main(["runs", "show", "testing.sleep_echo/nope", "--artifact-dir", root]) == 2
        capsys.readouterr()


# --------------------------------------------------------------------------- #
# CLI plumbing: hub status, --connect validation
# --------------------------------------------------------------------------- #
class TestHubCli:
    def test_hub_status_command(self, tmp_path, capsys):
        with running_hub(tmp_path) as (_hub, address):
            code = main(["hub", "status", "--connect", f"{address[0]}:{address[1]}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweeps" in out

    def test_connect_conflicts_with_loopback_flags(self):
        with pytest.raises(ValueError, match="spawn_workers"):
            DistributedBackend(connect=("127.0.0.1", 9), spawn_workers=2)
        with pytest.raises(ValueError, match="priority"):
            DistributedBackend(priority=3)

    def test_cli_connect_rejects_loopback_only_flags(self):
        spec = "examples/scenario_benign_congest.json"
        with pytest.raises(SystemExit):
            main(
                [
                    "scenario",
                    "run",
                    spec,
                    "--connect",
                    "127.0.0.1:9",
                    "--spawn-workers",
                    "2",
                ]
            )
        with pytest.raises(SystemExit):
            main(["scenario", "run", spec, "--priority", "1"])
