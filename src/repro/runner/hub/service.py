"""The Sweep Hub service: a standing multi-tenant broker.

:class:`SweepHub` subclasses
:class:`~repro.runner.distributed.broker.Broker`: the
lease/retry/heartbeat/fault machinery, fair-share dispatch,
and dedupe-at-dispatch all come from the broker core.  What the hub adds
is the *client* side of the same port: connections whose first message is
``submit`` or ``status`` instead of a worker ``hello`` are handled here
(see :meth:`SweepHub._serve_client`), so one address serves the worker
fleet, sweep submissions, and status queries alike.

High-availability design (the hub surviving its own death, clients
surviving the hub's):

- **Identity dedupe.**  Every submission is keyed by its content-hash
  identity (:func:`~repro.runner.journal.sweep_identity` over the ordered
  task list).  Resubmitting an identity whose sweep is still registered
  re-attaches the stream to the live queue -- completed results replay,
  the rest arrive live -- instead of duplicating work.  That makes client
  reconnect idempotent by construction.
- **Hub journal.**  With ``state_dir`` set, every registered sweep gets
  a crash-safe :class:`~repro.runner.journal.SweepJournal` at
  ``hub-<identity>.state.json`` recording its submission and done
  indices (the same class, completion log and fold as the client-side
  sweep journal).  On restart,
  :meth:`adopt_journaled` re-registers every interrupted sweep and
  prefills it from the artifact store, so only tasks with no artifact
  behind them are re-queued for the fleet.  The journal is advisory: the
  artifact store stays the source of truth.
- **Stream liveness.**  The submission stream carries ``hub-heartbeat``
  messages whenever no result is ready, and ``accepted`` advertises the
  cadence, so clients keep a read timeout and detect a hung hub instead
  of blocking forever.
- **Admission control.**  With ``max_pending`` set, a submission that
  would push the hub-wide outstanding-task load past the bound is
  rejected with a structured ``busy`` + ``retry_after_s`` reply; clients
  back off and retry.  Re-attaching an existing identity adds no tasks
  and always passes.
- **Chaos sites.**  The ``crash-hub`` / ``hang-hub`` injector sites fire
  on the client result stream: a hang stalls the stream without closing
  it (exactly what the heartbeat timeout exists for), a crash calls
  :meth:`~repro.runner.distributed.broker.Broker.crash` -- abrupt death,
  no sweep teardown, recovery via journal re-adoption.

A client that dies mid-sweep stops receiving results, but its sweep keeps
executing: completions are retained on the queue's replay history (bounded
by the sweep size and history eviction), so the client's reconnect --
or a later resubmission of the same identity -- picks them up without
re-execution.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.runner.backends import WorkItem
from repro.runner.config import SweepConfig
from repro.runner.distributed.broker import (
    _FAILED,
    Broker,
    BrokerError,
    SweepQueue,
)
from repro.runner.distributed.protocol import (
    PROTOCOL_VERSION,
    send_message,
)
from repro.runner.journal import (
    HUB_FILE,
    SweepJournal,
    incomplete_journals,
    sweep_identity,
)

__all__ = ["SweepHub"]

import queue as _queue_mod


def _identity_of(items: List[WorkItem]) -> str:
    """The submission's content-hash identity (order-sensitive, like the
    client-side sweep journal's)."""
    return sweep_identity(
        [SweepConfig(task, params).canonical() for _i, task, params, _m in items]
    )


class SweepHub(Broker):
    """A persistent multi-sweep broker accepting TCP submissions.

    Construct like a :class:`Broker`; ``store`` is the shared artifact
    root every submission dedupes against and persists into.  Sweeps
    arrive over TCP (:class:`~repro.runner.hub.client.HubSubmission`), or
    from the state directory (:meth:`adopt_journaled`).  ``start()`` /
    ``stop()`` and the worker protocol are inherited unchanged.

    Hub-specific parameters
    -----------------------
    state_dir:
        Directory of the sweeps' crash-safe state files (one
        :class:`~repro.runner.journal.SweepJournal` each).  ``None``
        disables hub-side journaling (and restart re-adoption).
    max_pending:
        Hub-wide outstanding-task capacity; a submission that would
        exceed it gets a ``busy`` reply with ``retry_after_s``.  ``None``
        disables admission control.
    client_heartbeat_s:
        Cadence of ``hub-heartbeat`` messages on idle submission streams
        (also advertised to clients in ``accepted`` so their read timeout
        tracks it).
    admission_retry_s:
        The ``retry_after_s`` value sent with ``busy`` rejections.
    done_when_drained:
        Answer ``empty`` lease requests with ``done: true`` once every
        registered sweep has drained or failed, so one-shot workers exit.
        Off for a standing hub (``hub serve``), whose fleet is persistent;
        on for the distributed backend's hub, which serves one sweep.
    """

    def __init__(
        self,
        *,
        state_dir: Optional[Union[str, Any]] = None,
        max_pending: Optional[int] = None,
        client_heartbeat_s: float = 2.0,
        admission_retry_s: float = 1.0,
        done_when_drained: bool = False,
        **kwargs: Any,
    ) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if client_heartbeat_s <= 0:
            raise ValueError(
                f"client_heartbeat_s must be > 0, got {client_heartbeat_s}"
            )
        super().__init__(**kwargs)
        self.state_dir: Optional[Path] = None
        if state_dir is not None:
            self.state_dir = Path(state_dir)
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self.max_pending = max_pending
        self.client_heartbeat_s = client_heartbeat_s
        self.admission_retry_s = admission_retry_s
        self.done_when_drained = done_when_drained
        #: Live sweeps by content-hash identity (mutated under the broker
        #: lock; identity reattach and admission share one atomic check).
        self._identities: Dict[str, SweepQueue] = {}
        #: Their state-file journals (only with ``state_dir``).
        self._journals: Dict[str, SweepJournal] = {}
        self._stopping = False
        self.stats.setdefault("rejected_busy", 0)
        self.stats.setdefault("reattached", 0)
        self.stats.setdefault("adopted", 0)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Graceful stop.  Interrupted sweeps are failed broker-side (so
        in-process consumers unblock) but NOT marked failed in the hub
        journal: a gracefully stopped hub's sweeps stay ``incomplete`` on
        disk and re-adopt on the next ``hub serve --state``."""
        self._stopping = True
        super().stop()

    def adopt_journaled(self) -> List[Dict[str, Any]]:
        """Re-register every interrupted sweep from the state directory.

        For each journaled-but-incomplete submission: re-queue its tasks
        and restart its journal (the done list restarts empty; ``adopted``
        increments), then prefill from the artifact store so tasks that
        already have an artifact behind them complete as cache hits and
        only the rest go to the fleet.  Clients that resubmit the same identity
        re-attach to the adopted queue.  Returns one summary dict per
        adopted sweep.
        """
        if self.state_dir is None:
            return []
        adopted: List[Dict[str, Any]] = []
        for doc in incomplete_journals(self.state_dir, HUB_FILE.format("*")):
            try:
                identity = str(doc["identity"])
                items: List[WorkItem] = [
                    (
                        task["index"],
                        task["task"],
                        dict(task.get("params") or {}),
                        task.get("module"),
                    )
                    for task in doc["tasks"]
                ]
            except (KeyError, TypeError):
                continue  # malformed task record: leave the file, skip
            name = str(doc.get("name") or "")
            priority = int(doc.get("priority") or 0)
            force = bool(doc.get("force", False))
            with self._lock:
                if identity in self._identities:
                    # Already live: its record (done list included) is
                    # current, and rewriting it would lose completions.
                    continue
                sweep = self._register_locked(
                    items,
                    identity,
                    name=name,
                    priority=priority,
                    force=force,
                    adopted=True,
                )
                self.stats["adopted"] += 1
                self._event_locked(
                    "sweep-adopted",
                    sweep=sweep.key,
                    identity=identity,
                    tasks=sweep.total,
                )
            cached = self.prefill_from_store(sweep)
            adopted.append(
                {
                    "identity": identity,
                    "sweep": sweep.key,
                    "name": sweep.name,
                    "total": sweep.total,
                    "cached": cached,
                }
            )
        return adopted

    def _register_locked(
        self,
        items: List[WorkItem],
        identity: str,
        *,
        name: str,
        priority: int,
        force: bool,
        adopted: bool = False,
    ) -> SweepQueue:
        """Register a sweep and begin its journal in one broker-lock hold.

        No task of the sweep can be leased (or served as a dedupe hit)
        before the lock is released, so its journal exists before any
        completion can reach :meth:`_task_completed`.
        """
        sweep = self._submit_locked(
            items, name=name, priority=priority, force=force, identity=identity
        )
        self._identities[identity] = sweep
        if self.state_dir is not None:
            # A resubmitted (failed) identity restarts its file's journal.
            journal = self._journals.get(identity) or SweepJournal(
                self.state_dir / HUB_FILE.format(identity), "identity", identity
            )
            journal.begin(
                [
                    {"index": index, "task": task, "params": params, "module": module}
                    for index, task, params, module in items
                ],
                counter="adopted",
                restart=adopted,
                name=name,
                priority=priority,
                force=force,
            )
            self._journals[identity] = journal
        return sweep

    # ------------------------------------------------------------------ #
    # Journal hooks (called by the broker core)
    # ------------------------------------------------------------------ #
    def _task_completed(self, state: Any, *, cached: bool) -> None:
        sweep = state.sweep
        journal = self._journals.get(sweep.identity)
        # A failed sweep's document keeps its error, and a resubmission of
        # its identity restarts the journal: stragglers must not mark it.
        if journal is None or sweep.failure is not None:
            return
        journal.mark_done(state.index, cached=cached)
        if sweep.outstanding == 0:
            journal.finish()

    def _sweep_failed_locked(self, sweep: SweepQueue) -> None:
        # A gracefully stopping hub fails live sweeps broker-side only;
        # on disk they stay incomplete for re-adoption.
        journal = self._journals.get(sweep.identity)
        if journal is None or self._stopping:
            return
        journal.fail(str(sweep.failure))

    def _sweep_evicted_locked(self, sweep: SweepQueue) -> None:
        if sweep.identity is not None:
            if self._identities.get(sweep.identity) is sweep:
                del self._identities[sweep.identity]
                self._journals.pop(sweep.identity, None)

    # ------------------------------------------------------------------ #
    # Client protocol
    # ------------------------------------------------------------------ #
    def _serve_client(
        self, conn: socket.socket, reader: Any, message: Dict[str, Any]
    ) -> None:
        kind = message.get("type")
        if kind == "status":
            reply = dict(self.snapshot())
            reply["type"] = "status"
            self._safe_send(conn, reply)
            return
        if kind != "submit":
            self._safe_send(
                conn,
                {"type": "goodbye", "error": f"unknown client request {kind!r}"},
            )
            return
        if message.get("protocol") != PROTOCOL_VERSION:
            self._safe_send(
                conn,
                {
                    "type": "goodbye",
                    "error": f"expected submit with protocol {PROTOCOL_VERSION}",
                },
            )
            return
        try:
            items: List[WorkItem] = [
                (
                    task["id"],
                    task["task"],
                    dict(task.get("params") or {}),
                    task.get("module"),
                )
                for task in message.get("tasks") or ()
            ]
            seen = set()
            for item in items:
                if item[0] in seen:
                    raise ValueError(f"duplicate work item index {item[0]}")
                seen.add(item[0])
            identity = _identity_of(items)
            name = str(message.get("name") or "")
            priority = int(message.get("priority") or 0)
            force = bool(message.get("force", False))
            busy_reply: Optional[Dict[str, Any]] = None
            reattached = False
            with self._lock:
                existing = self._identities.get(identity)
                if existing is not None and existing.failure is None:
                    # Idempotent resubmission: re-attach to the live (or
                    # adopted) queue instead of duplicating the work.
                    sweep = existing
                    reattached = True
                    self.stats["reattached"] += 1
                    self._event_locked(
                        "client-reattach", sweep=sweep.key, identity=identity
                    )
                else:
                    if self.max_pending is not None:
                        load = sum(
                            q.outstanding
                            for q in self._queues.values()
                            if q.failure is None
                        )
                        if load + len(items) > self.max_pending:
                            self.stats["rejected_busy"] += 1
                            self._event_locked(
                                "submit-rejected-busy",
                                identity=identity,
                                tasks=len(items),
                                load=load,
                                capacity=self.max_pending,
                            )
                            busy_reply = {
                                "type": "busy",
                                "error": (
                                    f"hub at capacity ({load} pending tasks, "
                                    f"limit {self.max_pending})"
                                ),
                                "retry_after_s": self.admission_retry_s,
                            }
                    if busy_reply is None:
                        sweep = self._register_locked(
                            items,
                            identity,
                            name=name,
                            priority=priority,
                            force=force,
                        )
        except (BrokerError, KeyError, TypeError, ValueError) as exc:
            self._safe_send(
                conn, {"type": "goodbye", "error": f"bad submission: {exc}"}
            )
            return
        if busy_reply is not None:
            self._safe_send(conn, busy_reply)
            return
        self._safe_send(
            conn,
            {
                "type": "accepted",
                "sweep": sweep.key,
                "total": sweep.total,
                "identity": identity,
                "reattached": reattached,
                "heartbeat_s": self.client_heartbeat_s,
            },
        )
        self._stream_results(conn, sweep)

    def _stream_results(self, conn: socket.socket, sweep: SweepQueue) -> None:
        """Stream completions (replay + live) with idle heartbeats.

        A re-attaching client replays every completion so far -- it
        dedupes by index -- then rides the live stream.  ``hub-heartbeat``
        goes out whenever a heartbeat interval passes without a result, so
        a client with a read timeout can tell "slow sweep" from "hung or
        dead hub".  A dead client just ends this handler; the sweep keeps
        executing and its completions stay on the replay history.
        """
        listener, replay = sweep.attach_listener()
        try:
            delivered = 0
            for item in replay:
                if not self._send_result(conn, sweep, item):
                    return
                delivered += 1
            while delivered < sweep.total:
                try:
                    item = listener.get(timeout=self.client_heartbeat_s)
                except _queue_mod.Empty:
                    if self._stop.is_set():
                        return
                    if not self._safe_send(conn, {"type": "hub-heartbeat"}):
                        return
                    continue
                if item is _FAILED:
                    self._safe_send(
                        conn,
                        {
                            "type": "sweep-failed",
                            "sweep": sweep.key,
                            "error": str(sweep.failure),
                        },
                    )
                    return
                if not self._send_result(conn, sweep, item):
                    return
                delivered += 1
            stats: Dict[str, Any] = dict(sweep.counters())
            stats["events_dropped"] = self.events_dropped
            self._safe_send(
                conn, {"type": "sweep-done", "sweep": sweep.key, "stats": stats}
            )
        finally:
            sweep.detach_listener(listener)

    def _send_result(self, conn: socket.socket, sweep: SweepQueue, item: Any) -> bool:
        """Send one result, consulting the hub chaos sites first."""
        if self.injector is not None:
            hang = self.injector.hang_hub()
            if hang is not None:
                # A hub that stalls without closing anything: heartbeats
                # stop flowing on this stream, which is exactly what the
                # client read timeout exists to catch.
                self._event("fault-hang-hub", sweep=sweep.key)
                time.sleep(hang)
            if self.injector.crash_hub():
                self._event("fault-crash-hub", sweep=sweep.key)
                self.crash()
                return False
        index, result, meta = item
        return self._safe_send(
            conn, {"type": "result", "id": index, "result": result, "meta": meta}
        )

    def _safe_send(self, conn: socket.socket, message: Dict[str, Any]) -> bool:
        """Send to a client, tolerating its death; True while writable.

        Client sends bypass the fault injector's *wire* sites: those
        target the worker wire, and injected faults on the submission
        stream would just kill the (local, same-process-group) client
        connection.  The hub-level chaos sites (``crash-hub`` /
        ``hang-hub``) are consulted in :meth:`_send_result` instead.
        """
        try:
            send_message(conn, message)
            return True
        except OSError:
            return False
