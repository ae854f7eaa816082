"""The lease-based task queue core of the distributed sweep backend.

Two layers live here:

- :class:`SweepQueue` -- ONE sweep's task states, pending deque, retry
  budget, and completion stream.  It is the sweep-scoped queue core: pure
  bookkeeping, no sockets.
- :class:`Broker` -- the TCP service that multiplexes any number of
  SweepQueues over one shared worker fleet.  :meth:`Broker.submit`
  registers a sweep (before or while serving) and returns its queue,
  whose ``results()`` is that sweep's completion stream.  The
  distributed backend runs a private broker with one submitted sweep;
  the Sweep Hub (:mod:`repro.runner.hub`) is the long-lived subclass.

Dispatch is **lease-based**:

- a worker's ``lease`` request is granted a chunk of tasks with a deadline
  (``lease_ttl_s`` from now);
- a worker asks for its next lease *ahead*, before the last task of the
  lease in hand runs; such a request is never granted a task whose config
  is still in flight (leased, unreported), which stays at the front of the
  queue until the grant-time cache probe can dedupe it;
- every streamed result renews its lease's deadline, and every heartbeat
  renews every lease its connection holds (the one granted ahead too);
- a lease whose deadline passes -- or whose connection drops, the fast
  path for a killed worker -- returns its unfinished tasks to the front of
  its sweep's queue for re-dispatch;
- a task is re-dispatched at most ``max_retries`` times beyond its first
  attempt; exhausting that budget fails *its sweep* (other sweeps on the
  same broker keep running);
- a worker draining for shutdown may ``abandon`` unstarted lease members:
  they are requeued at the front without charging the retry budget, and so
  is a lease granted ahead whose predecessor was never finished when its
  connection drops or it expires.

**Fair-share dispatch** across sweeps: each lease is filled from a single
sweep, chosen as the highest-priority queue with work, ties broken by the
least-recently-granted queue.  Two same-priority sweeps therefore
interleave lease-by-lease -- a giant sweep cannot starve a small one --
while a higher priority always preempts at the next grant.

Tasks cross the wire under broker-global ids (``gid``), so concurrent
sweeps with overlapping config indices never collide; completions are
published back under the submitting client's own indices.

Duplicate results (a zombie worker finishing an expired lease) are ignored
after the first; since tasks are pure functions of their configs, whichever
copy arrives first is *the* result.

Before dispatching a task the broker re-checks the shared artifact cache
(``store``): a hit -- a duplicate config completed earlier in the same
sweep, or *another sweep on the same broker* -- is completed with the
cached result instead of shipped, and the grant pops on until it grants a
task or the queue is empty.  Each task builds its config and artifact key
once, at submission.  Fresh results are persisted through
:class:`~repro.runner.artifacts.ArtifactStore` exactly as the pool path
does, *before* entering the completion queue, so dedupe never races
persistence.
"""

from __future__ import annotations

import errno
import queue
import socket
import threading
import time
from collections import deque
from datetime import datetime, timezone
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.runner.artifacts import MISSING, ArtifactStore
from repro.runner.backends import CompletedItem, WorkItem
from repro.runner.config import SweepConfig
from repro.runner.distributed.protocol import (
    PROTOCOL_VERSION,
    close_in_forked_children,
    read_message,
    reader_for,
    send_message,
    set_nodelay,
)
from repro.runner.faults import FaultInjector

__all__ = ["Broker", "BrokerError", "InjectedBrokerCrash", "SweepQueue"]

#: Sentinel pushed on a sweep's completion queue when that sweep fails.
_FAILED = object()

#: Structured event-log cap; beyond it events are counted, not stored.
EVENTS_CAP = 500

#: Attempts (first try included) for persisting one artifact before the
#: failure is declared sweep-fatal.  Transient filesystem errors -- a busy
#: network mount, an injected ``artifact-write`` fault -- should cost a
#: short retry, not the sweep.
PERSIST_ATTEMPTS = 5

#: Finished (done or failed) sweeps kept registered for status/history on a
#: long-lived broker; beyond it the oldest finished sweeps are evicted so a
#: standing hub's memory stays bounded.  Zombie results for an evicted
#: sweep are dropped like results for an unknown task.
HISTORY_CAP = 50


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class BrokerError(RuntimeError):
    """A sweep-fatal broker condition (task retries exhausted, ...)."""


class InjectedBrokerCrash(BrokerError):
    """The fault injector's ``crash-broker`` site fired: the broker dies
    mid-sweep (after persisting, before publishing).  Recovery is the
    ordinary resume path: re-run the sweep with ``--resume``."""


class _TaskState:
    """One work item's broker-side lifecycle."""

    __slots__ = (
        "index", "task", "params", "module", "config", "key", "dispatches", "done",
        "gid", "sweep",
    )

    def __init__(self, item: WorkItem, gid: int, sweep: "SweepQueue") -> None:
        self.index, self.task, self.params, self.module = item
        #: Built once: the cache probe at grant time and the persist share it.
        self.config = SweepConfig(self.task, self.params)
        #: Its artifact key; equal keys are duplicate configs.  The cache
        #: probes and the persist reuse it.
        self.key = self.config.key()
        self.dispatches = 0
        self.done = False
        #: Broker-global wire id -- what workers see.  The submitting
        #: client's own ``index`` is only used when publishing completions.
        self.gid = gid
        self.sweep = sweep


class _Lease:
    __slots__ = ("lease_id", "worker_id", "pending", "deadline", "after")

    def __init__(
        self,
        lease_id: int,
        worker_id: str,
        ids: Set[int],
        deadline: float,
        after: Optional["_Lease"] = None,
    ):
        self.lease_id = lease_id
        self.worker_id = worker_id
        self.pending = ids
        self.deadline = deadline
        #: The lease its worker still held when this one was granted ahead.
        #: While that one has unreported members, this one has not started.
        self.after = after


class SweepQueue:
    """One sweep's task states, pending queue, and completion stream.

    Created by :meth:`Broker.submit`; all mutation happens under the
    broker's lock.  The submitting side consumes :meth:`results` -- an
    ``(index, result, meta)`` stream, failures included -- while the
    broker fills ``_completed`` as leases settle.
    """

    def __init__(
        self,
        key: str,
        *,
        name: str = "",
        priority: int = 0,
        force: bool = False,
        max_retries: int = 2,
        submit_seq: int = 0,
        identity: Optional[str] = None,
    ) -> None:
        self.key = key
        self.name = name or key
        self.priority = priority
        self.force = force
        self.max_retries = max_retries
        self.submit_seq = submit_seq
        #: Content-hash identity of the submitted task list (hub mode).
        #: The hub dedupes resubmissions by it; ``None`` on plain brokers.
        self.identity = identity
        self.tasks: Dict[int, _TaskState] = {}
        self.pending: deque = deque()
        self.total = 0
        self.outstanding = 0
        self.completed = 0
        self.cached = 0
        self.retries = 0
        self.worker_errors = 0
        self.failure: Optional[BaseException] = None
        #: Global grant sequence number of this queue's most recent lease;
        #: the fair-share tie-breaker (least recently granted wins).
        self.last_grant = 0
        self.started = False
        self.submitted_at = _utc_now()
        self.finished_at: Optional[str] = None
        self._completed: "queue.Queue" = queue.Queue()
        #: Completed items retained for replay to listeners that attach (or
        #: re-attach) after publication started; bounded by ``total`` and
        #: dropped with the queue at history eviction.
        self.history: List[CompletedItem] = []
        self._listeners: List["queue.Queue"] = []
        self._pub_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def publish(self, item: Any) -> None:
        """Hand one completion (or the failure sentinel) to every consumer.

        The :meth:`results` consumer reads ``_completed``; attached
        listeners (hub client streams, including clients re-attaching
        after a reconnect) get the same item, and completions are also
        retained in :attr:`history` so a listener attached later can
        replay what it missed.
        """
        with self._pub_lock:
            if item is not _FAILED:
                self.history.append(item)
            self._completed.put(item)
            for listener in self._listeners:
                listener.put(item)

    def attach_listener(self) -> Tuple["queue.Queue", List[CompletedItem]]:
        """Register a live completion listener; returns ``(queue, replay)``.

        Atomic with :meth:`publish`: the replay snapshot plus the live
        queue together carry every completion exactly once.  If the sweep
        already failed, the failure sentinel is re-delivered on the fresh
        queue so a late listener still observes it.
        """
        listener: "queue.Queue" = queue.Queue()
        with self._pub_lock:
            replay = list(self.history)
            self._listeners.append(listener)
            if self.failure is not None:
                listener.put(_FAILED)
        return listener, replay

    def detach_listener(self, listener: "queue.Queue") -> None:
        with self._pub_lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def results(
        self, *, poll: Optional[Any] = None, poll_interval: float = 0.25
    ) -> Iterator[CompletedItem]:
        """Yield ``(index, result, meta)`` as tasks complete, any order.

        ``poll`` (optional zero-arg callable) runs every ``poll_interval``
        while waiting.  Raises :class:`BrokerError` if the sweep fails.
        """
        delivered = 0
        while delivered < self.total:
            try:
                item = self._completed.get(timeout=poll_interval)
            except queue.Empty:
                if self.failure is not None:
                    raise self.failure
                if poll is not None:
                    poll()
                continue
            if item is _FAILED:
                raise self.failure  # type: ignore[misc]
            yield item
            delivered += 1

    # ------------------------------------------------------------------ #
    def counters(self) -> Dict[str, int]:
        """Per-sweep progress counters (the hub's ``sweep-done`` stats)."""
        return {
            "total": self.total,
            "completed": self.completed,
            "cached": self.cached,
            "retries": self.retries,
            "worker_errors": self.worker_errors,
        }

    def status(self) -> str:
        if self.failure is not None:
            return "failed"
        if self.outstanding == 0:
            return "done"
        if self.started:
            return "active"
        return "queued"

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe progress summary (callers hold the broker lock)."""
        return {
            "sweep": self.key,
            "name": self.name,
            "identity": self.identity,
            "priority": self.priority,
            "status": self.status(),
            "total": self.total,
            "done": self.total - self.outstanding,
            "cached": self.cached,
            "retries": self.retries,
            "submitted": self.submitted_at,
            "finished": self.finished_at,
            "error": str(self.failure) if self.failure is not None else None,
        }


class Broker:
    """Serve sweep work items to TCP workers, lease by lease.

    Sweeps arrive via :meth:`submit`, each as its own :class:`SweepQueue`.

    Parameters
    ----------
    store / force:
        The artifact cache settings.  With a store and ``force=False`` the
        broker dedupes against the cache at dispatch time (across *all*
        sweeps sharing it) and persists every fresh result through it.
        ``force`` is the default for submissions; :meth:`submit` can
        override it per sweep.
    host / port:
        Bind address (port ``0`` picks a free port; see :attr:`address`).
    lease_ttl_s:
        Lease lifetime without a result or heartbeat.  Workers heartbeat at
        a third of this, so only a hung or killed worker ever expires.
    max_retries:
        Default re-dispatch budget per task beyond its first attempt
        (per-sweep overridable via :meth:`submit`).
    chunk_size:
        Hard cap on tasks per lease (``None``: honor the worker's requested
        capacity, which defaults to its local process count).
    injector:
        Optional :class:`~repro.runner.faults.FaultInjector` for the
        broker-side fault sites (wire faults on broker sends, artifact-write
        failures, broker crashes).  ``None`` disables injection.
    """

    def __init__(
        self,
        *,
        store: Optional[ArtifactStore] = None,
        force: bool = False,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl_s: float = 30.0,
        max_retries: int = 2,
        chunk_size: Optional[int] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be > 0, got {lease_ttl_s}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.store = store
        self.force = force
        self.lease_ttl_s = lease_ttl_s
        self.max_retries = max_retries
        self.chunk_size = chunk_size
        self.injector = injector
        self._bind = (host, port)
        self.address: Optional[Tuple[str, int]] = None
        #: Structured event log (lease grants, expiries, retries, dedupe
        #: hits, sweep lifecycle, ...), capped at :data:`EVENTS_CAP`;
        #: surfaced in the sweep journal and on
        #: ``DistributedBackend.last_events``.
        self.events: List[Dict[str, Any]] = []
        self._events_dropped = 0
        self._t0 = time.monotonic()

        self._lock = threading.Lock()
        #: Registered sweeps by key, insertion-ordered (= submission order).
        self._queues: Dict[str, SweepQueue] = {}
        #: Broker-global wire id -> task state, across every live sweep.
        self._states: Dict[int, _TaskState] = {}
        self._next_gid = 0
        self._submit_seq = 0
        self._grant_seq = 0
        #: Connected worker fleet (by worker id), for hub status.
        self._workers: Dict[str, Dict[str, Any]] = {}
        self._leases: Dict[int, _Lease] = {}
        self._next_lease_id = 0
        self._stop = threading.Event()
        #: Set by :meth:`crash` (injected hub crash / tests): the broker
        #: died abruptly without failing its sweeps.
        self.crashed = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._connections: List[socket.socket] = []
        self.stats: Dict[str, int] = {
            "connections": 0,
            "leases": 0,
            "dispatched": 0,
            "completed": 0,
            "cache_hits": 0,
            "retries": 0,
            "expired_leases": 0,
            "worker_errors": 0,
            "duplicate_results": 0,
            "abandoned": 0,
        }

    # ------------------------------------------------------------------ #
    # Structured event log
    # ------------------------------------------------------------------ #
    def _event_locked(self, kind: str, **fields: Any) -> None:
        """Append one event (callers hold ``self._lock``)."""
        if len(self.events) >= EVENTS_CAP:
            self._events_dropped += 1
            return
        event = {"t": round(time.monotonic() - self._t0, 3), "event": kind}
        event.update(fields)
        self.events.append(event)

    def _event(self, kind: str, **fields: Any) -> None:
        with self._lock:
            self._event_locked(kind, **fields)

    @property
    def events_dropped(self) -> int:
        """Events beyond the cap (counted so the log is honest about it)."""
        return self._events_dropped

    @property
    def fault_counts(self) -> Dict[str, int]:
        """Broker-side injected-fault counts (empty without an injector)."""
        return dict(self.injector.injected) if self.injector is not None else {}

    # ------------------------------------------------------------------ #
    # Sweep registration
    # ------------------------------------------------------------------ #
    def submit(
        self,
        items: Sequence[WorkItem],
        *,
        name: str = "",
        priority: int = 0,
        force: Optional[bool] = None,
        max_retries: Optional[int] = None,
    ) -> SweepQueue:
        """Register a new sweep; safe to call while the broker is serving.

        Returns the sweep's :class:`SweepQueue`; consume its ``results()``
        for the completion stream.  ``force`` / ``max_retries`` default to
        the broker-level settings.
        """
        item_list = list(items)
        seen: Set[int] = set()
        for item in item_list:
            if item[0] in seen:
                raise ValueError(f"duplicate work item index {item[0]}")
            seen.add(item[0])
        with self._lock:
            return self._submit_locked(
                item_list,
                name=name,
                priority=priority,
                force=force,
                max_retries=max_retries,
            )

    def _submit_locked(
        self,
        item_list: Sequence[WorkItem],
        *,
        name: str = "",
        priority: int = 0,
        force: Optional[bool] = None,
        max_retries: Optional[int] = None,
        identity: Optional[str] = None,
    ) -> SweepQueue:
        """Register a sweep under ``self._lock`` (held by the caller).

        Split out of :meth:`submit` so the hub can make its
        identity-dedupe check and the registration one atomic step.
        """
        if self._stop.is_set():
            raise BrokerError("broker is stopping; submission rejected")
        key = f"s{self._submit_seq}"
        sweep = SweepQueue(
            key,
            name=name,
            priority=priority,
            force=self.force if force is None else force,
            max_retries=self.max_retries if max_retries is None else max_retries,
            submit_seq=self._submit_seq,
            identity=identity,
        )
        self._submit_seq += 1
        for item in item_list:
            state = _TaskState(item, self._next_gid, sweep)
            self._next_gid += 1
            sweep.tasks[state.gid] = state
            sweep.pending.append(state.gid)
            self._states[state.gid] = state
        sweep.total = sweep.outstanding = len(sweep.tasks)
        self._queues[key] = sweep
        self._event_locked(
            "sweep-submitted",
            sweep=key,
            name=sweep.name,
            tasks=sweep.total,
            priority=priority,
        )
        return sweep

    def prefill_from_store(self, sweep: SweepQueue) -> int:
        """Complete ``sweep``'s pending tasks already backed by artifacts.

        The re-adoption half of hub restart: probes the shared artifact
        store for every pending task (outside the lock, same discipline as
        :meth:`_grant`), completes hits as cache hits, publishes their
        results, and leaves only artifact-less tasks queued for the fleet.
        Returns the number of tasks completed from cache.
        """
        if self.store is None or sweep.force:
            return 0
        with self._lock:
            candidates = [sweep.tasks[gid] for gid in sweep.pending]
        hits: Dict[int, Any] = {}
        for state in candidates:
            if state.done:
                continue
            cached = self.store.load(state.config, state.key)
            if cached is not MISSING:
                hits[state.gid] = cached
        if not hits:
            return 0
        publish: List[Tuple[_TaskState, CompletedItem]] = []
        with self._lock:
            for state in candidates:
                if state.done or state.gid not in hits:
                    continue
                self._mark_done_locked(state, cache_hit=True)
                self._event_locked("dedupe-hit", task=state.gid, sweep=sweep.key)
                publish.append((state, (state.index, hits[state.gid], None)))
            done_gids = {state.gid for state, _ in publish}
            remaining = deque(gid for gid in sweep.pending if gid not in done_gids)
            sweep.pending.clear()
            sweep.pending.extend(remaining)
        for state, item in publish:
            state.sweep.publish(item)
            self._task_completed(state, cached=True)
        return len(publish)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, *, bind_retry_s: float = 0.0) -> Tuple[str, int]:
        """Bind, start the accept/reaper threads, return the bound address.

        ``bind_retry_s`` keeps retrying an ``EADDRINUSE`` bind for that
        long: a restarted hub re-binding its fixed port can transiently
        lose the address to lingering connection state or a reconnecting
        peer's loopback self-connect.
        """
        deadline = time.monotonic() + bind_retry_s
        while True:
            try:
                self._listener = socket.create_server(self._bind)
                break
            except OSError as exc:
                if exc.errno != errno.EADDRINUSE or time.monotonic() >= deadline:
                    raise
                time.sleep(0.2)
        self.address = self._listener.getsockname()[:2]
        close_in_forked_children(self._listener)
        for target in (self._accept_loop, self._reaper_loop):
            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self.address

    def stop(self) -> None:
        """Stop serving; close the listener and every connection.

        Unfinished sweeps are failed (their consumers' ``results()``
        streams raise instead of blocking forever) -- relevant only for a
        hub stopped mid-submission; the backend consumes its sweep before
        stopping.
        """
        self._stop.set()
        with self._lock:
            for sweep in self._queues.values():
                if sweep.outstanding > 0 and sweep.failure is None:
                    self._fail_queue_locked(
                        sweep, BrokerError("broker stopped with sweep incomplete")
                    )
        self._close_listener()
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)

    def crash(self) -> None:
        """Die abruptly, the way a SIGKILLed process would.

        Unlike :meth:`stop`, live sweeps are **not** failed: in-process
        consumers of a crashed broker lose their stream exactly like
        remote clients of a killed hub, and recover the same way --
        reconnect and resubmit against the restarted (re-adopting) hub.
        Used by the injected ``crash-hub`` fault site and by tests.
        """
        self.crashed.set()
        self._stop.set()
        self._close_listener()
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.close()
            except OSError:
                pass
        current = threading.current_thread()
        for thread in self._threads:
            if thread is not current:
                thread.join(timeout=2.0)

    def _close_listener(self) -> None:
        """Close the listener, waking the accept thread blocked on it.

        ``close()`` alone leaves a thread blocked in ``accept()`` asleep on
        Linux; ``shutdown`` makes that ``accept()`` fail at once.
        """
        if self._listener is None:
            return
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass

    def __enter__(self) -> "Broker":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def drained(self) -> bool:
        with self._lock:
            return all(q.outstanding == 0 for q in self._queues.values())

    # ------------------------------------------------------------------ #
    # Status (the hub side)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe live view: sweeps, fleet, leases, stats."""
        with self._lock:
            return {
                "address": list(self.address) if self.address else None,
                "uptime_s": round(time.monotonic() - self._t0, 1),
                "sweeps": [q.snapshot() for q in self._queues.values()],
                "workers": [dict(info) for info in self._workers.values()],
                "active_leases": len(self._leases),
                "stats": dict(self.stats),
                "events_dropped": self._events_dropped,
            }

    # ------------------------------------------------------------------ #
    # Accept / reap threads
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            set_nodelay(conn)
            close_in_forked_children(conn)
            with self._lock:
                self._connections.append(conn)
                self.stats["connections"] += 1
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            thread.start()

    def _reaper_loop(self) -> None:
        interval = max(0.05, self.lease_ttl_s / 4.0)
        while not self._stop.wait(interval):
            now = time.monotonic()
            with self._lock:
                expired = [
                    lease for lease in self._leases.values() if lease.deadline < now
                ]
                for lease in expired:
                    self.stats["expired_leases"] += 1
                    self._event_locked(
                        "lease-expired",
                        lease=lease.lease_id,
                        worker=lease.worker_id,
                        tasks=sorted(lease.pending),
                    )
                    self._requeue_lease_locked(
                        lease, reason=f"lease expired after {self.lease_ttl_s:.1f}s"
                    )

    # ------------------------------------------------------------------ #
    # Per-connection handler
    # ------------------------------------------------------------------ #
    def _serve(self, conn: socket.socket) -> None:
        worker_id = "?"
        conn_leases: Set[int] = set()
        is_worker = False
        try:
            reader = reader_for(conn)
            first = read_message(reader)
            if first is None:
                return
            if first.get("type") != "hello":
                # Not a worker handshake: hand the connection to the client
                # protocol (sweep submissions / status on a hub; a polite
                # goodbye on a plain broker).
                self._serve_client(conn, reader, first)
                return
            if first.get("protocol") != PROTOCOL_VERSION:
                send_message(
                    conn,
                    {
                        "type": "goodbye",
                        "error": f"expected hello with protocol {PROTOCOL_VERSION}",
                    },
                    injector=self.injector,
                )
                return
            is_worker = True
            worker_id = str(first.get("worker_id", "?"))
            with self._lock:
                self._event_locked("worker-connect", worker=worker_id)
                entry = self._workers.setdefault(
                    worker_id,
                    {
                        "worker": worker_id,
                        "host": str(first.get("host", "?")),
                        "pid": first.get("pid"),
                        "procs": first.get("procs", 1),
                        "connected": _utc_now(),
                    },
                )
                entry["connections"] = entry.get("connections", 0) + 1
            send_message(
                conn,
                {
                    "type": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "lease_ttl_s": self.lease_ttl_s,
                },
                injector=self.injector,
            )
            while not self._stop.is_set():
                message = read_message(reader)
                if message is None:
                    return
                kind = message.get("type")
                if kind == "lease":
                    self._grant(conn, worker_id, message, conn_leases)
                elif kind == "result":
                    self._on_result(message)
                elif kind == "error":
                    self._on_error(message, worker_id)
                elif kind == "heartbeat":
                    self._renew(conn_leases)
                elif kind == "abandon":
                    self._on_abandon(message, worker_id)
                else:
                    return  # protocol violation: drop the connection
        except (OSError, ValueError):
            pass  # connection lost / garbage on the wire: clean up below
        finally:
            with self._lock:
                if is_worker:
                    # Fast path for a killed worker: its unfinished leases
                    # are requeued the moment the connection drops, without
                    # waiting for the TTL reaper.
                    for lease_id in conn_leases:
                        lease = self._leases.get(lease_id)
                        if lease is not None:
                            self._event_locked(
                                "requeue-on-disconnect",
                                lease=lease_id,
                                worker=worker_id,
                                tasks=sorted(lease.pending),
                            )
                            self._requeue_lease_locked(
                                lease, reason=f"worker {worker_id} disconnected"
                            )
                    self._event_locked("worker-disconnect", worker=worker_id)
                    entry = self._workers.get(worker_id)
                    if entry is not None:
                        entry["connections"] = entry.get("connections", 1) - 1
                        if entry["connections"] <= 0:
                            del self._workers[worker_id]
                if conn in self._connections:
                    self._connections.remove(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _serve_client(self, conn: socket.socket, reader: Any, message: Dict[str, Any]) -> None:
        """A connection whose first message is not a worker hello.

        The base broker speaks no client protocol; the Sweep Hub overrides
        this with submission/status handling.
        """
        del reader
        send_message(
            conn,
            {
                "type": "goodbye",
                "error": f"expected hello with protocol {PROTOCOL_VERSION}",
            },
            injector=self.injector,
        )
        del message

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #
    def _pop_candidates_locked(
        self, capacity: int, in_flight: Optional[Set[str]] = None
    ) -> Tuple[Optional[SweepQueue], List[_TaskState]]:
        """Pick the fair-share sweep and pop up to ``capacity`` candidates.

        Eligible queues rank by ``(-priority, last_grant, submit_seq)``:
        strictly higher priority first, then the queue granted least
        recently -- so same-priority sweeps alternate lease-by-lease.  One
        lease never mixes sweeps.

        ``in_flight`` (lease-ahead requests only) holds the keys of leased,
        unreported tasks: popping stops at a task with one of those keys,
        which stays at the front of its queue until the copy in flight has
        been persisted and the grant-time cache probe can dedupe it.
        """
        ranked = sorted(
            (
                q
                for q in self._queues.values()
                if q.failure is None and q.pending
            ),
            key=lambda q: (-q.priority, q.last_grant, q.submit_seq),
        )
        for sweep in ranked:
            candidates: List[_TaskState] = []
            guard = None if sweep.force else in_flight
            blocked = False
            while sweep.pending and len(candidates) < capacity:
                state = sweep.tasks[sweep.pending[0]]
                if guard is not None and not state.done and state.key in guard:
                    blocked = True
                    break
                sweep.pending.popleft()
                if not state.done:
                    candidates.append(state)
            if blocked and not candidates:
                return None, []
            if candidates:
                self._grant_seq += 1
                sweep.last_grant = self._grant_seq
                sweep.started = True
                return sweep, candidates
        return None, []

    def _empty_done_locked(self) -> bool:
        """The ``done`` flag of an ``empty`` reply.

        True once every registered sweep has drained or failed, so
        one-shot workers may exit.  The hub overrides it: its fleet is
        persistent and more sweeps can arrive at any time.
        """
        return all(
            q.outstanding == 0 or q.failure is not None
            for q in self._queues.values()
        )

    def _grant(
        self,
        conn: socket.socket,
        worker_id: str,
        message: Dict[str, Any],
        conn_leases: Set[int],
    ) -> None:
        capacity = max(1, int(message.get("capacity", 1)))
        if self.chunk_size is not None:
            capacity = min(capacity, self.chunk_size)
        with self._lock:
            # A connection that still holds a live lease asks ahead: its
            # worker has not reported that lease's last task yet.
            conn_leases.intersection_update(self._leases)
            behind = self._leases[max(conn_leases)] if conn_leases else None
            in_flight = (
                self._in_flight_keys_locked()
                if behind is not None and self.store is not None
                else None
            )
        publish: List[Tuple[_TaskState, CompletedItem]] = []
        granted: List[_TaskState] = []
        # Pop until a task is granted or nothing is left to pop: a popped
        # batch of dedupe hits alone must not answer ``empty`` while
        # uncached work is still queued.
        while True:
            # Pop candidates under the lock, but probe the artifact cache
            # (disk, possibly a network mount) outside it: blocking I/O under
            # the global lock would stall heartbeat renewal and could expire
            # healthy leases.
            with self._lock:
                sweep, candidates = self._pop_candidates_locked(capacity, in_flight)
            hits: Dict[int, Any] = {}
            if sweep is not None and self.store is not None and not sweep.force:
                for state in candidates:
                    cached = self.store.load(state.config, state.key)
                    if cached is not MISSING:
                        hits[state.gid] = cached
            with self._lock:
                for state in candidates:
                    if state.done:  # a zombie result landed while we probed
                        continue
                    if state.gid in hits:
                        self._mark_done_locked(state, cache_hit=True)
                        self._event_locked(
                            "dedupe-hit", task=state.gid, sweep=state.sweep.key
                        )
                        publish.append(
                            (state, (state.index, hits[state.gid], None))
                        )
                        continue
                    state.dispatches += 1
                    granted.append(state)
                if granted:
                    assert sweep is not None
                    reply = self._lease_locked(worker_id, sweep, granted, behind)
                    conn_leases.add(reply["lease"])
                    break
                if not candidates:
                    reply = {"type": "empty", "done": self._empty_done_locked()}
                    break
        for state, item in publish:
            state.sweep.publish(item)
            self._task_completed(state, cached=True)
        send_message(conn, reply, injector=self.injector)

    def _in_flight_keys_locked(self) -> Set[str]:
        """Config keys of every leased task not yet reported."""
        states = self._states
        return {
            states[gid].key
            for lease in self._leases.values()
            for gid in lease.pending
            if gid in states
        }

    def _lease_locked(
        self,
        worker_id: str,
        sweep: SweepQueue,
        granted: List[_TaskState],
        behind: Optional[_Lease],
    ) -> Dict[str, Any]:
        """Register a lease over ``granted``; returns its ``tasks`` reply."""
        if behind is not None and behind.after is not None and not behind.after.pending:
            # ``behind`` has started: drop its link, or each lease would keep
            # every earlier lease of the session alive.
            behind.after = None
        lease_id = self._next_lease_id
        self._next_lease_id += 1
        self._leases[lease_id] = _Lease(
            lease_id,
            worker_id,
            {state.gid for state in granted},
            time.monotonic() + self.lease_ttl_s,
            behind,
        )
        self.stats["leases"] += 1
        self.stats["dispatched"] += len(granted)
        self._event_locked(
            "lease-grant",
            lease=lease_id,
            worker=worker_id,
            tasks=[state.gid for state in granted],
            sweep=sweep.key,
        )
        return {
            "type": "tasks",
            "lease": lease_id,
            "tasks": [
                {
                    "id": state.gid,
                    "task": state.task,
                    "params": state.params,
                    "module": state.module,
                }
                for state in granted
            ],
        }

    def _on_result(self, message: Dict[str, Any]) -> None:
        gid = message.get("id")
        result = message.get("result")
        meta = message.get("meta")
        with self._lock:
            self._settle_lease_member_locked(message.get("lease"), gid)
            state = self._states.get(gid)  # type: ignore[arg-type]
            if state is None:
                return
            if state.done:
                self.stats["duplicate_results"] += 1
                self._event_locked("duplicate-result", task=gid)
                return
            self._mark_done_locked(state)
        # Persist (disk I/O, so outside the lock) *before* publication:
        # dispatch-time dedupe of a duplicate config later in this sweep --
        # or in any concurrent sweep -- must find the artifact already on
        # disk.  Transient write failures get a short bounded retry; an
        # exhausted budget is sweep-fatal -- the task is already marked
        # done, so swallowing the error would leave its completion
        # unpublished and the consumer waiting forever.
        if self.store is not None and not self._persist_with_retry(state, result, meta):
            return
        if self.injector is not None and self.injector.crash_broker():
            # The nastiest crash point: the artifact is on disk but the
            # completion never reaches the consumer.  Resume must recover
            # purely from the artifact cache.
            self._event("fault-broker-crash", task=state.gid)
            with self._lock:
                self._fail_all_locked(
                    InjectedBrokerCrash(
                        "injected fault: broker crashed after persisting task "
                        f"{state.index}; re-run with --resume to recover"
                    )
                )
            return
        state.sweep.publish(
            (state.index, result, meta if isinstance(meta, dict) else {})
        )
        self._task_completed(state, cached=False)

    def _persist_with_retry(self, state: _TaskState, result: Any, meta: Any) -> bool:
        """Store one artifact, retrying transient failures; False = fatal."""
        assert self.store is not None
        error: Optional[Exception] = None
        for attempt in range(1, PERSIST_ATTEMPTS + 1):
            try:
                if self.injector is not None and self.injector.fail_artifact_write():
                    raise OSError("injected fault: artifact write failed")
                self.store.store(
                    state.config,
                    result,
                    meta=meta if isinstance(meta, dict) else {},
                    key=state.key,
                )
                return True
            except Exception as exc:  # noqa: BLE001 - surfaced via results()
                error = exc
                self._event("persist-retry", task=state.gid, attempt=attempt,
                            error=str(exc))
                if attempt < PERSIST_ATTEMPTS:
                    time.sleep(0.05 * attempt)
        with self._lock:
            self._fail_queue_locked(
                state.sweep,
                BrokerError(
                    f"failed to persist artifact for task {state.task!r} "
                    f"(config index {state.index}) after {PERSIST_ATTEMPTS} "
                    f"attempt(s): {error}"
                ),
            )
        return False

    def _on_error(self, message: Dict[str, Any], worker_id: str) -> None:
        gid = message.get("id")
        with self._lock:
            live = self._settle_lease_member_locked(message.get("lease"), gid)
            if not live:
                # A zombie error from an already-expired/requeued lease: the
                # task is owned elsewhere by now.  Acting on it would put a
                # duplicate entry in the queue and burn retry budget the
                # live copy never consumed.  (Zombie *results* are accepted
                # -- tasks are pure, so any copy is the result -- but zombie
                # errors are dropped.)
                return
            state = self._states.get(gid)  # type: ignore[arg-type]
            if state is None or state.done:
                return
            self.stats["worker_errors"] += 1
            state.sweep.worker_errors += 1
            detail = message.get("error", "worker error")
            self._event_locked(
                "worker-error", task=gid, worker=worker_id, error=str(detail)[:200]
            )
            self._retry_or_fail_locked(state, f"worker {worker_id}: {detail}")

    def _on_abandon(self, message: Dict[str, Any], worker_id: str) -> None:
        """A draining worker explicitly returns unstarted lease members.

        Unlike expiry or disconnect requeues, abandoned tasks go back to
        the front of their sweep's queue *without* charging the retry
        budget -- a graceful fleet scale-down must not eat into the budget
        that guards against genuinely failing tasks.
        """
        lease_id = message.get("lease")
        gids = message.get("ids") or ()
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None:
                return
            returned: List[int] = []
            for gid in gids:
                if gid not in lease.pending:
                    continue
                lease.pending.discard(gid)
                state = self._states.get(gid)
                if state is None or state.done:
                    continue
                state.dispatches = max(0, state.dispatches - 1)
                state.sweep.pending.appendleft(gid)
                returned.append(gid)
            if not lease.pending:
                self._leases.pop(lease_id, None)
            if returned:
                self.stats["abandoned"] += len(returned)
                self._event_locked(
                    "abandon",
                    lease=lease_id,
                    worker=worker_id,
                    tasks=returned,
                    sweep=self._states[returned[0]].sweep.key,
                )

    def _renew(self, conn_leases: Set[int]) -> None:
        """A heartbeat renews every lease its connection holds, a lease
        granted ahead (which its worker has not read yet) included."""
        with self._lock:
            deadline = time.monotonic() + self.lease_ttl_s
            for lease_id in conn_leases:
                lease = self._leases.get(lease_id)
                if lease is not None:
                    lease.deadline = deadline

    # ------------------------------------------------------------------ #
    # Locked helpers
    # ------------------------------------------------------------------ #
    def _settle_lease_member_locked(self, lease_id: Any, gid: Any) -> bool:
        """Record ``gid`` as reported under ``lease_id``; renew the lease.

        Returns whether the lease was live and actually held the task --
        i.e. whether the report came from the task's current owner rather
        than a zombie whose lease already expired.
        """
        lease = self._leases.get(lease_id)
        if lease is None:
            return False
        lease.deadline = time.monotonic() + self.lease_ttl_s
        held = gid in lease.pending
        lease.pending.discard(gid)
        if not lease.pending:
            del self._leases[lease.lease_id]
        return held

    def _requeue_lease_locked(self, lease: _Lease, *, reason: str) -> None:
        self._leases.pop(lease.lease_id, None)
        # A lease granted ahead of one its worker never finished was never
        # started: it goes back uncharged, like an abandoned one.
        unstarted = lease.after is not None and bool(lease.after.pending)
        for gid in lease.pending:
            state = self._states.get(gid)
            if state is None or state.done:
                continue
            if unstarted:
                state.dispatches = max(0, state.dispatches - 1)
                state.sweep.pending.appendleft(gid)
            else:
                self._retry_or_fail_locked(state, reason)

    def _retry_or_fail_locked(self, state: _TaskState, reason: str) -> None:
        sweep = state.sweep
        if sweep.failure is not None:
            return
        if state.dispatches > sweep.max_retries:
            self._event_locked(
                "retries-exhausted", task=state.gid, attempts=state.dispatches
            )
            self._fail_queue_locked(
                sweep,
                BrokerError(
                    f"task {state.task!r} (config index {state.index}) failed "
                    f"after {state.dispatches} attempt(s) "
                    f"(max_retries={sweep.max_retries}): {reason}"
                ),
            )
            return
        self.stats["retries"] += 1
        sweep.retries += 1
        self._event_locked(
            "retry",
            task=state.gid,
            attempt=state.dispatches,
            reason=reason[:200],
            sweep=sweep.key,
        )
        # Front of the queue: a recovered task should not wait behind the
        # whole remaining sweep.
        sweep.pending.appendleft(state.gid)

    def _mark_done_locked(self, state: _TaskState, *, cache_hit: bool = False) -> None:
        state.done = True
        sweep = state.sweep
        sweep.outstanding -= 1
        if cache_hit:
            sweep.cached += 1
            self.stats["cache_hits"] += 1
        else:
            sweep.completed += 1
            self.stats["completed"] += 1
        if sweep.outstanding == 0 and sweep.failure is None:
            sweep.finished_at = _utc_now()
            self._event_locked(
                "sweep-done",
                sweep=sweep.key,
                completed=sweep.completed,
                cached=sweep.cached,
            )
            self._evict_history_locked()

    def _fail_queue_locked(self, sweep: SweepQueue, error: BaseException) -> None:
        """Fail ONE sweep; its siblings on the same broker keep running."""
        if sweep.failure is not None:
            return
        sweep.failure = error
        sweep.finished_at = _utc_now()
        self._event_locked("sweep-failed", sweep=sweep.key, error=str(error)[:200])
        sweep.publish(_FAILED)
        self._sweep_failed_locked(sweep)

    # ------------------------------------------------------------------ #
    # Subclass hooks (the hub's journaling seam)
    # ------------------------------------------------------------------ #
    def _task_completed(self, state: _TaskState, *, cached: bool) -> None:
        """Hook: ``state`` completed and its result was published.

        Called OUTSIDE the lock (file I/O is allowed here) for every
        completion -- fresh result, dispatch-time dedupe hit, or
        re-adoption prefill.  The base broker does nothing; the hub marks
        it in the sweep's :class:`~repro.runner.journal.SweepJournal`,
        which it began under the lock when it registered the sweep.
        """

    def _sweep_failed_locked(self, sweep: SweepQueue) -> None:
        """Hook: ``sweep`` just failed (called under the lock)."""

    def _sweep_evicted_locked(self, sweep: SweepQueue) -> None:
        """Hook: ``sweep`` left the finished-history (called under the
        lock); the hub drops its identity mapping here."""

    def _fail_all_locked(self, error: BaseException) -> None:
        """A broker-global failure (injected crash): every live sweep dies.

        Live means not every completion is published yet: a sweep whose
        tasks are all marked done can still have one in flight -- the very
        one the crash swallows -- and its consumer must not wait forever.
        """
        for sweep in list(self._queues.values()):
            if sweep.failure is None and len(sweep.history) < sweep.total:
                self._fail_queue_locked(sweep, error)

    def _evict_history_locked(self) -> None:
        finished = [
            q
            for q in self._queues.values()
            if q.outstanding == 0 or q.failure is not None
        ]
        while len(finished) > HISTORY_CAP:
            oldest = finished.pop(0)
            for gid in oldest.tasks:
                self._states.pop(gid, None)
            self._queues.pop(oldest.key, None)
            self._sweep_evicted_locked(oldest)
