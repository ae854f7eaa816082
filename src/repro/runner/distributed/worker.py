"""The worker daemon of the distributed sweep backend.

``repro-byzantine-counting worker --connect HOST:PORT --workers N`` runs a
:class:`WorkerDaemon`: it connects to a broker, leases chunks of tasks
(requesting one per local process), executes them through the ordinary
sweep-task registry -- fanning out over a local ``multiprocessing`` pool
when ``procs > 1`` -- and streams each result (plus its execution metadata:
wall-clock seconds, worker pid, host name, worker id) back as it completes.

**Lease-ahead**: the request for the next lease goes out just before the
last task of the lease in hand starts (on the pool path, once the pool has
the whole lease), and its reply is read after that task reports.  The
broker grants the next lease, and persists and publishes each result,
while the worker runs a cell, so a task costs the worker one cell plus one
result line.  The worker holds at most one lease beyond the one it runs.
One heartbeat thread per broker session beats at a third of the broker's
lease TTL while a lease is in hand, and the broker renews every lease of
the connection on each beat -- the one granted ahead included -- so long
tasks never expire while the worker is alive.

The daemon is persistent by default: when a sweep drains (or the broker
goes away between sweeps) it disconnects and keeps polling the address, so
one worker pool can serve many successive sweeps.  Reconnects and
empty-queue polls both use **exponential backoff with jitter and a capped
ceiling** (:class:`~repro.runner.faults.Backoff`): a fleet of workers
facing a restarted broker spreads its reconnect attempts instead of
stampeding it, while a drained-but-alive broker is still polled promptly.
``exit_when_drained`` flips the daemon into one-shot mode for loopback
helpers and demos: it exits after the first drained sweep, or after
``giveup_attempts`` consecutive failed connection attempts (counted on the
backoff, not on wall-clock), so orphaned loopback workers cannot outlive a
crashed parent.

A :class:`~repro.runner.faults.FaultInjector` (optional, off by default)
threads the chaos sites through the daemon: refused connects, wire faults
on every sent line, worker crashes (``os._exit``) and heartbeat-suppressed
hangs mid-lease, and slowed tasks.

**Graceful shutdown** (fleet scale-down): :meth:`WorkerDaemon.request_shutdown`
(wired to SIGTERM by the ``worker`` CLI) finishes the task currently
executing, sends an ``abandon`` message explicitly returning the rest of
the lease to the broker -- an uncharged front-of-queue requeue, so the
tasks are regranted immediately instead of waiting out lease expiry and
burning a retry -- returns the lease granted ahead whole the same way, and
exits the daemon loop.  The multiprocessing-pool path finishes its
in-flight lease instead (results already fan out unordered, so there is no
single "current" task to stop after).

:func:`run_worker` is the one way a process becomes a worker: the
``worker`` CLI and the loopback workers the backend forks both call it.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runner.backends import WorkItem, execute_work_item
from repro.runner.distributed.protocol import (
    PROTOCOL_VERSION,
    connect,
    read_message,
    reader_for,
    send_message,
)
from repro.runner.faults import CRASH_EXIT_CODE, Backoff, FaultInjector, FaultPlan

__all__ = ["WorkerDaemon", "execute_leased_item", "run_worker"]


def execute_leased_item(item: WorkItem) -> Tuple[int, Any, Optional[Dict[str, Any]], Optional[str], Optional[str]]:
    """Run one leased task, never raising: ``(id, result, meta, error, tb)``.

    Module-level (and therefore picklable) so the daemon's local
    ``multiprocessing`` pool can map it; errors are captured per task so one
    failing task costs one ``error`` message, not the whole lease.
    """
    try:
        index, result, meta = execute_work_item(item)
        return index, result, meta, None, None
    except Exception as exc:  # noqa: BLE001 - reported to the broker
        return item[0], None, None, f"{type(exc).__name__}: {exc}", traceback.format_exc()


class WorkerDaemon:
    """Lease tasks from a broker and stream results back.

    Parameters
    ----------
    host / port:
        The broker address to connect (and keep reconnecting) to.
    procs:
        Local worker processes; the daemon requests ``procs`` tasks per
        lease so its pool stays fed.
    lease_capacity:
        Tasks to request per lease (default ``procs``).  Tests and drain
        scenarios raise it so one lease carries several serially-executed
        tasks.
    exit_when_drained:
        One-shot mode: return after the first drained sweep instead of
        polling for the next one.
    reconnect_delay_s / reconnect_max_s:
        Base and ceiling of the exponential reconnect backoff while the
        broker is unreachable (a completed handshake resets the streak).
    poll_interval_s / poll_max_s:
        Base and ceiling of the poll backoff while the queue is empty but
        the sweep is not drained (a granted lease resets the streak).
    giveup_attempts:
        In one-shot mode only: exit (code 1) after this many consecutive
        failed connection attempts, so orphaned loopback workers cannot
        outlive a crashed parent.  Counted on the backoff's failure streak,
        not on wall iterations.
    injector:
        Optional :class:`~repro.runner.faults.FaultInjector` threading the
        worker-side chaos sites (refused connects, wire faults, crashes,
        hangs, slow tasks) through the daemon.
    verbose:
        Log connection / lease events to ``log_stream`` (default stderr).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        procs: int = 1,
        lease_capacity: Optional[int] = None,
        worker_id: Optional[str] = None,
        exit_when_drained: bool = False,
        reconnect_delay_s: float = 0.5,
        reconnect_max_s: float = 15.0,
        poll_interval_s: float = 0.2,
        poll_max_s: float = 2.0,
        giveup_attempts: int = 8,
        injector: Optional[FaultInjector] = None,
        verbose: bool = False,
        log_stream: Optional[Any] = None,
    ) -> None:
        if procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        if lease_capacity is not None and lease_capacity < 1:
            raise ValueError(f"lease_capacity must be >= 1, got {lease_capacity}")
        if giveup_attempts < 1:
            raise ValueError(f"giveup_attempts must be >= 1, got {giveup_attempts}")
        self.host = host
        self.port = port
        self.procs = procs
        self.lease_capacity = lease_capacity if lease_capacity is not None else procs
        self._host = socket.gethostname()
        self.worker_id = worker_id or f"{self._host}:{os.getpid()}"
        self.exit_when_drained = exit_when_drained
        self.reconnect_delay_s = reconnect_delay_s
        self.reconnect_max_s = max(reconnect_delay_s, reconnect_max_s)
        self.poll_interval_s = poll_interval_s
        self.poll_max_s = max(poll_interval_s, poll_max_s)
        self.giveup_attempts = giveup_attempts
        self.injector = injector
        self.verbose = verbose
        self.log_stream = log_stream
        self._stop = threading.Event()
        self._drain = threading.Event()
        self._abandoned: List[int] = []
        self._send_lock = threading.Lock()
        self._suppress_heartbeats = threading.Event()
        #: The lease being run, read by the session's heartbeat thread.
        self._lease_in_hand: Any = None
        self._pool = None
        self._welcomed = False
        #: Tasks executed (including errored) since the daemon started.
        self.tasks_run = 0
        #: Consecutive failed connection attempts (mirrors the backoff
        #: streak; exposed for tests and post-mortems).
        self.connect_failures = 0

    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Ask the daemon loop to exit after the current lease (a lease
        granted ahead goes back to the broker through ``abandon``)."""
        self._stop.set()

    def request_shutdown(self) -> None:
        """Graceful shutdown: finish the current *task*, abandon the rest.

        The serial execution path stops between tasks; the unstarted
        remainder of the lease, and the lease granted ahead, are explicitly
        returned to the broker with ``abandon`` messages (uncharged,
        front-of-queue requeue) so another worker picks them up
        immediately.  The CLI wires SIGTERM here.
        """
        self._log("shutdown requested, draining current lease")
        self._drain.set()
        self._stop.set()

    def run(self) -> int:
        """The daemon loop; returns a process exit code."""
        backoff = Backoff(base_s=self.reconnect_delay_s, cap_s=self.reconnect_max_s)
        try:
            while not self._stop.is_set():
                sock = self._connect(backoff)
                if sock is None:
                    if self._backoff_or_give_up(backoff):
                        return 1
                    continue
                # Generous hello/welcome deadline; _session tightens it to a
                # multiple of the broker's lease TTL once known.  Without a
                # read timeout a broker host that dies silently (power loss,
                # partition -- no FIN/RST) would leave the daemon blocked in
                # readline forever instead of reconnecting.
                sock.settimeout(30.0)
                self._welcomed = False
                try:
                    drained = self._session(sock)
                except (OSError, ValueError):
                    drained = False
                finally:
                    try:
                        sock.close()
                    except OSError:
                        pass
                if self._welcomed:
                    # Only a broker that completed the handshake counts as
                    # "reachable": a TCP connect to some other service (or a
                    # protocol-mismatched broker) must not reset the give-up
                    # streak, or a one-shot worker would hammer it forever.
                    backoff.reset()
                    self.connect_failures = 0
                elif self._backoff_or_give_up(backoff):
                    return 1
                else:
                    continue
                if drained:
                    self._log("sweep drained")
                    if self.exit_when_drained:
                        return 0
                self._stop.wait(self.reconnect_delay_s)
            return 0
        finally:
            self._close_pool()

    def _connect(self, backoff: Backoff) -> Optional[socket.socket]:
        """One connection attempt; ``None`` on (possibly injected) failure."""
        if self.injector is not None and self.injector.refuse_connect():
            self._log("fault: connect refused by injector")
            return None
        # The connect timeout grows with the failure streak: a broker that
        # is merely slow to accept gets more patience on each retry, while
        # the first attempts stay snappy.
        timeout = min(10.0, 2.0 * (backoff.attempts + 1))
        try:
            return connect((self.host, self.port), timeout)
        except OSError:
            return None

    def _backoff_or_give_up(self, backoff: Backoff) -> bool:
        """Record one failed attempt; True when a one-shot worker gives up."""
        delay = backoff.next_delay()
        self.connect_failures = backoff.attempts
        if self.exit_when_drained and backoff.attempts >= self.giveup_attempts:
            self._log(
                f"no valid broker reachable after {backoff.attempts} "
                "attempt(s), giving up"
            )
            return True
        self._log(f"broker unreachable, retrying in {delay:.1f}s")
        self._stop.wait(delay)
        return False

    # ------------------------------------------------------------------ #
    def _session(self, sock: socket.socket) -> bool:
        """One broker connection; True when the sweep drained."""
        self._send(
            sock,
            {
                "type": "hello",
                "worker_id": self.worker_id,
                "host": self._host,
                "pid": os.getpid(),
                "procs": self.procs,
                "protocol": PROTOCOL_VERSION,
            },
        )
        reader = reader_for(sock)
        welcome = read_message(reader)
        if welcome is None or welcome.get("type") != "welcome":
            return False
        self._welcomed = True
        lease_ttl_s = float(welcome.get("lease_ttl_s", 30.0))
        # The broker replies to every lease request promptly (tasks or
        # empty), so a read stalling for several TTLs means the broker is
        # gone without a FIN; time out (socket.timeout is an OSError, so the
        # session aborts into the reconnect loop).
        sock.settimeout(max(10.0, 4.0 * lease_ttl_s))
        self._log(f"connected to {self.host}:{self.port}")
        done = threading.Event()
        heartbeater = threading.Thread(
            target=self._heartbeat_loop,
            args=(sock, max(0.1, lease_ttl_s / 3.0), done),
            daemon=True,
        )
        heartbeater.start()
        try:
            return self._lease_loop(sock, reader)
        finally:
            done.set()
            heartbeater.join(timeout=1.0)

    def _lease_loop(self, sock: socket.socket, reader: Any) -> bool:
        """Lease and run tasks until the sweep drains (True) or the session
        ends (False).

        The request for the next lease goes out before the current lease's
        last task runs, so the broker grants it while that task runs;
        ``ahead`` marks such a request whose reply is still unread.
        """
        poll = Backoff(base_s=self.poll_interval_s, cap_s=self.poll_max_s)
        ahead = False
        while True:
            if not ahead:
                if self._stop.is_set():
                    return False
                self._request_lease(sock)
            message = read_message(reader)
            if message is None:
                return False
            kind = message.get("type")
            if kind == "empty":
                if message.get("done"):
                    return True
                if not ahead:
                    self._stop.wait(poll.next_delay())
                ahead = False
                continue
            if kind != "tasks":
                return False
            poll.reset()
            if self._stop.is_set():
                # Stopping with a lease granted ahead: none of it started.
                ids = [task["id"] for task in message.get("tasks", ())]
                self._abandon(sock, message.get("lease"), ids)
                return False
            ahead = self._run_lease(sock, message)

    def _request_lease(self, sock: socket.socket) -> None:
        self._send(sock, {"type": "lease", "capacity": self.lease_capacity})

    def _run_lease(self, sock: socket.socket, message: Dict[str, Any]) -> bool:
        """Run one lease; True when it requested the next lease ahead."""
        lease_id = message.get("lease")
        items: List[WorkItem] = [
            (task["id"], task["task"], dict(task["params"]), task.get("module"))
            for task in message.get("tasks", ())
        ]
        self._log(f"lease {lease_id}: {len(items)} task(s)")
        asked = False

        def ask_ahead() -> None:
            nonlocal asked
            if not self._stop.is_set():
                self._request_lease(sock)
                asked = True

        self._lease_in_hand = lease_id
        try:
            for outcome in self._execute_items(items, ask_ahead):
                index, result, meta, error, tb = outcome
                self.tasks_run += 1
                self._inject_task_faults(index)
                if error is not None:
                    self._send(
                        sock,
                        {
                            "type": "error",
                            "lease": lease_id,
                            "id": index,
                            "error": error,
                            "traceback": tb,
                        },
                    )
                    continue
                meta = dict(meta or {})
                meta["host"] = self._host
                meta["worker_id"] = self.worker_id
                self._send(
                    sock,
                    {
                        "type": "result",
                        "lease": lease_id,
                        "id": index,
                        "result": result,
                        "meta": meta,
                    },
                )
        finally:
            self._lease_in_hand = None
            if self._abandoned:
                self._abandon(sock, lease_id, self._abandoned)
                self._abandoned = []
        return asked

    def _abandon(self, sock: socket.socket, lease_id: Any, ids: List[int]) -> None:
        """Return unstarted tasks of ``lease_id`` to the broker, uncharged."""
        try:
            self._send(sock, {"type": "abandon", "lease": lease_id, "ids": list(ids)})
            self._log(f"lease {lease_id}: abandoned {len(ids)} task(s)")
        except OSError:
            # Broker gone; it requeues them when it sees the connection drop.
            pass

    def _inject_task_faults(self, index: int) -> None:
        """Per-task chaos sites, applied between execution and reporting."""
        injector = self.injector
        if injector is None or not injector.enabled:
            return
        delay = injector.slow_task()
        if delay:
            time.sleep(delay)
        if injector.crash_worker():
            # A real crash: no goodbye, no result.  The broker sees the
            # dropped connection and requeues the lease.
            self._log(f"fault: crashing before reporting task {index}")
            os._exit(CRASH_EXIT_CODE)
        hang = injector.hang_worker()
        if hang:
            # A hung (but alive) worker: heartbeats stop, the lease is left
            # to expire, and the eventually-reported result arrives as a
            # zombie duplicate the broker must ignore.
            self._log(f"fault: hanging {hang:.1f}s on task {index}")
            self._suppress_heartbeats.set()
            try:
                time.sleep(hang)
            finally:
                self._suppress_heartbeats.clear()

    def _execute_items(self, items: List[WorkItem], ask_ahead: Callable[[], None]):
        """Yield each item's outcome; call ``ask_ahead`` once the lease's
        last task is about to start (the pool starts them all at once)."""
        if self.procs > 1 and len(items) > 1:
            # The pool has the whole lease in flight; finish it.  Graceful
            # drain only short-circuits the serial path below.
            outcomes = self._ensure_pool().imap_unordered(execute_leased_item, items)
            ask_ahead()
            yield from outcomes
        else:
            last = len(items) - 1
            for position, item in enumerate(items):
                if self._drain.is_set():
                    self._abandoned.extend(entry[0] for entry in items[position:])
                    return
                if position == last:
                    ask_ahead()
                yield execute_leased_item(item)

    def _heartbeat_loop(
        self, sock: socket.socket, interval: float, done: threading.Event
    ) -> None:
        """The session's one heartbeat thread: while a lease is in hand, a
        heartbeat every ``interval`` renews every lease the connection
        holds, the one granted ahead included."""
        while not done.wait(interval):
            lease_id = self._lease_in_hand
            if lease_id is None or self._suppress_heartbeats.is_set():
                continue
            try:
                self._send(sock, {"type": "heartbeat", "lease": lease_id})
            except OSError:
                return

    # ------------------------------------------------------------------ #
    def _send(self, sock: socket.socket, message: Dict[str, Any]) -> None:
        # Results (main thread) and heartbeats (side thread) share the
        # socket; serialize the line writes.
        with self._send_lock:
            send_message(sock, message, injector=self.injector)

    def _ensure_pool(self):
        if self._pool is None:
            from repro.runner.backends import worker_context

            self._pool = worker_context().Pool(
                processes=self.procs, initializer=_default_sigterm
            )
        return self._pool

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _log(self, text: str) -> None:
        if self.verbose:
            import sys

            stream = self.log_stream if self.log_stream is not None else sys.stderr
            stream.write(f"[worker {self.worker_id}] {text}\n")
            stream.flush()


def _default_sigterm() -> None:
    """Pool initializer: a pool process dies on SIGTERM.

    A forked pool process inherits :func:`run_worker`'s drain handler,
    which would leave it running: ``Pool.terminate`` would then wait on
    it forever, and a daemon killed while waiting orphans it.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def run_worker(
    host: str,
    port: int,
    *,
    fault_plan: Optional[FaultPlan] = None,
    fault_salt: str = "",
    **daemon_options: Any,
) -> int:
    """Run a :class:`WorkerDaemon` as this process's main loop; returns
    its exit code.

    ``fault_plan`` (with its stream-separating ``fault_salt``) becomes the
    daemon's :class:`~repro.runner.faults.FaultInjector`; every other
    keyword goes to :class:`WorkerDaemon`.  SIGTERM is wired to
    :meth:`WorkerDaemon.request_shutdown` -- graceful fleet scale-down
    finishes the task in flight and abandons the unstarted rest of the
    lease back to the broker, instead of dying mid-lease and costing a TTL
    expiry -- and Ctrl-C exits cleanly.
    """
    injector = (
        FaultInjector(fault_plan, salt=fault_salt) if fault_plan is not None else None
    )
    daemon = WorkerDaemon(host, port, injector=injector, **daemon_options)
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, lambda *_: daemon.request_shutdown())
    try:
        return daemon.run()
    except KeyboardInterrupt:
        return 0
