"""The ``distributed`` execution backend: a broker behind the runner API.

``SweepRunner(backend=DistributedBackend(...))`` executes its pending work
items by starting a :class:`~repro.runner.distributed.broker.Broker` for
the duration of the sweep and yielding completions as workers stream them
in.  Two modes:

Loopback (``spawn_workers > 0``)
    The backend forks that many local worker-daemon processes from the
    sweep process (:func:`spawn_loopback_worker`), watches them while the
    sweep runs (a crashed worker is respawned, up to a bounded budget), and
    terminates them when the sweep finishes.  Forked workers start at once,
    with every module already imported, and inherit the task registry and
    any in-process patches -- perfbench's tracer wrappers, for one -- just
    as the fork pool's workers do.  This is the one-machine fan-out path --
    and what the fault-tolerance tests and ``make dist-demo`` exercise.

Listen (``spawn_workers == 0``)
    The backend binds ``listen`` and waits for externally started workers
    (any host that can reach the address).  The broker address and the
    exact ``worker`` command to paste on remote machines are announced on
    stderr.

Connect (``connect=(host, port)``)
    No private broker at all: the backend submits the sweep to a standing
    :class:`~repro.runner.hub.service.SweepHub` at that address and
    streams its results back.  The hub owns the worker fleet and the
    artifact persistence; many clients can submit concurrently and the
    hub fair-shares the fleet across them.  ``--connect HOST:PORT`` on
    the runner CLIs selects this mode.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, NoReturn, Optional, Sequence, Tuple

from repro.runner.backends import CompletedItem, ExecutionBackend, WorkItem
from repro.runner.distributed.broker import Broker, BrokerError
from repro.runner.distributed.protocol import format_address
from repro.runner.distributed.worker import run_worker
from repro.runner.faults import FaultInjector, FaultPlan

__all__ = [
    "DistributedBackend",
    "LoopbackWorker",
    "spawn_loopback_worker",
    "stop_workers",
]


class LoopbackWorker:
    """A forked loopback worker behind the ``subprocess.Popen`` surface.

    The backend's respawn watch, the bench tasks and :func:`stop_workers`
    manage workers through ``pid``, ``poll()``, ``wait(timeout)``,
    ``terminate()``, ``kill()`` and ``returncode``.  Like ``Popen``, a
    signal death reads as a negative return code.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: Optional[int] = None
        self._lock = threading.Lock()

    def poll(self) -> Optional[int]:
        # One reaper at a time: a second waitpid on an already-reaped pid
        # would lose the exit status.
        with self._lock:
            if self.returncode is None:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
                if pid == self.pid:
                    self.returncode = os.waitstatus_to_exitcode(status)
            return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = 0.0005
        while True:
            code = self.poll()
            if code is not None:
                return code
            if deadline is not None and time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(f"loopback worker {self.pid}", timeout)
            delay = min(delay * 2, 0.05)
            time.sleep(delay)

    def _signal(self, sig: int) -> None:
        # An exited but unreaped child keeps its pid, so this never
        # signals a stranger.
        if self.poll() is None:
            os.kill(self.pid, sig)

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)


def _loopback_worker_main(address: Tuple[str, int], options: Dict[str, Any]) -> NoReturn:
    """Body of a forked loopback worker: silence stdio, run the daemon, exit."""
    code = 1
    try:
        devnull = os.open(os.devnull, os.O_RDWR)
        for fd in (0, 1, 2):
            os.dup2(devnull, fd)
        os.close(devnull)
        # Fresh stream objects too: a parent thread may have held the old
        # ones' locks at the moment of the fork.
        sys.stdout = sys.stderr = open(os.devnull, "w")
        # The backend reaps this process itself, so it is no daemon even
        # when forked from one (a pool process): a ``procs > 1`` worker
        # may start its own pool.
        multiprocessing.current_process().daemon = False
        code = run_worker(*address, **options)
    finally:
        # Never return into the parent's stack (an exception exits 1), and
        # skip its atexit work.
        os._exit(code)


def spawn_loopback_worker(
    address: Tuple[str, int],
    *,
    procs: int = 1,
    exit_when_drained: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    fault_salt: str = "",
) -> LoopbackWorker:
    """Fork a worker-daemon process connected to ``address``.

    The child shares this process's imported modules and task registry
    and starts serving at once.  It comes from a plain ``os.fork()``, not
    a ``multiprocessing`` process, so a daemonic pool process -- ``bench
    --workers N`` runs the loopback rows in one -- can start it too.  It
    is a direct child: the caller reaps it, and its CPU time and RSS count
    in this process's ``RUSAGE_CHILDREN``.  ``fault_plan`` (with its
    stream-separating ``fault_salt``) becomes the child's deterministic
    :class:`~repro.runner.faults.FaultInjector` schedule.  The child's
    stdin, stdout and stderr go to ``/dev/null``.  Platforms without
    ``os.fork`` have no loopback workers: use listen mode and start
    ``worker --connect`` processes instead.
    """
    if not hasattr(os, "fork"):
        raise RuntimeError(
            "loopback workers are forked and this platform cannot fork; "
            "use --listen and start `repro-byzantine-counting worker` processes"
        )
    options = {
        "procs": procs,
        "exit_when_drained": exit_when_drained,
        "fault_plan": fault_plan,
        "fault_salt": fault_salt,
    }
    pid = os.fork()
    if pid == 0:
        _loopback_worker_main(tuple(address), options)
    return LoopbackWorker(pid)


def stop_workers(workers: Sequence[LoopbackWorker]) -> None:
    """SIGTERM every live worker, then reap each; SIGKILL any that is still
    running 5 seconds later.

    SIGTERM lets a worker drain: it finishes its task in flight and
    abandons the rest of its lease back to the broker.
    """
    for process in workers:
        process.terminate()
    for process in workers:
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=5.0)


class DistributedBackend(ExecutionBackend):
    """Broker/worker execution behind the unchanged ``SweepRunner`` API.

    Parameters
    ----------
    listen:
        ``(host, port)`` for the broker socket.  Port ``0`` (the default)
        picks a free port -- the natural choice for loopback mode.
    spawn_workers:
        Local worker daemons to spawn per sweep (0 = listen-only).
    worker_procs:
        Local processes per spawned worker daemon.
    lease_ttl_s / max_retries / chunk_size:
        Broker lease semantics (see :class:`Broker`).
    fault_plan:
        Optional :class:`~repro.runner.faults.FaultPlan` to thread through
        the whole backend: the broker consults it under the ``"broker"``
        salt, and every spawned loopback worker receives it (with a
        per-spawn ``worker-<ordinal>`` salt, so a respawned worker draws a
        fresh decision stream instead of deterministically re-crashing).
        ``None`` -- the production default -- injects nothing.
    respawn_factor:
        Respawn budget for crashed loopback workers, as a multiple of
        ``spawn_workers`` (beyond it the sweep fails rather than stalls).
        Chaos tests raise it so injected crash storms stay survivable.
    quiet:
        Suppress the stderr announcement of the broker address.
    connect:
        ``(host, port)`` of a standing Sweep Hub to submit to instead of
        running a private broker.  Mutually exclusive with the
        broker-owning knobs (``spawn_workers``, ``lease_ttl_s``,
        ``max_retries``, ``chunk_size``, ``fault_plan``): those belong to
        the hub's own configuration, and silently ignoring them here would
        mislead.
    priority / submit_name:
        Hub-submission metadata (connect mode only): fair-share priority
        and the display name shown by ``hub status``.
    reconnect_attempts:
        Connect mode only: consecutive failed hub-reconnect attempts the
        submission tolerates before giving up (see
        :class:`~repro.runner.hub.client.HubSubmission`).  ``0`` restores
        fail-fast; the default rides out hub restarts.
    """

    name = "distributed"
    parallel = True
    #: The broker persists fresh results through the ArtifactStore itself
    #: (before publishing them), so dispatch-time dedupe of duplicate
    #: configs never races the runner; the runner therefore skips its own
    #: store step for this backend.
    persists = True

    #: Default ``respawn_factor`` (see above).
    RESPAWN_FACTOR = 2

    def __init__(
        self,
        *,
        listen: Tuple[str, int] = ("127.0.0.1", 0),
        spawn_workers: int = 0,
        worker_procs: int = 1,
        lease_ttl_s: float = 30.0,
        max_retries: int = 2,
        chunk_size: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        respawn_factor: Optional[int] = None,
        quiet: bool = False,
        connect: Optional[Tuple[str, int]] = None,
        priority: int = 0,
        submit_name: str = "",
        reconnect_attempts: int = 8,
    ) -> None:
        if spawn_workers < 0:
            raise ValueError(f"spawn_workers must be >= 0, got {spawn_workers}")
        if worker_procs < 1:
            raise ValueError(f"worker_procs must be >= 1, got {worker_procs}")
        if respawn_factor is not None and respawn_factor < 0:
            raise ValueError(f"respawn_factor must be >= 0, got {respawn_factor}")
        if connect is not None:
            conflicts = []
            if spawn_workers:
                conflicts.append("spawn_workers")
            if lease_ttl_s != 30.0:
                conflicts.append("lease_ttl_s")
            if max_retries != 2:
                conflicts.append("max_retries")
            if chunk_size is not None:
                conflicts.append("chunk_size")
            if fault_plan is not None:
                conflicts.append("fault_plan")
            if conflicts:
                raise ValueError(
                    "connect mode submits to a standing hub, which owns "
                    f"{', '.join(conflicts)}; configure them on `hub serve`"
                )
        elif priority:
            raise ValueError("priority only applies with connect (hub submission)")
        if reconnect_attempts < 0:
            raise ValueError(
                f"reconnect_attempts must be >= 0, got {reconnect_attempts}"
            )
        self.connect = connect
        self.priority = priority
        self.submit_name = submit_name
        self.reconnect_attempts = reconnect_attempts
        self.listen = listen
        self.spawn_workers = spawn_workers
        self.worker_procs = worker_procs
        self.lease_ttl_s = lease_ttl_s
        self.max_retries = max_retries
        self.chunk_size = chunk_size
        self.fault_plan = fault_plan
        self.respawn_factor = (
            self.RESPAWN_FACTOR if respawn_factor is None else respawn_factor
        )
        self.quiet = quiet
        #: Broker stats of the most recent sweep (retries, cache hits, ...).
        self.last_stats: dict = {}
        #: Broker structured event log of the most recent sweep.
        self.last_events: List[Dict[str, Any]] = []
        #: Broker-side injected-fault counts of the most recent sweep.
        self.last_faults: Dict[str, int] = {}

    def describe(self) -> str:
        if self.connect is not None:
            return f"distributed(hub {format_address(self.connect)})"
        if self.spawn_workers:
            return f"distributed(loopback x{self.spawn_workers})"
        return f"distributed(listen {format_address(self.listen)})"

    # ------------------------------------------------------------------ #
    def execute(
        self,
        pending: Sequence[WorkItem],
        *,
        store: Optional[Any] = None,
        force: bool = False,
    ) -> Iterator[CompletedItem]:
        if not pending:
            return
        if self.connect is not None:
            yield from self._execute_remote(pending, force=force)
            return
        host, port = self.listen
        broker_injector = (
            FaultInjector(self.fault_plan, salt="broker")
            if self.fault_plan is not None
            else None
        )
        broker = Broker(
            store=store,
            force=force,
            host=host,
            port=port,
            lease_ttl_s=self.lease_ttl_s,
            max_retries=self.max_retries,
            chunk_size=self.chunk_size,
            injector=broker_injector,
        )
        sweep = broker.submit(pending)
        address = broker.start()
        workers: List[LoopbackWorker] = []
        respawns_left = self.respawn_factor * self.spawn_workers
        # Every spawn (initial or respawn) gets the next ordinal, so each
        # worker process draws an independent deterministic fault stream.
        spawn_ordinals = itertools.count()

        def spawn_one() -> LoopbackWorker:
            return spawn_loopback_worker(
                address,
                procs=self.worker_procs,
                exit_when_drained=True,
                fault_plan=self.fault_plan,
                fault_salt=f"worker-{next(spawn_ordinals)}",
            )

        def watch_workers() -> None:
            # Replace loopback workers that died mid-sweep; a bounded budget
            # turns a crash loop into a failed sweep instead of a stall.
            nonlocal respawns_left
            for i, process in enumerate(workers):
                if process.poll() is None or broker.drained:
                    continue
                if respawns_left <= 0:
                    raise BrokerError(
                        f"loopback workers keep dying (respawn budget of "
                        f"{self.respawn_factor * self.spawn_workers} exhausted); "
                        "see the broker retry stats for the failing task"
                    )
                respawns_left -= 1
                workers[i] = spawn_one()

        try:
            if self.spawn_workers:
                workers.extend(spawn_one() for _ in range(self.spawn_workers))
            elif not self.quiet:
                # A wildcard bind (0.0.0.0 / ::) is not a connectable
                # address; substitute this machine's hostname so the
                # announced worker command is paste-able on remote hosts.
                host_part, port_part = address
                if host_part in ("0.0.0.0", "::", ""):
                    import socket as _socket

                    host_part = _socket.gethostname()
                connect_to = format_address((host_part, port_part))
                sys.stderr.write(
                    f"[sweep] broker listening on {format_address(address)} -- "
                    f"start workers with: repro-byzantine-counting worker "
                    f"--connect {connect_to}\n"
                )
                sys.stderr.flush()
            yield from sweep.results(poll=watch_workers if workers else None)
        finally:
            self.last_stats = dict(broker.stats)
            self.last_stats["events_dropped"] = broker.events_dropped
            self.last_events = list(broker.events)
            self.last_faults = dict(broker.fault_counts)
            broker.stop()
            stop_workers(workers)

    def _execute_remote(
        self, pending: Sequence[WorkItem], *, force: bool
    ) -> Iterator[CompletedItem]:
        """Submit ``pending`` to the standing hub and stream its results.

        The hub persists fresh results into *its* artifact store, so
        ``persists=True`` still holds; point the runner's ``--artifact-dir``
        at the same root the hub serves and the client-side journal, cache
        prefill, and ``--resume`` all compose exactly as with a private
        broker.  The runner's ``store`` argument is intentionally unused
        here -- persistence is the hub's job, and a second writer would
        only race it.
        """
        # Imported lazily: repro.runner.hub imports this module for the
        # backend seam, so a top-level import would be circular.
        from repro.runner.hub.client import HubSubmission

        if not self.quiet:
            sys.stderr.write(
                f"[sweep] submitting {len(pending)} task(s) to hub at "
                f"{format_address(self.connect)}\n"
            )
            sys.stderr.flush()
        submission = HubSubmission(
            self.connect,
            pending,
            name=self.submit_name,
            priority=self.priority,
            force=force,
            reconnect_attempts=self.reconnect_attempts,
            quiet=self.quiet,
        )
        try:
            yield from submission
        finally:
            self.last_stats = dict(submission.stats)
            self.last_stats["reconnects"] = submission.reconnects
            self.last_events = []
            self.last_faults = {}
