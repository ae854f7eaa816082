"""The ``distributed`` execution backend: a Sweep Hub behind the runner API.

``SweepRunner(backend=DistributedBackend(...))`` executes its pending work
items by submitting them to a :class:`~repro.runner.hub.service.SweepHub`
with a :class:`~repro.runner.hub.client.HubSubmission` and yielding
completions as the hub streams them back.  The hub is either

- the standing hub at ``connect=(host, port)`` (``--connect HOST:PORT`` on
  the runner CLIs), which owns its worker fleet and artifact persistence
  and fair-shares the fleet across concurrent clients; or
- without ``connect``, a hub this backend starts in-process on ``listen``
  for the duration of one sweep, with the backend's store, lease, retry,
  chunk and fault settings.  It answers ``done`` once the sweep has
  drained, so one-shot workers exit.  With ``spawn_workers > 0`` the
  backend forks that many loopback workers into it
  (:func:`spawn_loopback_worker`) once the hub has accepted the sweep,
  respawns any that crash mid-sweep (up to a bounded budget), and
  terminates them when the sweep finishes.  Forked workers start at once,
  with every module already imported, and inherit the task registry and
  any in-process patches -- perfbench's tracer wrappers, for one -- just
  as the fork pool's workers do.  With ``spawn_workers == 0`` (listen
  mode) the backend announces the hub address and the exact ``worker``
  command to paste on remote machines on stderr, and waits for them.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import (
    Any, Callable, Dict, Iterator, List, NoReturn, Optional, Sequence, Tuple
)

from repro.runner.backends import CompletedItem, ExecutionBackend, WorkItem
from repro.runner.distributed.broker import BrokerError
from repro.runner.distributed.protocol import format_address
from repro.runner.distributed.worker import run_worker
from repro.runner.faults import FaultInjector, FaultPlan
from repro.runner.hub.client import HubSubmission
from repro.runner.hub.service import SweepHub

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
    """Hub/worker execution behind the unchanged ``SweepRunner`` API.

    Parameters
    ----------
    listen:
        ``(host, port)`` the backend's own hub binds.  Port ``0`` (the
        default) picks a free port -- the natural choice for loopback mode.
    spawn_workers:
        Local worker daemons to spawn per sweep (0 = listen-only).
    worker_procs:
        Local processes per spawned worker daemon.
    lease_ttl_s / max_retries / chunk_size:
        The own hub's lease semantics (see
        :class:`~repro.runner.distributed.broker.Broker`).
    fault_plan:
        Optional :class:`~repro.runner.faults.FaultPlan` to thread through
        the whole backend: the own hub consults it under the ``"broker"``
        salt, and every spawned loopback worker receives it (with a
        per-spawn ``worker-<ordinal>`` salt, so a respawned worker draws a
        fresh decision stream instead of deterministically re-crashing).
        ``None`` -- the production default -- injects nothing.
    respawn_factor:
        Respawn budget for crashed loopback workers, as a multiple of
        ``spawn_workers`` (beyond it the sweep fails rather than stalls).
        Chaos tests raise it so injected crash storms stay survivable.
    quiet:
        Suppress the stderr announcements (hub address, submission).
    connect:
        ``(host, port)`` of a standing Sweep Hub to submit to instead of
        starting one.  Mutually exclusive with the hub-owning knobs
        (``spawn_workers``, ``lease_ttl_s``, ``max_retries``,
        ``chunk_size``, ``fault_plan``): those belong to the hub's own
        configuration, and silently ignoring them here would mislead.
    priority / submit_name:
        Submission metadata: fair-share priority (connect mode only) and
        the display name shown by ``hub status``.
    reconnect_attempts:
        Connect mode only: consecutive failed hub-reconnect attempts the
        submission tolerates before giving up (see
        :class:`~repro.runner.hub.client.HubSubmission`).  ``0`` restores
        fail-fast; the default rides out hub restarts.  The own hub lives
        and dies with this process, so its submission never reconnects.
    """

    name = "distributed"
    parallel = True
    #: The hub persists fresh results through the ArtifactStore itself
    #: (before publishing them), so dispatch-time dedupe of duplicate
    #: configs never races the runner; the runner therefore skips its own
    #: store step for this backend.
    persists = True

    #: Default ``respawn_factor`` (see above).
    RESPAWN_FACTOR = 2

    #: The own hub's idle-stream heartbeat cadence: the respawn watch runs
    #: on every stream message, so it also bounds how long a crashed
    #: loopback worker goes unnoticed.
    HEARTBEAT_S = 0.25

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
        #: Hub stats of the most recent sweep (retries, cache hits, ...).
        self.last_stats: dict = {}
        #: The own hub's structured event log of the most recent sweep.
        self.last_events: List[Dict[str, Any]] = []
        #: The own hub's injected-fault counts of the most recent sweep.
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
        """Submit ``pending`` to the hub and stream its results.

        The hub persists fresh results into *its* artifact store.  The own
        hub gets the runner's ``store``; a standing hub has its own, so
        point the runner's ``--artifact-dir`` at the root it serves and the
        client-side journal, cache prefill and ``--resume`` compose exactly
        as with the own hub.
        """
        if not pending:
            return
        hub: Optional[SweepHub] = None
        workers: List[LoopbackWorker] = []
        address = self.connect
        if address is None:
            hub = SweepHub(
                store=store,
                host=self.listen[0],
                port=self.listen[1],
                lease_ttl_s=self.lease_ttl_s,
                max_retries=self.max_retries,
                chunk_size=self.chunk_size,
                injector=(
                    FaultInjector(self.fault_plan, salt="broker")
                    if self.fault_plan is not None
                    else None
                ),
                client_heartbeat_s=self.HEARTBEAT_S,
                done_when_drained=True,
            )
            address = hub.start()
        submission = HubSubmission(
            address,
            pending,
            name=self.submit_name,
            priority=self.priority,
            force=force,
            reconnect_attempts=self.reconnect_attempts if hub is None else 0,
            quiet=self.quiet,
            poll=self._watch(address, workers) if self.spawn_workers else None,
        )
        try:
            if not self.quiet:
                self._announce(address, len(pending), own_hub=hub is not None)
            yield from submission
        except BrokerError:
            # A sweep that failed on the own hub re-raises the hub's record:
            # an injected broker crash keeps its type and its resume hint.
            sweep = hub._queues.get(submission.sweep_id) if hub is not None else None
            if sweep is not None and sweep.failure is not None:
                raise sweep.failure from None
            raise
        finally:
            if hub is None:
                self.last_stats = dict(
                    submission.stats, reconnects=submission.reconnects
                )
                self.last_events = []
                self.last_faults = {}
            else:
                self.last_stats = dict(hub.stats, events_dropped=hub.events_dropped)
                self.last_events = list(hub.events)
                self.last_faults = hub.fault_counts
                hub.stop()
                stop_workers(workers)

    def _watch(
        self, address: Tuple[str, int], workers: List[LoopbackWorker]
    ) -> Callable[[], None]:
        """The loopback submission's ``poll``: fork the workers, then keep
        them alive.

        Its first call comes once the hub has accepted the sweep, so no
        worker can find the hub empty and exit; it forks the workers.
        Every later call replaces workers that died mid-sweep.  A worker
        that exited 0 saw the sweep drained or failed and stays down.  A
        bounded respawn budget turns a crash loop into a failed sweep
        instead of a stall.
        """
        budget = self.respawn_factor * self.spawn_workers
        respawns_left = budget
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

        def watch() -> None:
            nonlocal respawns_left
            if not workers:
                workers.extend(spawn_one() for _ in range(self.spawn_workers))
                return
            for i, process in enumerate(workers):
                if process.poll() in (None, 0):
                    continue
                if respawns_left <= 0:
                    raise BrokerError(
                        f"loopback workers keep dying (respawn budget of "
                        f"{budget} exhausted); see the hub retry stats for "
                        "the failing task"
                    )
                respawns_left -= 1
                workers[i] = spawn_one()

        return watch

    def _announce(self, address: Tuple[str, int], tasks: int, *, own_hub: bool) -> None:
        """Tell the user where the sweep goes (stderr)."""
        if not own_hub:
            message = f"submitting {tasks} task(s) to hub at {format_address(address)}"
        elif self.spawn_workers:
            return
        else:
            # A wildcard bind (0.0.0.0 / ::) is not a connectable address;
            # substitute this machine's hostname so the announced worker
            # command is paste-able on remote hosts.
            host, port = address
            if host in ("0.0.0.0", "::", ""):
                host = socket.gethostname()
            message = (
                f"hub listening on {format_address(address)} -- start workers "
                "with: repro-byzantine-counting worker --connect "
                f"{format_address((host, port))}"
            )
        sys.stderr.write(f"[sweep] {message}\n")
        sys.stderr.flush()
