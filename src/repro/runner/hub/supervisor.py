"""Hub supervision: queue-depth watching and optional worker autoscaling.

:class:`HubSupervisor` is the hub's control loop.  Every ``interval_s``
it polls the hub's live :meth:`~repro.runner.distributed.broker.Broker
.snapshot` -- pending-task backlog across live sweeps, connected worker
fleet -- and:

- **emits scale signals** into the hub's structured event log
  (``autoscale`` events with ``action="scale-up" | "scale-down"``),
  transition-gated so a steady backlog logs one signal, not one per tick;
- **optionally acts on them**: with ``autoscale=(MIN, MAX)`` it maintains
  its own pool of persistent loopback worker processes
  (:func:`~repro.runner.distributed.backend.spawn_loopback_worker`) sized
  ``clamp(MIN, MAX, ceil(backlog / depth_per_worker))``.  Scale-down
  retires workers with SIGTERM -- the daemons' graceful drain ``abandon``s
  unstarted lease members back to the queue front, uncharged -- and
  workers that die unexpectedly are reaped and respawned within the same
  budget, so the pool self-heals alongside the hub.

Without ``autoscale`` the supervisor is signal-only: operators (or an
external orchestrator watching the event log / dashboard) do the scaling.
The supervisor never touches externally connected workers; its pool is
additive to whatever fleet dials in on its own.
"""

from __future__ import annotations

import math
import subprocess
import sys
import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.runner.distributed.broker import Broker

if TYPE_CHECKING:
    from repro.runner.distributed.backend import LoopbackWorker

__all__ = ["HubSupervisor"]

#: Sweep statuses whose remaining tasks count toward the backlog.
_LIVE_STATUSES = ("queued", "active")


class HubSupervisor:
    """Watch a hub's queue depth and fleet; signal and optionally scale.

    Parameters
    ----------
    hub:
        The :class:`~repro.runner.hub.service.SweepHub` (any broker with
        ``snapshot()`` / ``_event()`` works) under supervision.
    autoscale:
        ``(MIN, MAX)`` bounds for the supervisor-owned loopback worker
        pool, or ``None`` for signal-only mode.
    depth_per_worker:
        Backlog tasks one worker is expected to absorb; the pool targets
        ``ceil(backlog / depth_per_worker)`` clamped to the bounds.
    interval_s:
        Poll cadence of the background loop (:meth:`start`); :meth:`poll`
        can also be driven manually (tests, external loops).
    procs:
        ``--workers`` for each spawned loopback worker.
    verbose:
        Log supervisor actions to stderr.
    """

    def __init__(
        self,
        hub: Broker,
        *,
        autoscale: Optional[Tuple[int, int]] = None,
        depth_per_worker: int = 4,
        interval_s: float = 1.0,
        procs: int = 1,
        verbose: bool = False,
    ) -> None:
        if autoscale is not None:
            lo, hi = autoscale
            if lo < 0 or hi < lo:
                raise ValueError(
                    f"autoscale bounds must satisfy 0 <= MIN <= MAX, got {autoscale}"
                )
        if depth_per_worker < 1:
            raise ValueError(
                f"depth_per_worker must be >= 1, got {depth_per_worker}"
            )
        self.hub = hub
        self.autoscale = autoscale
        self.depth_per_worker = depth_per_worker
        self.interval_s = interval_s
        self.procs = procs
        self.verbose = verbose
        self._pool: List["LoopbackWorker"] = []
        self._last_action: Optional[str] = None
        self._last_desired: Optional[int] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.stats: Dict[str, int] = {
            "polls": 0,
            "spawned": 0,
            "retired": 0,
            "worker_deaths": 0,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop polling and retire the whole supervisor-owned pool."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        for proc in self._pool:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._pool:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._pool.clear()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.poll()
            except Exception as exc:  # noqa: BLE001 - supervision must survive
                self._log(f"poll failed: {exc}")

    # ------------------------------------------------------------------ #
    # One supervision tick
    # ------------------------------------------------------------------ #
    def poll(self) -> Dict[str, Any]:
        """One tick: measure, signal on transitions, reconcile the pool."""
        self.stats["polls"] += 1
        snap = self.hub.snapshot()
        backlog = sum(
            max(0, int(s.get("total", 0)) - int(s.get("done", 0)))
            for s in snap.get("sweeps", ())
            if s.get("status") in _LIVE_STATUSES
        )
        fleet = len(snap.get("workers", ()))
        own = self._reap()
        desired = self._desired(backlog)
        action = self._signal_for(backlog, fleet)
        if action is not None and (
            action != self._last_action or desired != self._last_desired
        ):
            self.hub._event(
                "autoscale",
                action=action,
                backlog=backlog,
                fleet=fleet,
                desired=desired if self.autoscale is not None else None,
            )
            self._log(
                f"{action}: backlog={backlog} fleet={fleet}"
                + (f" desired={desired}" if desired is not None else "")
            )
        self._last_action = action
        self._last_desired = desired
        if self.autoscale is not None and not self._stop.is_set():
            assert desired is not None
            own = self._reconcile(own, desired)
        return {
            "backlog": backlog,
            "fleet": fleet,
            "own_workers": own,
            "desired": desired,
            "action": action,
        }

    # ------------------------------------------------------------------ #
    def _desired(self, backlog: int) -> Optional[int]:
        if self.autoscale is None:
            return None
        lo, hi = self.autoscale
        wanted = math.ceil(backlog / self.depth_per_worker) if backlog else 0
        return max(lo, min(hi, wanted))

    def _signal_for(self, backlog: int, fleet: int) -> Optional[str]:
        """The scale signal this tick's measurements call for, if any."""
        if backlog > fleet * self.depth_per_worker:
            return "scale-up"
        if backlog == 0 and fleet > 0:
            return "scale-down"
        return None

    def _reap(self) -> int:
        """Drop exited pool members (counting unexpected deaths); returns
        the live pool size."""
        live: List["LoopbackWorker"] = []
        for proc in self._pool:
            if proc.poll() is None:
                live.append(proc)
            else:
                self.stats["worker_deaths"] += 1
                self._log(f"pool worker pid {proc.pid} exited {proc.returncode}")
        self._pool = live
        return len(live)

    def _reconcile(self, own: int, desired: int) -> int:
        from repro.runner.distributed.backend import spawn_loopback_worker

        while own < desired:
            proc = spawn_loopback_worker(
                self.hub.address,  # type: ignore[arg-type]
                procs=self.procs,
                exit_when_drained=False,
                verbose=self.verbose,
            )
            self._pool.append(proc)
            self.stats["spawned"] += 1
            self._log(f"spawned pool worker pid {proc.pid} ({own + 1}/{desired})")
            own += 1
        while own > desired:
            proc = self._pool.pop()
            if proc.poll() is None:
                # SIGTERM: the daemon drains gracefully, abandoning
                # unstarted lease members back to the queue uncharged.
                proc.terminate()
            self.stats["retired"] += 1
            self._log(f"retired pool worker pid {proc.pid} ({own - 1}/{desired})")
            own -= 1
        return own

    def _log(self, text: str) -> None:
        if self.verbose:
            sys.stderr.write(f"[hub-supervisor] {text}\n")
