"""Support tasks and broker helpers for the runner/backend tests.

A worker daemon started on its own (``repro-byzantine-counting worker``, or
a hub subprocess's fleet) resolves tasks in a **fresh interpreter**, so
tasks used to exercise it must live in an importable module (each work
item ships its registering module's name; see
:func:`repro.runner.backends.execute_work_item`).  Tasks defined inside the
test files themselves would only resolve in forked workers -- these live
here instead, and the tests put ``tests/`` on the ``PYTHONPATH`` of every
worker and hub subprocess they start (:data:`SUBPROCESS_ENV`).

``testing.sleep_echo`` is a task whose duration is a parameter
(fault-injection windows, progress-line demos), ``testing.boom`` a task
that deterministically fails (retry-budget behaviour).

:func:`submit` and :func:`completions` register a sweep on an in-process
broker and read its completion stream, for tests that drive a
:class:`~repro.runner.distributed.broker.Broker` directly instead of
submitting over TCP with :class:`~repro.runner.hub.client.HubSubmission`.
"""

from __future__ import annotations

import os
import queue
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional

from repro.runner.registry import sweep_task

__all__ = ["SUBPROCESS_ENV", "boom", "completions", "sleep_echo", "submit"]

ROOT = Path(__file__).resolve().parent.parent

#: Environment of the CLI subprocesses the tests start: the package sources
#: plus this directory, so a worker there resolves ``testing.*`` tasks.
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
}


@sweep_task("testing.sleep_echo")
def sleep_echo(*, value: Any, sleep_s: float = 0.0, scale: int = 1) -> Dict[str, Any]:
    """Sleep ``sleep_s`` seconds, then echo a deterministic result."""
    if sleep_s > 0:
        time.sleep(sleep_s)
    out = value * scale if isinstance(value, (int, float)) else value
    return {"value": out}


@sweep_task("testing.boom")
def boom(*, message: str = "boom") -> None:
    """Raise deterministically (exercises worker error reporting/retries)."""
    raise RuntimeError(message)


def submit(broker: Any, items: Any, *, name: str = "", priority: int = 0) -> Any:
    """Register ``items`` as one sweep on ``broker``; returns its queue."""
    with broker._lock:
        return broker._submit_locked(list(items), name=name, priority=priority)


def completions(
    sweep: Any,
    *,
    poll: Optional[Callable[[], None]] = None,
    poll_interval: float = 0.25,
) -> Iterator[Any]:
    """Yield ``sweep``'s ``(index, result, meta)`` completions as they land.

    Reads a listener from ``sweep.attach_listener()``; ``poll`` runs every
    ``poll_interval`` seconds while waiting.  Raises the sweep's failure if
    it fails.
    """
    listener, replay = sweep.attach_listener()
    try:
        yield from replay
        delivered = len(replay)
        while delivered < sweep.total:
            try:
                item = listener.get(timeout=poll_interval)
            except queue.Empty:
                if poll is not None:
                    poll()
                continue
            if not isinstance(item, tuple):  # the failure sentinel
                raise sweep.failure
            yield item
            delivered += 1
    finally:
        sweep.detach_listener(listener)
