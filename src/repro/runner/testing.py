"""Importable support tasks for runner/backend tests and demos.

A worker daemon started on its own (``repro-byzantine-counting worker``, on
any host) resolves tasks in a **fresh interpreter**, so tasks used to
exercise it must live in an importable module (each work item ships its
registering module's name; see
:func:`repro.runner.backends.execute_work_item`).  Tasks defined inside the
test files themselves would only resolve in forked workers (the pool
backend's, and the loopback workers of the distributed backend) -- these
live here instead.

They are also useful knobs on their own: ``testing.sleep_echo`` gives a
task whose duration is a parameter (fault-injection windows, progress-line
demos), ``testing.boom`` a task that deterministically fails (retry-budget
behaviour).
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.runner.registry import sweep_task

__all__ = ["sleep_echo", "boom"]


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
