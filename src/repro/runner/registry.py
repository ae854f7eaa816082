"""Registry of sweep task functions.

Configs reference tasks by *name* (a plain string) so that a
:class:`~repro.runner.config.SweepConfig` stays JSON-serializable and can be
executed in a worker process that only shares the installed code, not any
Python objects.  Modules register their task functions at import time::

    @sweep_task("e5.trial")
    def _trial(*, n, degree, trial_seed): ...

Resolution is lazy: the first lookup of an unknown name imports
``repro.experiments`` (which pulls in every driver module and therefore every
registration).  This keeps ``repro.runner`` free of an import cycle with the
experiment package while still letting freshly spawned workers resolve any
experiment task by name alone.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

__all__ = ["sweep_task", "resolve_task", "run_task", "registered_tasks"]

_TASKS: Dict[str, Callable[..., Any]] = {}


def sweep_task(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering ``fn`` as the sweep task called ``name``."""

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        existing = _TASKS.get(name)
        if existing is not None and existing is not fn:
            raise ValueError(f"sweep task {name!r} registered twice")
        _TASKS[name] = fn
        return fn

    return decorate


def resolve_task(name: str) -> Callable[..., Any]:
    """Look up a task by name, importing the experiment modules if needed."""
    if name not in _TASKS:
        # Populate the registry: importing the experiment package imports
        # every driver module, each of which registers its tasks.
        import repro.experiments  # noqa: F401  (import for side effect)
    try:
        return _TASKS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep task {name!r}; registered tasks: {sorted(_TASKS)}"
        ) from None


def run_task(name: str, params: Mapping[str, Any]) -> Any:
    """Execute the named task with ``params`` as keyword arguments."""
    return resolve_task(name)(**params)


def registered_tasks() -> Dict[str, Callable[..., Any]]:
    """Snapshot of the currently registered tasks (name -> function)."""
    return dict(_TASKS)
