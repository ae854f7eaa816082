"""Outside-in span tracer for the benchmark's traced runs.

The tracer never edits the program: for the duration of a traced run it
replaces public functions and methods with thin wrappers that record one
span per call and restores the originals afterwards.

A span is ``(name, start, end, parent, cell)``.  ``parent`` is the index of
the innermost open span on the same thread (``-1`` for a root) and ``cell``
the id of the enclosing cell-root span (``-1`` outside any cell).  Spans are
kept in memory in columnar arrays and written once, by :meth:`Tracer.save`,
when the run ends.

A layer's *self* time is a span's duration minus the durations of its
direct children, so self times of nested layers add up without double
counting.

``delays`` injects a synthetic slowdown: after a delayed function returns,
its wrapper busy-waits for ``fraction`` times the call's own duration, so
the layer looks that much slower (in CPU and wall time) to everything
around it.  The drill in ``drill.py`` uses this to check that the benchmark
notices a slower layer and names it.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

__all__ = ["Patcher", "Tracer", "spin_delay"]


def spin_delay(clock: Callable[[], float], start: float, fraction: float) -> None:
    """Busy-wait until ``fraction`` times the time since ``start`` has passed."""
    until = clock() + (clock() - start) * fraction
    while clock() < until:
        pass


class Patcher:
    """Replace attributes of modules and classes, and put them back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """Record spans of wrapped calls; optionally slow chosen spans down."""

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        cell_roots: Iterable[str] = (),
        delays: Optional[Mapping[str, float]] = None,
        record: bool = True,
    ) -> None:
        self.clock = clock
        self.cell_roots = frozenset(cell_roots)
        self.delays = dict(delays or {})
        self.record = record
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cell = array("q")
        self.cells = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _thread_state(self) -> threading.local:
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.cell = -1
        return state

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so each call records a span called ``name``."""
        clock = self.clock
        fraction = self.delays.get(name, 0.0)
        if not self.record:
            if not fraction:
                return fn

            @functools.wraps(fn)
            def slowed(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spin_delay(clock, start, fraction)

            return slowed

        name_id = self._name_id(name)
        is_root = name in self.cell_roots

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._thread_state()
            stack = state.stack
            outer_cell = state.cell
            with self._lock:
                if is_root:
                    state.cell = self.cells
                    self.cells += 1
                index = len(self.start)
                self.name.append(name_id)
                self.parent.append(stack[-1] if stack else -1)
                self.cell.append(state.cell)
                self.end.append(0.0)
                start = clock()
                self.start.append(start)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                if fraction:
                    spin_delay(clock, start, fraction)
                self.end[index] = clock()
                stack.pop()
                state.cell = outer_cell

        return traced

    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, summed ``total`` and summed ``self`` time."""
        if not self.start:
            return {}
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child_time = np.zeros_like(duration)
        nested = parents >= 0
        np.add.at(child_time, parents[nested], duration[nested])
        own = duration - child_time
        out: Dict[str, Dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "total": float(duration[mask].sum()),
                "self": float(own[mask].sum()),
            }
        return out

    def save(self, path: Path) -> None:
        """Write every span once, as columns (``numpy.load`` reads it back)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            cell=np.frombuffer(self.cell, dtype=np.int64),
        )
