"""Sweep configurations: one JSON-serializable unit of experiment work.

A :class:`SweepConfig` names a registered task (see
:mod:`repro.runner.registry`) and the keyword arguments it should run with.
Because both fields are restricted to JSON-compatible values, every config has
a canonical serialization and therefore a stable content hash, which is what
keys the on-disk artifact cache (:mod:`repro.runner.artifacts`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

__all__ = ["SweepConfig", "canonical_json", "canonical_key"]


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace).

    Raises ``TypeError`` for values outside the JSON data model and
    ``ValueError`` for non-finite floats (``NaN``/``Infinity`` have no
    standard JSON encoding, so allowing them would put non-portable tokens
    into content hashes and artifact files) -- configs must stay plain,
    portable data so hashes are reproducible across processes.
    """
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise ValueError(
            f"non-finite float (NaN/Infinity) has no canonical JSON encoding: {exc}"
        ) from None


def canonical_key(canonical: str) -> str:
    """The content hash (hex, 20 chars) of a config's canonical JSON."""
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


#: Exact leaf types that can never hold a non-finite float.
_FINITE_LEAVES = frozenset({str, int, bool, type(None)})


def _plainly_finite(value: Any) -> bool:
    """True when ``value`` is a tree of exact JSON types without NaN/Infinity.

    The exact-type walk of the common case; False also for any other type
    (a ``Mapping``, a float subclass, ...), which the general walk decides.
    """
    kind = type(value)
    if kind in _FINITE_LEAVES:
        return True
    if kind is float:
        return math.isfinite(value)
    if kind is dict:
        return all(map(_plainly_finite, value.values()))
    if kind is list or kind is tuple:
        return all(map(_plainly_finite, value))
    return False


def _reject_non_finite(value: Any, path: str) -> None:
    """Fail fast on NaN/Infinity anywhere inside a params tree."""
    if _plainly_finite(value):
        return
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(
            f"SweepConfig params must be finite; {path} is {value!r} "
            "(NaN/Infinity cannot be canonically JSON-encoded or hashed)"
        )
    if isinstance(value, Mapping):
        for key, item in value.items():
            _reject_non_finite(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _reject_non_finite(item, f"{path}[{index}]")


@dataclass(eq=False)
class SweepConfig:
    """One (task, params) cell of a sweep.

    Attributes
    ----------
    task:
        Name of a task registered with :func:`repro.runner.registry.sweep_task`.
    params:
        Keyword arguments for the task.  Values must be JSON-serializable
        (numbers, strings, booleans, ``None``, lists, string-keyed dicts) so
        the config can be hashed and shipped to worker processes; non-finite
        floats are rejected at construction time.
    """

    task: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.params = dict(self.params)
        _reject_non_finite(self.params, "params")

    def canonical(self) -> str:
        """Canonical JSON form used for hashing and artifact headers."""
        return canonical_json({"task": self.task, "params": self.params})

    def key(self) -> str:
        """Stable content hash of this config (hex, 20 chars)."""
        return canonical_key(self.canonical())
