"""Shared experiment infrastructure: result records and sweep helpers."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.analysis.tables import render_table
from repro.runner import SweepConfig, SweepRunner
from repro.scenarios import Scenario

__all__ = [
    "ExperimentResult",
    "mean_or_none",
    "median_or_none",
    "run_configs",
    "run_scenarios",
]


def run_configs(
    configs: Sequence[SweepConfig], runner: Optional[SweepRunner] = None
) -> List[Any]:
    """Execute a driver's config list through ``runner``.

    Drivers call this with the runner handed to ``run_experiment``; when none
    was given they fall back to a fresh serial, cache-less
    :class:`~repro.runner.sweep.SweepRunner`, which reproduces the historical
    in-process behaviour exactly.
    """
    return (runner if runner is not None else SweepRunner()).run(configs)


def run_scenarios(
    scenarios: Sequence[Scenario], runner: Optional[SweepRunner] = None
) -> List[Dict[str, Any]]:
    """One ``scenario.run`` metrics dict per (scenario, seed), in order."""
    return run_configs(
        [config for scenario in scenarios for config in scenario.compile()], runner
    )


def mean_or_none(values: Iterable[Optional[float]]) -> Optional[float]:
    """Mean of the non-None values, or ``None`` if there are none."""
    filtered = [v for v in values if v is not None]
    return statistics.fmean(filtered) if filtered else None


def median_or_none(values: Iterable[Optional[float]]) -> Optional[float]:
    """Median of the non-None values, or ``None`` if there are none."""
    filtered = [v for v in values if v is not None]
    return statistics.median(filtered) if filtered else None


@dataclass
class ExperimentResult:
    """Uniform result of one experiment run.

    Attributes
    ----------
    experiment:
        Identifier (``"E1"`` ... ``"E12"``).
    claim:
        One-line statement of the paper claim being reproduced.
    rows:
        The regenerated table, one dict per row.
    notes:
        Free-form observations recorded alongside the table (e.g. which
        acceptance checks passed).
    """

    experiment: str
    claim: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **kwargs: object) -> None:
        """Append one table row."""
        self.rows.append(dict(kwargs))

    def add_note(self, note: str) -> None:
        """Append one observation."""
        self.notes.append(note)

    def render(self) -> str:
        """Human-readable table plus notes (what the benchmarks print)."""
        parts = [f"[{self.experiment}] {self.claim}", render_table(self.rows)]
        if self.notes:
            parts.append("Notes:")
            parts.extend(f"  - {note}" for note in self.notes)
        return "\n".join(parts)

    def column(self, name: str) -> List[object]:
        """All values of one column (missing entries become ``None``)."""
        return [row.get(name) for row in self.rows]
