"""Declarative scenario suites: scenarios plus their table presentation.

A :class:`ScenarioSuite` is what an experiment driver *is*, as data: a list
of scenarios, and for each a table row -- leading ``static`` columns (values
known at spec time: n, ln n, the behaviour name, the round budget) followed
by ``columns`` mapping column names to metric reductions over the scenario's
seeds.  ``ScenarioSuite.run`` compiles every scenario, executes the flat
config list through a :class:`~repro.runner.sweep.SweepRunner`, and
aggregates the metrics into an ``ExperimentResult`` -- so a committed JSON
suite regenerates a driver's table byte-for-byte from the spec alone.

Column reductions
-----------------
A column value is either a metric key (reduced with the mean over seeds,
``None``-filtered exactly like ``mean_or_none``) or a mapping::

    {"metric": "decided_fraction", "reduce": "mean" | "first" | "median"
                                           | "min" | "max", "round": 3}

``round`` (optional) applies ``round(value, digits)`` after the reduction.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.runner.config import SweepConfig
from repro.runner.sweep import SweepRunner
from repro.scenarios.spec import Scenario

__all__ = ["SuiteRow", "ScenarioSuite"]


def _filtered(values: Sequence[Any]) -> List[Any]:
    return [v for v in values if v is not None]


def _reduce(spec: Union[str, Mapping[str, Any]], values: Sequence[Any]) -> Any:
    """Reduce one column's per-seed metric values to a table cell."""
    if isinstance(spec, str):
        spec = {"metric": spec}
    reducer = spec.get("reduce", "mean")
    if reducer == "first":
        value = values[0] if values else None
    else:
        filtered = _filtered(values)
        if not filtered:
            value = None
        elif reducer == "mean":
            value = statistics.fmean(filtered)
        elif reducer == "median":
            value = statistics.median(filtered)
        elif reducer == "min":
            value = min(filtered)
        elif reducer == "max":
            value = max(filtered)
        else:
            raise ValueError(
                f"unknown reducer {reducer!r}; options: "
                "['first', 'max', 'mean', 'median', 'min']"
            )
    digits = spec.get("round")
    if digits is not None and value is not None:
        value = round(value, int(digits))
    return value


@dataclass(frozen=True)
class SuiteRow:
    """One scenario and the table row it aggregates into."""

    scenario: Scenario
    #: Leading columns with spec-time constants ({} = none).
    static: Dict[str, Any] = field(default_factory=dict)
    #: Metric columns: column name -> metric key or reduction mapping.
    columns: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "static": dict(self.static),
            "columns": dict(self.columns),
        }

    @classmethod
    def from_dict(cls, value: Mapping[str, Any]) -> "SuiteRow":
        unknown = set(value) - {"scenario", "static", "columns"}
        if unknown:
            raise ValueError(f"unknown suite row keys: {sorted(unknown)}")
        return cls(
            scenario=Scenario.from_dict(value["scenario"]),
            static=dict(value.get("static", {})),
            columns=dict(value.get("columns", {})),
        )


@dataclass(frozen=True)
class ScenarioSuite:
    """An experiment expressed as data: scenarios plus table presentation."""

    experiment: str
    claim: str
    rows: List[SuiteRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def compile(self) -> List[SweepConfig]:
        """The flat config list of every scenario (in row, then seed order)."""
        return [config for row in self.rows for config in row.scenario.compile()]

    def run(self, runner: Optional[SweepRunner] = None):
        """Execute the suite and aggregate its table.

        Returns an :class:`~repro.experiments.common.ExperimentResult`
        (imported lazily: the experiments package imports this one).
        """
        from repro.experiments.common import ExperimentResult

        configs = self.compile()
        flat = (runner if runner is not None else SweepRunner()).run(configs)
        result = ExperimentResult(experiment=self.experiment, claim=self.claim)
        index = 0
        for row in self.rows:
            num_seeds = len(row.scenario.seeds)
            per_seed = flat[index : index + num_seeds]
            index += num_seeds
            cells = dict(row.static)
            for column, reduction in row.columns.items():
                metric = reduction if isinstance(reduction, str) else reduction["metric"]
                missing = [m for m in per_seed if metric not in m]
                if missing:
                    raise ValueError(
                        f"column {column!r} references unknown metric {metric!r}; "
                        f"available metrics: {sorted(missing[0])}"
                    )
                cells[column] = _reduce(reduction, [m[metric] for m in per_seed])
            result.add_row(**cells)
        for note in self.notes:
            result.add_note(note)
        return result

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "claim": self.claim,
            "rows": [row.to_dict() for row in self.rows],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, value: Mapping[str, Any]) -> "ScenarioSuite":
        unknown = set(value) - {"experiment", "claim", "rows", "notes"}
        if unknown:
            raise ValueError(f"unknown suite keys: {sorted(unknown)}")
        return cls(
            experiment=str(value.get("experiment", "scenario")),
            claim=str(value.get("claim", "")),
            rows=[SuiteRow.from_dict(row) for row in value.get("rows", [])],
            notes=[str(note) for note in value.get("notes", [])],
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSuite":
        return cls.from_dict(json.loads(text))
