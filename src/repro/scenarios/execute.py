"""Generic scenario execution: the ``scenario.run`` sweep task.

One cell = one (scenario, seed) pair.  Execution materializes the scenario
through the registries -- build the graph, place the Byzantine nodes,
construct the evaluation set, run the protocol (which also constructs the
adversary behaviour from the protocol's parameters) -- and then extracts a
*uniform metrics dict* from the outcome.  Drivers aggregate those metrics
into their tables; because every metric is computed with the same
``CountingOutcome`` calls the historical per-driver trial functions used,
the regenerated tables are byte-identical to the pre-scenario ones.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Set, Union

from repro.analysis import accuracy
from repro.core.estimate import ProtocolRun
from repro.graphs.expansion import good_set
from repro.graphs.graph import Graph
from repro.graphs.neighborhoods import ball_of_set
from repro.runner.registry import sweep_task
from repro.scenarios.churn import build_churn
from repro.scenarios.graphs import build_graph
from repro.scenarios.placements import place_byzantine
from repro.scenarios.protocols import run_protocol
from repro.scenarios.spec import SCENARIO_TASK, Scenario

__all__ = ["MaterializedCell", "materialize", "execute_cell"]

_CHECKS = {
    "theorem1": accuracy.theorem1_check,
    "theorem2": accuracy.theorem2_check,
    "corollary1": accuracy.corollary1_check,
}


@dataclass
class MaterializedCell:
    """Everything one scenario cell produced (for callers needing more than
    the metrics dict, e.g. the CLI ``run`` command printing histograms)."""

    scenario: Scenario
    seed: int
    graph: Graph
    byzantine: Set[int]
    evaluation_set: Optional[Set[int]]
    run: ProtocolRun
    metrics: Dict[str, Any]


def _evaluation_set(
    spec: Optional[Mapping[str, Any]], graph: Graph, byzantine: Set[int]
) -> Optional[Set[int]]:
    """Build the evaluation set named by the scenario's ``evaluation`` param.

    - ``None`` / ``{"kind": "all"}``: all honest nodes.
    - ``{"kind": "far", "radius": r}``: honest nodes at distance > r from
      every Byzantine node (the small-scale GoodTL stand-in).
    - ``{"kind": "good", "gamma": g}``: the Lemma 1 ``Good`` set.
    """
    if spec is None:
        return None
    kind = spec.get("kind", "all")
    if kind == "all":
        return None
    if kind == "far":
        radius = int(spec.get("radius", 1))
        contaminated = ball_of_set(graph, byzantine, radius)
        return {
            u
            for u in range(graph.n)
            if u not in contaminated and u not in byzantine
        }
    if kind == "good":
        return good_set(graph, byzantine, float(spec["gamma"]))
    raise ValueError(
        f"unknown evaluation kind {kind!r}; options: ['all', 'far', 'good']"
    )


def _run_check(
    spec: Optional[Mapping[str, Any]],
    outcome: Any,
    *,
    num_byzantine: int,
    round_budget: Optional[int],
) -> Optional[float]:
    """Evaluate the named theorem check, returning a 1.0/0.0 pass flag."""
    if spec is None:
        return None
    kwargs = {k: v for k, v in spec.items() if k != "name"}
    name = spec.get("name")
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}; options: {sorted(_CHECKS)}")
    if name == "theorem2":
        kwargs.setdefault("num_byzantine", num_byzantine)
        kwargs.setdefault("round_budget", round_budget)
    report = _CHECKS[name](outcome, **kwargs)
    return 1.0 if report.passed else 0.0


def _collect_metrics(cell: MaterializedCell) -> Dict[str, Any]:
    """The uniform metrics dict of one cell (every value JSON-serializable)."""
    scenario = cell.scenario
    run = cell.run
    outcome = run.outcome
    result_metrics = run.result.metrics
    low, high = scenario.params.get("band", accuracy.DEFAULT_BAND)

    estimates = outcome.estimates()
    histogram = Counter(estimates)
    modal_value, modal_count = (
        histogram.most_common(1)[0] if histogram else (None, 0)
    )
    messages_per_round = result_metrics.messages_per_round
    quiescent = bool(messages_per_round) and messages_per_round[-1] == 0
    min_estimate, max_estimate = outcome.estimate_range()
    round_budget = scenario.protocol.params.get("max_rounds")
    log_n = outcome.log_n
    median = statistics.median(estimates) if estimates else None
    relative_errors = [abs(e - log_n) / log_n for e in estimates]
    per_node = result_metrics.per_node

    return {
        "n": outcome.n,
        "num_byzantine": len(cell.byzantine),
        "eval_nodes": len(outcome.evaluation_set),
        "decided_fraction": outcome.decided_fraction(),
        "decided_fraction_all": outcome.decided_fraction(over_evaluation_set=False),
        "fraction_in_band": outcome.fraction_within_band(low, high),
        "fraction_in_band_all": outcome.fraction_within_band(
            low, high, over_evaluation_set=False
        ),
        "median_estimate": median,
        "median_estimate_all": outcome.median_estimate(over_evaluation_set=False),
        # Two error statistics: the median of the per-node errors, and the
        # error of the median estimate.
        "median_relative_error": (
            statistics.median(relative_errors) if relative_errors else None
        ),
        "median_estimate_error": (
            abs(median - log_n) / log_n if median is not None else None
        ),
        "min_estimate": min_estimate,
        "max_estimate": max_estimate,
        "max_estimate_all": outcome.estimate_range(over_evaluation_set=False)[1],
        "estimate_counts": [[value, count] for value, count in sorted(histogram.items())],
        "modal_estimate": modal_value,
        "modal_fraction": modal_count / max(1, len(outcome.evaluation_set)),
        "max_decision_round": outcome.max_decision_round(),
        "max_decision_round_all": outcome.max_decision_round(
            over_evaluation_set=False
        ),
        "rounds": outcome.max_decision_round() or outcome.rounds_executed,
        "rounds_executed": outcome.rounds_executed,
        "small_message_fraction": outcome.small_message_fraction,
        "messages": outcome.total_messages,
        "bits": outcome.total_bits,
        # Most node ids in one message sent by an honest node (footnote 1).
        "max_message_ids": max(
            (per_node[u].max_message_ids for u in outcome.records if u in per_node),
            default=0,
        ),
        "quiescent": 1.0 if quiescent else 0.0,
        "check_passed": _run_check(
            scenario.params.get("check"),
            outcome,
            num_byzantine=len(cell.byzantine),
            round_budget=round_budget,
        ),
        **_churn_metrics(cell),
        # Protocol-specific metrics (agreement rates, decided-value
        # distributions, phases-to-decide, group sizes), merged *after* the
        # uniform keys so zoo columns flow through the suite reducers like
        # any other metric; the paper protocols and the baselines add none.
        **run.extra_metrics,
    }


def _churn_metrics(cell: MaterializedCell) -> Dict[str, Any]:
    """Dynamic-topology metrics (present for every cell; None-valued when the
    run had no churn, so static tables and reducers are unaffected)."""
    result = cell.run.result
    metrics = result.metrics
    last_churn = metrics.last_churn_round
    outcome = cell.run.outcome
    if last_churn is None:
        return {
            "churn_events": metrics.churn_events,
            "rounds_to_reconverge": None,
            "stale_estimate_error": None,
        }

    departed = result.departed
    # Rounds the network needed after the last delta before going quiet: the
    # final executed round only re-confirms quiescence, hence the -1.
    reconverge = max(0, (outcome.rounds_executed - 1) - last_churn)
    # Surviving nodes that decided *before* the last delta hold estimates of
    # a topology that no longer exists; score them against the live size.
    n_live = max(outcome.n - len(departed), 2)
    log_live = math.log(n_live)
    stale_errors = [
        abs(record.estimate - log_live) / log_live
        for record in outcome.records.values()
        if outcome.counts_as_decided(record)
        and record.decision_round is not None
        and record.decision_round < last_churn
        and record.node not in departed
    ]
    stale_error = (
        sum(stale_errors) / len(stale_errors) if stale_errors else 0.0
    )
    return {
        "churn_events": metrics.churn_events,
        "rounds_to_reconverge": reconverge,
        "stale_estimate_error": stale_error,
    }


def materialize(
    scenario: Union[Scenario, Mapping[str, Any]], seed: int
) -> MaterializedCell:
    """Execute one (scenario, seed) cell and return all produced objects."""
    if not isinstance(scenario, Scenario):
        scenario = Scenario.from_dict(scenario)
    scenario.validate()

    graph = build_graph(
        scenario.graph.name,
        seed=seed + scenario.graph.seed_offset,
        **scenario.graph.params,
    )
    placement_params = dict(scenario.placement.params)
    count = int(placement_params.pop("count", 0))
    byzantine = place_byzantine(
        scenario.placement.name,
        graph,
        count,
        seed=seed + scenario.placement.seed_offset,
        **placement_params,
    )
    evaluation = _evaluation_set(scenario.params.get("evaluation"), graph, byzantine)
    churn = build_churn(
        scenario.churn.name,
        graph,
        seed=seed + scenario.churn.seed_offset,
        **scenario.churn.params,
    )
    run = run_protocol(
        scenario.protocol.name,
        graph,
        byzantine=byzantine,
        behaviour=scenario.adversary.name,
        behaviour_params=scenario.adversary.params,
        seed=seed,
        evaluation_set=evaluation,
        churn=churn,
        **scenario.protocol.params,
    )
    cell = MaterializedCell(
        scenario=scenario,
        seed=seed,
        graph=graph,
        byzantine=byzantine,
        evaluation_set=evaluation,
        run=run,
        metrics={},
    )
    cell.metrics = _collect_metrics(cell)
    return cell


@sweep_task(SCENARIO_TASK)
def execute_cell(*, spec: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """The generic sweep task every compiled scenario config references."""
    return materialize(spec, seed).metrics
