"""Shared plumbing of the protocol zoo.

Every zoo family funnels its engine run through :class:`ZooRun`: the raw
:class:`~repro.simulator.engine.RunResult`, the effective parameters, a
standard :class:`~repro.core.estimate.CountingOutcome` (so the generic
``scenario.run`` metrics extraction works on zoo protocols exactly as on the
paper's algorithms), and an ``extra_metrics`` dict of protocol-specific
values that :func:`repro.scenarios.execute._collect_metrics` merges into the
uniform metrics dict -- which is how agreement rates and decided-value
distributions flow through the existing suite reducers with zero new
aggregation code.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.core.estimate import CountingOutcome, DecisionRecord
from repro.graphs.graph import Graph
from repro.simulator.engine import RunResult

__all__ = ["ZooRun", "build_outcome", "binary_decision_metrics"]


@dataclass
class ZooRun:
    """Result wrapper of one protocol-zoo execution.

    ``outcome`` is a plain :class:`CountingOutcome` -- for binary-consensus
    families the "estimate" is the decided value (0.0 or 1.0) rather than an
    approximation of ``log n``, so the band metrics are not meaningful for
    them, but decision fractions, rounds, and communication volume are
    computed by exactly the same code as for the paper's protocols.
    """

    result: RunResult
    params: Dict[str, Any]
    outcome: CountingOutcome
    #: Protocol-specific metrics merged into the uniform metrics dict.
    extra_metrics: Dict[str, Any] = field(default_factory=dict)


def build_outcome(
    graph: Graph,
    result: RunResult,
    *,
    evaluation_set: Optional[Set[int]] = None,
) -> CountingOutcome:
    """Summarize an engine run into a :class:`CountingOutcome`.

    Identical to the paper protocols' run wrappers: one
    :class:`DecisionRecord` per honest node, plus the run's round and
    communication totals.
    """
    records: Dict[int, DecisionRecord] = {}
    for u, protocol in result.protocols.items():
        records[u] = DecisionRecord(
            node=u,
            decided=protocol.decided,
            estimate=protocol.estimate,
            decision_round=protocol.decision_round,
        )
    return CountingOutcome(
        n=graph.n,
        records=records,
        evaluation_set=evaluation_set,
        rounds_executed=result.rounds_executed,
        total_messages=result.metrics.total_messages,
        total_bits=result.metrics.total_bits,
        small_message_fraction=result.metrics.small_message_fraction(
            graph.n, list(result.protocols.keys())
        ),
    )


def binary_decision_metrics(outcome: CountingOutcome) -> Dict[str, Any]:
    """Consensus-flavoured metrics over a run's decided values.

    ``agreement_reached``
        1.0 when every decided honest node decided the *same* value (and at
        least one decided), else 0.0 -- the agreement property of consensus.
    ``ones_fraction``
        Fraction of decided nodes whose value is 1 (the decided-value
        distribution of a binary consensus; ``None`` when nothing decided).
    ``modal_agreement``
        Fraction of decided nodes holding the modal decided value -- a graded
        view of how close the run came to agreement on sparse graphs.
    """
    values = outcome.estimates(over_evaluation_set=False)
    if not values:
        return {
            "agreement_reached": 0.0,
            "ones_fraction": None,
            "modal_agreement": None,
        }
    modal = statistics.mode(values) if len(set(values)) > 1 else values[0]
    modal_count = sum(1 for v in values if v == modal)
    return {
        "agreement_reached": 1.0 if len(set(values)) == 1 else 0.0,
        "ones_fraction": sum(1 for v in values if v == 1.0) / len(values),
        "modal_agreement": modal_count / len(values),
    }
