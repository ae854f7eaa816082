"""Consensus-flavoured metrics shared by the protocol zoo.

Every zoo family returns the same :class:`~repro.core.estimate.ProtocolRun`
as the paper's algorithms.  The binary-consensus families fill its
``extra_metrics`` with :func:`binary_decision_metrics` (plus their own
values), which :func:`repro.scenarios.execute._collect_metrics` merges into
the uniform metrics dict -- which is how agreement rates and decided-value
distributions flow through the existing suite reducers with zero new
aggregation code.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict

from repro.core.estimate import CountingOutcome

__all__ = ["binary_decision_metrics"]


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
