"""Theorem-shaped acceptance checks.

These functions turn a :class:`~repro.core.estimate.CountingOutcome` into a
pass/fail verdict phrased the way the paper states its guarantees, with the
constants made explicit.  At simulable scales the decided values track ``log_d n + O(1)`` (between the
paper's lower bound ρ and its upper bound ``⌈ln n⌉ + 1``), so the default
acceptance band is ``[0.35·ln n, 1.6·ln n]`` -- a fixed constant-factor band
independent of ``n``, which is exactly what Definition 2 requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.estimate import CountingOutcome

__all__ = ["AccuracyReport", "theorem1_check", "theorem2_check", "corollary1_check"]

#: Default constant-factor acceptance band (lower, upper) relative to ln n.
DEFAULT_BAND = (0.35, 1.6)


@dataclass
class AccuracyReport:
    """Verdict of one theorem check."""

    name: str
    passed: bool
    decided_fraction: float
    fraction_in_band: float
    min_fraction_required: float
    median_estimate: Optional[float]
    log_n: float
    max_decision_round: Optional[int]
    round_budget: Optional[int]
    details: Dict[str, object]

    def summary(self) -> Dict[str, object]:
        """Flat dictionary used by the experiment tables."""
        return {
            "check": self.name,
            "passed": self.passed,
            "decided_fraction": round(self.decided_fraction, 4),
            "fraction_in_band": round(self.fraction_in_band, 4),
            "required_fraction": self.min_fraction_required,
            "median_estimate": self.median_estimate,
            "log_n": round(self.log_n, 3),
            "max_decision_round": self.max_decision_round,
            "round_budget": self.round_budget,
            **self.details,
        }


def _base_report(
    name: str,
    outcome: CountingOutcome,
    *,
    band: tuple,
    min_fraction: float,
    round_budget: Optional[int],
    extra: Optional[Dict[str, object]] = None,
) -> AccuracyReport:
    decided = outcome.decided_fraction()
    in_band = outcome.fraction_within_band(band[0], band[1])
    max_round = outcome.max_decision_round()
    rounds_ok = True
    if round_budget is not None and max_round is not None:
        rounds_ok = max_round <= round_budget
    passed = decided >= 1.0 - 1e-9 and in_band >= min_fraction and rounds_ok
    return AccuracyReport(
        name=name,
        passed=passed,
        decided_fraction=decided,
        fraction_in_band=in_band,
        min_fraction_required=min_fraction,
        median_estimate=outcome.median_estimate(),
        log_n=outcome.log_n,
        max_decision_round=max_round,
        round_budget=round_budget,
        details=dict(extra or {}),
    )


def theorem1_check(
    outcome: CountingOutcome,
    *,
    band: tuple = DEFAULT_BAND,
    min_fraction: float = 0.9,
    round_budget_factor: float = 4.0,
) -> AccuracyReport:
    """Theorem 1: every evaluated node decides, most land in the band, in O(log n) rounds.

    The round budget defaults to ``round_budget_factor · ln n`` which is well
    above ``diam(G) + 1`` for the expander workloads.
    """
    budget = int(math.ceil(round_budget_factor * outcome.log_n)) + 2
    return _base_report(
        "theorem1",
        outcome,
        band=band,
        min_fraction=min_fraction,
        round_budget=budget,
        extra={"round_budget_factor": round_budget_factor},
    )


def theorem2_check(
    outcome: CountingOutcome,
    *,
    band: tuple = DEFAULT_BAND,
    beta: float = 0.1,
    num_byzantine: int = 0,
    round_budget: Optional[int] = None,
    small_message_min_fraction: float = 0.9,
) -> AccuracyReport:
    """Theorem 2: ``(1-β)n`` nodes land in the band, most send only small messages.

    ``round_budget`` should be the ``O(B(n)·log² n)`` budget the caller used
    (e.g. :meth:`CongestParameters.round_budget`); if ``None`` the round check
    is skipped.
    """
    report = _base_report(
        "theorem2",
        outcome,
        band=band,
        min_fraction=1.0 - beta,
        round_budget=round_budget,
        extra={
            "beta": beta,
            "num_byzantine": num_byzantine,
            "small_message_fraction": outcome.small_message_fraction,
        },
    )
    if (
        outcome.small_message_fraction is not None
        and outcome.small_message_fraction < small_message_min_fraction
    ):
        report.passed = False
        report.details["small_message_check_failed"] = True
    return report


def corollary1_check(
    outcome: CountingOutcome,
    *,
    upper_slack: float = 1.0,
    min_fraction: float = 0.9,
) -> AccuracyReport:
    """Corollary 1 (benign case): estimates are bounded above by ``⌈ln n⌉ + slack``.

    At asymptotic scale the decided value is exactly ``⌈ln n⌉``; at simulable
    scale the decisions land between ``log_d n`` and ``⌈ln n⌉``, so the
    check enforces the upper bound of Remark 2 plus
    the constant-factor lower bound of the default band.
    """
    upper_abs = math.ceil(outcome.log_n) + upper_slack
    low = DEFAULT_BAND[0] * outcome.log_n
    records = [outcome.records[u] for u in sorted(outcome.evaluation_set)]
    if records:
        in_band = sum(
            1
            for r in records
            if r.decided and r.estimate is not None and low <= r.estimate <= upper_abs
        ) / len(records)
    else:
        in_band = 0.0
    decided = outcome.decided_fraction()
    passed = decided >= 1.0 - 1e-9 and in_band >= min_fraction
    return AccuracyReport(
        name="corollary1",
        passed=passed,
        decided_fraction=decided,
        fraction_in_band=in_band,
        min_fraction_required=min_fraction,
        median_estimate=outcome.median_estimate(),
        log_n=outcome.log_n,
        max_decision_round=outcome.max_decision_round(),
        round_budget=None,
        details={"absolute_upper_bound": upper_abs},
    )
