"""Empirical indistinguishability experiment for Theorem 3 (experiment E4).

Protocol executions on the base graph ``C_n`` and on the glued graph ``H``
(``t`` copies of ``C_n`` sharing one Byzantine node that simulates the
single-copy behaviour toward each copy) are compared.  Theorem 3 predicts
that the estimates inside ``H`` look exactly like estimates for an ``n``-node
network even though ``|H| ≈ t·n``, so more than half the nodes of ``H`` miss
any approximation target that separates ``log n`` from ``log(t·n)``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.congest_counting import (
    CongestCountingProtocol,
    PhaseSchedule,
    run_congest_counting,
)
from repro.core.parameters import CongestParameters
from repro.graphs.graph import Graph
from repro.impossibility.construction import (
    SimulatingCutAdversary,
    build_chained_instance,
)
from repro.simulator.node import NodeContext, Protocol

__all__ = ["IndistinguishabilityResult", "run_indistinguishability_experiment"]


@dataclass
class IndistinguishabilityResult:
    """Outcome of the Theorem 3 experiment."""

    base_n: int
    glued_n: int
    num_copies: int
    base_median_estimate: Optional[float]
    glued_median_estimate: Optional[float]
    glued_fraction_correct_for_glued_size: float
    glued_fraction_matching_base_size: float

    @property
    def log_base_n(self) -> float:
        """``ln`` of the base graph size."""
        return math.log(max(self.base_n, 2))

    @property
    def log_glued_n(self) -> float:
        """``ln`` of the glued graph size."""
        return math.log(max(self.glued_n, 2))

    def demonstrates_impossibility(
        self, *, median_tolerance: float = 1.0, min_log_gap: float = 1.0
    ) -> bool:
        """Whether the run exhibits the Theorem 3 phenomenon.

        The simulating cut node hides ``(t-1)`` copies, so the estimates in the
        glued run should match the estimates of the base run even though the
        true size grew by a factor ``t``.  The check therefore requires

        * the glued-run median estimate to sit within ``median_tolerance`` of
          the base-run median (the executions are indistinguishable -- they
          track the *base* size, so the approximation quality w.r.t. the true
          glued size degrades by the hidden factor for essentially every
          node), while
        * ``ln(glued n) - ln(base n) >= min_log_gap`` (the hidden growth is
          large enough for that degradation to be a genuine constant factor).

        Medians are pooled over the experiment's trials, which keeps the
        criterion stable against the natural per-run variance of Algorithm 2's
        decision phase.
        """
        if self.base_median_estimate is None or self.glued_median_estimate is None:
            return False
        medians_match = (
            abs(self.glued_median_estimate - self.base_median_estimate)
            <= median_tolerance
        )
        hidden_growth = (self.log_glued_n - self.log_base_n) >= min_log_gap
        return medians_match and hidden_growth

    def summary(self) -> Dict[str, object]:
        """Row for the experiment tables."""
        return {
            "base_n": self.base_n,
            "glued_n": self.glued_n,
            "copies": self.num_copies,
            "median_estimate_base_run": self.base_median_estimate,
            "median_estimate_glued_run": self.glued_median_estimate,
            "ln_base_n": round(self.log_base_n, 3),
            "ln_glued_n": round(self.log_glued_n, 3),
            "fraction_correct_for_glued_size": round(
                self.glued_fraction_correct_for_glued_size, 3
            ),
            "fraction_matching_base_size": round(
                self.glued_fraction_matching_base_size, 3
            ),
        }


def run_indistinguishability_experiment(
    base: Graph,
    num_copies: int,
    *,
    params: Optional[CongestParameters] = None,
    seed: int = 0,
    attachment_node: int = 0,
    band_lower: float = 0.6,
    band_upper: float = 1.3,
    num_trials: int = 3,
) -> IndistinguishabilityResult:
    """Run Algorithm 2 on the base graph and on the Theorem 3 glued graph.

    Parameters
    ----------
    base:
        The base graph ``C_n``.  Any graph works; the experiment is most
        striking when ``base`` is itself an expander, showing that the loss of
        *global* expansion caused by the single shared cut node is what breaks
        counting.
    num_copies:
        Number ``t`` of copies glued at the shared node.
    params:
        Algorithm 2 parameters (defaults to the base graph's degree).
    band_lower, band_upper:
        Constant-factor acceptance band used to score estimates against the
        glued size and the base size (reported as diagnostic fractions).
    num_trials:
        Number of independent runs of both configurations; estimates are
        pooled across trials before computing medians so the verdict is not
        at the mercy of a single run's randomness.
    """
    if params is None:
        params = CongestParameters(d=max(3, base.max_degree()))
    num_trials = max(1, num_trials)

    base_estimates: List[float] = []
    glued_estimates: List[float] = []
    glued_records = []
    glued_n = 0

    for trial in range(num_trials):
        trial_seed = seed + 1000 * trial

        # Reference run on the base graph (no Byzantine nodes at all).
        base_run = run_congest_counting(base, params=params, seed=trial_seed)
        base_estimates.extend(
            e for e in base_run.outcome.estimates() if e is not None
        )

        # Glued run with the simulating cut adversary.
        instance = build_chained_instance(
            base, num_copies, attachment_node=attachment_node, seed=trial_seed
        )
        schedule = PhaseSchedule(params)

        def factory(ctx: NodeContext) -> Protocol:
            return CongestCountingProtocol(ctx, params, schedule)

        adversary = SimulatingCutAdversary(instance, factory)
        glued_run = run_congest_counting(
            instance.glued,
            byzantine=[instance.shared_node],
            adversary=adversary,
            params=params,
            seed=trial_seed + 1,
        )
        glued_estimates.extend(
            e for e in glued_run.outcome.estimates() if e is not None
        )
        glued_records.extend(glued_run.outcome.records.values())
        glued_n = instance.glued.n

    base_median = statistics.median(base_estimates) if base_estimates else None
    glued_median = statistics.median(glued_estimates) if glued_estimates else None

    log_glued = math.log(max(glued_n, 2))
    log_base = math.log(max(base.n, 2))
    decided = [r for r in glued_records if r.decided and r.estimate is not None]

    def fraction_in(target_log: float) -> float:
        if not glued_records:
            return 0.0
        low, high = band_lower * target_log, band_upper * target_log
        return sum(1 for r in decided if low <= r.estimate <= high) / len(glued_records)

    return IndistinguishabilityResult(
        base_n=base.n,
        glued_n=glued_n,
        num_copies=num_copies,
        base_median_estimate=base_median,
        glued_median_estimate=glued_median,
        glued_fraction_correct_for_glued_size=fraction_in(log_glued),
        glued_fraction_matching_base_size=fraction_in(log_base),
    )
