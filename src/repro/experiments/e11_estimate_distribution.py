"""Experiment E11 -- per-node estimate distribution (Remark 2).

Claim: Algorithm 2's estimates may differ across nodes (the approximation
factor is not universal) but, with high probability, every GoodTL node's
estimate is upper-bounded by ``⌈ln n⌉`` plus an additive constant, and
lower-bounded by the early-phase bound ρ (at simulable scales, by a constant
fraction of ``log_d n``).

Each (size, trial) is one benign Algorithm 2 scenario cell; a table row
pools the ``estimate_counts`` of its size's trials into one histogram.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import List, Sequence

from repro.experiments.common import ExperimentResult, run_scenarios
from repro.scenarios import ComponentSpec, Scenario

__all__ = ["run_experiment", "scenarios"]


def scenarios(
    *,
    sizes: Sequence[int] = (128, 256, 512),
    degree: int = 8,
    trials: int = 2,
    seed: int = 0,
) -> List[Scenario]:
    """One benign Algorithm 2 scenario per size; its seeds are the trials."""
    return [
        Scenario(
            name=f"e11-n{n}",
            graph=ComponentSpec("hnd", {"n": n, "degree": degree}),
            adversary=ComponentSpec("silent"),
            placement=ComponentSpec("random", {"count": 0}),
            protocol=ComponentSpec("congest", {"d": degree}),
            seeds=tuple(seed + 23 * trial + n for trial in range(trials)),
        )
        for n in sizes
    ]


def run_experiment(
    *,
    sizes: Sequence[int] = (128, 256, 512),
    degree: int = 8,
    trials: int = 2,
    seed: int = 0,
    runner=None,
) -> ExperimentResult:
    """Histogram of decided values per network size (benign runs)."""
    flat = run_scenarios(
        scenarios(sizes=sizes, degree=degree, trials=trials, seed=seed), runner
    )

    result = ExperimentResult(
        experiment="E11",
        claim=(
            "Remark 2: per-node estimates vary by at most a constant factor and "
            "are upper-bounded by ceil(ln n) + 1"
        ),
    )
    for index, n in enumerate(sizes):
        histogram: Counter = Counter()
        for metrics in flat[index * trials : (index + 1) * trials]:
            histogram.update(dict(metrics["estimate_counts"]))
        total = sum(histogram.values())
        values = sorted(histogram)
        result.add_row(
            n=n,
            ln_n=round(math.log(n), 2),
            ceil_ln_n=math.ceil(math.log(n)),
            log_d_n=round(math.log(n, degree), 2),
            distinct_values=len(values),
            min_value=values[0] if values else None,
            max_value=values[-1] if values else None,
            histogram=str({v: round(c / total, 3) for v, c in sorted(histogram.items())}),
            spread_factor=(values[-1] / values[0]) if values and values[0] else None,
        )
    result.add_note(
        "max_value must not exceed ceil_ln_n + 1; spread_factor (max/min of "
        "decided values) stays bounded by a constant across n, which is the "
        "'constant factor but not universal' statement of Remark 2."
    )
    return result
