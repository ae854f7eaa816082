"""Experiment E3 -- Corollary 1 (benign case).

Claim: with no Byzantine nodes, Algorithm 2 terminates (the network goes
quiescent), and Ω(n) nodes decide the same value, bounded above by ``⌈ln n⌉``,
within ``O(log n)`` phases (``O(log² n)`` rounds at these scales).

Expressed declaratively as a :class:`~repro.scenarios.suite.ScenarioSuite`:
one benign ``congest`` scenario per size with a zero-count placement and the
Corollary 1 check.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.experiments.common import ExperimentResult
from repro.scenarios import ComponentSpec, Scenario, ScenarioSuite, SuiteRow

__all__ = ["run_experiment", "scenario_suite"]


def scenario_suite(
    *,
    sizes: Sequence[int] = (64, 128, 256, 512),
    degree: int = 8,
    trials: int = 2,
    seed: int = 0,
) -> ScenarioSuite:
    """The experiment as declarative data: one benign scenario per size."""
    rows: List[SuiteRow] = []
    for n in sizes:
        scenario = Scenario(
            name=f"e3-n{n}",
            graph=ComponentSpec("hnd", {"n": n, "degree": degree}),
            adversary=ComponentSpec("silent"),
            placement=ComponentSpec("random", {"count": 0}),
            # Corollary 1 mode: run past the last decision until the network
            # goes quiescent (no messages at all in a round).
            protocol=ComponentSpec(
                "congest", {"d": degree, "stop_when_all_decided": False}
            ),
            params={"check": {"name": "corollary1"}},
            seeds=tuple(seed + 31 * trial + n for trial in range(trials)),
        )
        rows.append(
            SuiteRow(
                scenario=scenario,
                static={
                    "n": n,
                    "ln_n": round(math.log(n), 2),
                    "ceil_ln_n": math.ceil(math.log(n)),
                },
                columns={
                    "decided_fraction": "decided_fraction",
                    "modal_estimate": "modal_estimate",
                    "modal_fraction": "modal_fraction",
                    "max_estimate": "max_estimate",
                    "rounds_to_quiescence": "rounds_executed",
                    "quiescent_rate": "quiescent",
                    "corollary1_pass_rate": "check_passed",
                },
            )
        )
    return ScenarioSuite(
        experiment="E3",
        claim=(
            "Corollary 1: with all nodes good the algorithm terminates and "
            "Omega(n) nodes decide a common value bounded by ceil(ln n)"
        ),
        rows=rows,
        notes=[
            "modal_fraction is the fraction of nodes agreeing on the most common "
            "estimate (Corollary 1's Omega(n)); max_estimate must not exceed "
            "ceil_ln_n + 1 (Remark 2); quiescent_rate = 1 means the network "
            "stopped sending messages entirely (termination)."
        ],
    )



def run_experiment(*, runner=None, **kwargs: object) -> ExperimentResult:
    """Benign-case sweep: decision values, modal agreement, quiescence."""
    return scenario_suite(**kwargs).run(runner)
