"""Experiment E1 -- Theorem 1 (deterministic LOCAL algorithm).

Claim: on bounded-degree expanders with up to ``n^(1-γ)`` adversarially placed
Byzantine nodes, Algorithm 1 finishes in ``O(log n)`` rounds and all nodes of
the ``Good`` set decide a constant-factor estimate of ``log n``.

Expressed declaratively as a :class:`~repro.scenarios.suite.ScenarioSuite`:
one ``local``-protocol scenario per size, evaluated over the Lemma 1 ``Good``
set with the Theorem 1 check.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.core.parameters import byzantine_budget
from repro.experiments.common import ExperimentResult
from repro.scenarios import ComponentSpec, Scenario, ScenarioSuite, SuiteRow

__all__ = ["run_experiment", "scenario_suite"]


def scenario_suite(
    *,
    sizes: Sequence[int] = (64, 128, 256, 512),
    gamma: float = 0.7,
    degree: int = 8,
    behaviour: str = "fake-topology",
    placement: str = "random",
    trials: int = 2,
    seed: int = 0,
) -> ScenarioSuite:
    """The experiment as declarative data: one scenario (and row) per size."""
    rows: List[SuiteRow] = []
    for n in sizes:
        num_byz = byzantine_budget(n, 1.0 - gamma)
        scenario = Scenario(
            name=f"e1-n{n}",
            graph=ComponentSpec("hnd", {"n": n, "degree": degree}),
            adversary=ComponentSpec(behaviour),
            placement=ComponentSpec(placement, {"count": num_byz}),
            protocol=ComponentSpec("local", {"gamma": gamma, "max_degree": degree}),
            params={
                "evaluation": {"kind": "good", "gamma": gamma},
                "check": {"name": "theorem1"},
            },
            seeds=tuple(seed + 7919 * trial + n for trial in range(trials)),
        )
        rows.append(
            SuiteRow(
                scenario=scenario,
                static={
                    "n": n,
                    "ln_n": round(math.log(n), 2),
                    "byzantine": num_byz,
                    "behaviour": behaviour,
                    "placement": placement,
                },
                columns={
                    "good_set": "eval_nodes",
                    "decided_fraction": "decided_fraction",
                    "fraction_in_band": "fraction_in_band",
                    "min_estimate": "min_estimate",
                    "max_estimate": "max_estimate",
                    "max_decision_round": "max_decision_round",
                    "theorem1_pass_rate": "check_passed",
                },
            )
        )
    return ScenarioSuite(
        experiment="E1",
        claim=(
            "Theorem 1: deterministic LOCAL counting decides a constant-factor "
            "estimate of log n in O(log n) rounds for n - o(n) good nodes under "
            "n^(1-gamma) Byzantine nodes"
        ),
        rows=rows,
        notes=[
            "max_decision_round should grow logarithmically with n "
            "(compare against the ln_n column); fraction_in_band is computed over "
            "the Lemma 1 Good set with the constant-factor band [0.35, 1.6]·ln n."
        ],
    )



def run_experiment(*, runner=None, **kwargs: object) -> ExperimentResult:
    """Sweep network sizes and measure Theorem 1's quantities.

    Each row reports, averaged over ``trials`` seeds: the number of Byzantine
    nodes ``n^(1-γ)``, the size of the Lemma 1 ``Good`` set, the fraction of
    Good nodes that decided, the fraction whose estimate lies in the
    constant-factor band, the estimate range, and the latest decision round
    (to be compared against ``O(log n)``).
    """
    return scenario_suite(**kwargs).run(runner)
