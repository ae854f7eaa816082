"""Experiment E8 -- ablation of the blacklisting mechanism (Section 5).

Claim: blacklisting is what stops Byzantine beacon flooding from inflating the
estimate (or preventing decisions) indefinitely; with it disabled, good nodes
keep seeing acceptable beacons every iteration and overshoot (or never
decide), while with it enabled the overshoot is bounded (Remark 2).

The sweep is a :class:`~repro.scenarios.suite.ScenarioSuite`: one scenario
per (blacklist on/off, size) whose seeds are the trials.  Its evaluation set
is the honest nodes at distance >= 2 from every Byzantine node, so
``decided_fraction`` is the far-node column and the ``*_all`` metrics are
the all-honest ones.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.core.parameters import CongestParameters
from repro.experiments.common import ExperimentResult
from repro.scenarios import ComponentSpec, Scenario, ScenarioSuite, SuiteRow

__all__ = ["run_experiment", "scenario_suite"]


def scenario_suite(
    *,
    sizes: Sequence[int] = (128, 256),
    degree: int = 8,
    num_byzantine: int = 3,
    gamma: float = 0.5,
    trials: int = 1,
    seed: int = 0,
    extra_phases: int = 2,
) -> ScenarioSuite:
    """The beacon-flood attack with blacklisting on, then off, per size."""
    rows: List[SuiteRow] = []
    for blacklist_enabled in (True, False):
        for n in sizes:
            budget = CongestParameters(gamma=gamma, d=degree).rounds_through_phase(
                int(math.ceil(math.log(n))) + extra_phases
            )
            scenario = Scenario(
                name=f"e8-n{n}-blacklist-{'on' if blacklist_enabled else 'off'}",
                graph=ComponentSpec("hnd", {"n": n, "degree": degree}),
                adversary=ComponentSpec("beacon-flood"),
                placement=ComponentSpec("spread", {"count": num_byzantine}),
                protocol=ComponentSpec(
                    "congest",
                    {
                        "gamma": gamma,
                        "d": degree,
                        "blacklist_enabled": blacklist_enabled,
                        "max_rounds": budget,
                    },
                ),
                params={"evaluation": {"kind": "far", "radius": 1}},
                seeds=tuple(seed + 977 * trial + n for trial in range(trials)),
            )
            rows.append(
                SuiteRow(
                    scenario=scenario,
                    static={
                        "blacklist": blacklist_enabled,
                        "n": n,
                        "ceil_ln_n": math.ceil(math.log(n)),
                        "byzantine": num_byzantine,
                        "round_budget": budget,
                    },
                    columns={
                        "decided_fraction": "decided_fraction_all",
                        "far_node_decided_fraction": "decided_fraction",
                        "median_estimate": "median_estimate_all",
                        "max_estimate": "max_estimate_all",
                    },
                )
            )
    return ScenarioSuite(
        experiment="E8",
        claim=(
            "Section 5 / Remark 2: the blacklisting mechanism bounds the "
            "estimate overshoot caused by Byzantine beacon flooding; without "
            "it, far-from-Byzantine nodes fail to decide within the round budget"
        ),
        rows=rows,
        notes=[
            "With blacklist=yes, far-from-Byzantine nodes decide within the budget "
            "and max_estimate stays within a small constant of ceil_ln_n; with "
            "blacklist=no, the flooding adversary keeps far nodes undecided "
            "(far_node_decided_fraction collapses) because every iteration still "
            "delivers an acceptable beacon."
        ],
    )


def run_experiment(*, runner=None, **kwargs: object) -> ExperimentResult:
    """Run the beacon-flood attack with blacklisting enabled vs disabled."""
    return scenario_suite(**kwargs).run(runner)
