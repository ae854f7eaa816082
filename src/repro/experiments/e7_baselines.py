"""Experiment E7 -- the Section 1.2 motivation (baselines break under Byzantine nodes).

Claim: classical network-size estimators (geometric max-propagation,
exponential support estimation, spanning-tree converge-cast, flooding-based
diameter estimation) work in the benign case but lose any approximation
guarantee as soon as a single Byzantine node misbehaves, while the paper's
algorithms keep theirs.

The sweep is a :class:`~repro.scenarios.suite.ScenarioSuite`: one scenario
per (baseline, Byzantine count), each baseline attacked with the
``value-faking`` mode that breaks it, then one Algorithm 2 scenario per
Byzantine count under ``beacon-flood``.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.parameters import CongestParameters
from repro.experiments.common import ExperimentResult
from repro.scenarios import ComponentSpec, Scenario, ScenarioSuite, SuiteRow

__all__ = ["run_experiment", "scenario_suite"]

#: (table name, zoo protocol, the ``value-faking`` mode that breaks it)
_BASELINES = (
    ("geometric-max", "geometric", "inflate"),
    ("support-estimation", "support-estimation", "deflate"),
    ("spanning-tree", "spanning-tree", "inflate"),
    ("flooding-diameter", "flooding", "inflate"),
)


def scenario_suite(
    *,
    n: int = 256,
    degree: int = 8,
    byzantine_counts: Sequence[int] = (0, 1, 4),
    seed: int = 0,
    include_algorithm2: bool = True,
) -> ScenarioSuite:
    """The baseline × Byzantine-count grid, then the Algorithm 2 rows."""
    # (table name, protocol, attack, error column).  A decided ``inf``
    # (support estimation under ``deflate``) counts as no estimate, so those
    # rows read "-" and decided 0.
    arms = [
        (
            name,
            ComponentSpec(protocol),
            ComponentSpec("value-faking", {"mode": mode}),
            "median_relative_error",
        )
        for name, protocol, mode in _BASELINES
    ]
    if include_algorithm2:
        max_rounds = CongestParameters(d=degree).rounds_through_phase(
            int(math.ceil(math.log(n))) + 1
        )
        arms.append(
            (
                "algorithm2 (this paper)",
                ComponentSpec("congest", {"d": degree, "max_rounds": max_rounds}),
                ComponentSpec("beacon-flood"),
                {"metric": "median_estimate_error", "round": 3},
            )
        )
    # Every honest node is scored.
    rows = [
        SuiteRow(
            scenario=Scenario(
                name=f"e7-{protocol.name}-b{num_byz}",
                graph=ComponentSpec("hnd", {"n": n, "degree": degree}),
                adversary=adversary,
                placement=ComponentSpec("random", {"count": num_byz}, seed_offset=num_byz),
                protocol=protocol,
                params={"band": [0.5, 2.0]},
                seeds=(seed,),
            ),
            static={
                "protocol": name,
                "n": n,
                "byzantine": num_byz,
                "ln_n": round(math.log(n), 2),
            },
            columns={
                "median_estimate": "median_estimate",
                "median_relative_error": error,
                "fraction_within_2x": {"metric": "fraction_in_band", "round": 3},
                "decided_fraction": {"metric": "decided_fraction", "round": 3},
            },
        )
        for name, protocol, adversary, error in arms
        for num_byz in byzantine_counts
    ]
    return ScenarioSuite(
        experiment="E7",
        claim=(
            "Section 1.2: classical size estimators are exact/accurate with no "
            "Byzantine nodes but are broken by a single Byzantine node; the "
            "paper's counting algorithm keeps a constant-factor estimate"
        ),
        rows=rows,
        notes=[
            "Each baseline is attacked with the ValueFakingAdversary mode that "
            "targets its aggregation (max -> inflate, min -> deflate); Algorithm 2 "
            "is attacked with the beacon-flooding adversary.  The shape to check: "
            "baselines' median_relative_error explodes (or estimates vanish) with "
            ">= 1 Byzantine node while Algorithm 2's stays bounded."
        ],
    )


def run_experiment(*, runner=None, **kwargs: object) -> ExperimentResult:
    """Compare every baseline (and Algorithm 2) under 0, 1, and several Byzantine nodes."""
    return scenario_suite(**kwargs).run(runner)
