"""Experiment E7 -- the Section 1.2 motivation (baselines break under Byzantine nodes).

Claim: classical network-size estimators (geometric max-propagation,
exponential support estimation, spanning-tree converge-cast, flooding-based
diameter estimation) work in the benign case but lose any approximation
guarantee as soon as a single Byzantine node misbehaves, while the paper's
algorithms keep theirs.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

from repro.adversary.placement import random_placement
from repro.adversary.strategies import BeaconFloodAdversary, ValueFakingAdversary
from repro.baselines import (
    run_flooding_baseline,
    run_geometric_baseline,
    run_spanning_tree_baseline,
    run_support_estimation_baseline,
)
from repro.core.congest_counting import run_congest_counting
from repro.core.parameters import CongestParameters
from repro.experiments.common import ExperimentResult, run_configs
from repro.graphs.hnd import hnd_random_regular_graph
from repro.runner import SweepConfig, sweep_task

__all__ = ["run_experiment", "sweep_configs"]

#: baseline name -> (runner, the ValueFakingAdversary mode that breaks it)
_BASELINES: Dict[str, tuple] = {
    "geometric-max": (run_geometric_baseline, "inflate"),
    "support-estimation": (run_support_estimation_baseline, "deflate"),
    "spanning-tree": (run_spanning_tree_baseline, "inflate"),
    "flooding-diameter": (run_flooding_baseline, "inflate"),
}


@sweep_task("e7.baseline")
def _baseline_cell(*, name: str, n: int, degree: int, num_byz: int, seed: int) -> dict:
    """One (baseline, Byzantine count) cell attacked with its breaking mode."""
    baseline_runner, attack_mode = _BASELINES[name]
    graph = hnd_random_regular_graph(n, degree, seed=seed)
    byz = random_placement(graph, num_byz, seed=seed + num_byz) if num_byz else set()
    adversary = ValueFakingAdversary(mode=attack_mode) if num_byz else None
    # Every honest node is scored; a node that decided ``inf`` (support
    # estimation under ``deflate``) counts as undecided.
    outcome = baseline_runner(graph, byzantine=byz, adversary=adversary, seed=seed).outcome
    log_n = outcome.log_n
    estimates = outcome.estimates(over_evaluation_set=False)
    return {
        "protocol": name,
        "n": n,
        "byzantine": num_byz,
        "ln_n": round(math.log(n), 2),
        "median_estimate": outcome.median_estimate(over_evaluation_set=False),
        "median_relative_error": (
            statistics.median(abs(e - log_n) / log_n for e in estimates)
            if estimates
            else None
        ),
        "fraction_within_2x": round(
            outcome.fraction_within_band(0.5, 2.0, over_evaluation_set=False), 3
        ),
        "decided_fraction": round(
            outcome.decided_fraction(over_evaluation_set=False), 3
        ),
    }


@sweep_task("e7.algorithm2")
def _algorithm2_cell(*, n: int, degree: int, num_byz: int, seed: int) -> dict:
    """Algorithm 2 under the beacon-flood attack for one Byzantine count."""
    params = CongestParameters(d=degree)
    graph = hnd_random_regular_graph(n, degree, seed=seed)
    log_n = math.log(n)
    byz = random_placement(graph, num_byz, seed=seed + num_byz) if num_byz else set()
    adversary = BeaconFloodAdversary(params) if num_byz else None
    max_rounds = params.rounds_through_phase(int(math.ceil(log_n)) + 1)
    run = run_congest_counting(
        graph,
        byzantine=byz,
        adversary=adversary,
        params=params,
        seed=seed,
        max_rounds=max_rounds,
    )
    outcome = run.outcome
    median = outcome.median_estimate()
    error = abs(median - log_n) / log_n if median is not None else None
    return {
        "protocol": "algorithm2 (this paper)",
        "n": n,
        "byzantine": num_byz,
        "ln_n": round(log_n, 2),
        "median_estimate": median,
        "median_relative_error": round(error, 3) if error is not None else None,
        "fraction_within_2x": round(outcome.fraction_within_band(0.5, 2.0), 3),
        "decided_fraction": round(outcome.decided_fraction(), 3),
    }


def sweep_configs(
    *,
    n: int = 256,
    degree: int = 8,
    byzantine_counts: Sequence[int] = (0, 1, 4),
    seed: int = 0,
    include_algorithm2: bool = True,
) -> List[SweepConfig]:
    """The baseline × Byzantine-count grid, then the Algorithm 2 rows."""
    configs = [
        SweepConfig(
            "e7.baseline",
            {"name": name, "n": n, "degree": degree, "num_byz": num_byz, "seed": seed},
        )
        for name in _BASELINES
        for num_byz in byzantine_counts
    ]
    if include_algorithm2:
        configs.extend(
            SweepConfig(
                "e7.algorithm2",
                {"n": n, "degree": degree, "num_byz": num_byz, "seed": seed},
            )
            for num_byz in byzantine_counts
        )
    return configs


def run_experiment(
    *,
    n: int = 256,
    degree: int = 8,
    byzantine_counts: Sequence[int] = (0, 1, 4),
    seed: int = 0,
    include_algorithm2: bool = True,
    runner=None,
) -> ExperimentResult:
    """Compare every baseline (and Algorithm 2) under 0, 1, and several Byzantine nodes."""
    configs = sweep_configs(
        n=n,
        degree=degree,
        byzantine_counts=byzantine_counts,
        seed=seed,
        include_algorithm2=include_algorithm2,
    )
    rows = run_configs(configs, runner)

    result = ExperimentResult(
        experiment="E7",
        claim=(
            "Section 1.2: classical size estimators are exact/accurate with no "
            "Byzantine nodes but are broken by a single Byzantine node; the "
            "paper's counting algorithm keeps a constant-factor estimate"
        ),
    )
    for row in rows:
        result.add_row(**row)
    result.add_note(
        "Each baseline is attacked with the ValueFakingAdversary mode that "
        "targets its aggregation (max -> inflate, min -> deflate); Algorithm 2 "
        "is attacked with the beacon-flooding adversary.  The shape to check: "
        "baselines' median_relative_error explodes (or estimates vanish) with "
        ">= 1 Byzantine node while Algorithm 2's stays bounded."
    )
    return result
