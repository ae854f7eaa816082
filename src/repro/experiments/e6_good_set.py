"""Experiment E6 -- Lemma 1 / Lemma 13 (the Good set and its expansion).

Claim: removing the radius-``(γ/2)log_Δ n`` neighborhood of the Byzantine
nodes (plus a Lemma 13 pruning) leaves a ``Good`` set of ``n - 2|F| - o(n)``
nodes whose induced subgraph still has constant vertex expansion.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.parameters import byzantine_budget
from repro.experiments.common import ExperimentResult, mean_or_none, run_configs
from repro.graphs.expansion import good_set, vertex_expansion_sampled
from repro.graphs.hnd import hnd_random_regular_graph
from repro.graphs.neighborhoods import induced_subgraph
from repro.runner import SweepConfig, sweep_task
from repro.scenarios import place_byzantine

__all__ = ["run_experiment", "sweep_configs"]


@sweep_task("e6.trial")
def _trial(
    *, n: int, degree: int, gamma: float, placement: str, num_byz: int, trial_seed: int
) -> dict:
    """|Good| and the sampled expansion of its induced subgraph for one seed."""
    graph = hnd_random_regular_graph(n, degree, seed=trial_seed)
    byz = place_byzantine(placement, graph, num_byz, seed=trial_seed)
    good = good_set(graph, byz, gamma)
    expansion = None
    if len(good) >= 2:
        sub, _ = induced_subgraph(graph, sorted(good))
        expansion = vertex_expansion_sampled(sub, seed=trial_seed, num_samples=40)
    return {"size": len(good), "expansion": expansion}


def sweep_configs(
    *,
    sizes: Sequence[int] = (256, 512, 1024),
    degree: int = 8,
    gamma: float = 0.7,
    placements: Sequence[str] = ("random", "clustered", "spread"),
    trials: int = 2,
    seed: int = 0,
) -> List[SweepConfig]:
    """The (placement, size, trial) grid as a flat config list."""
    return [
        SweepConfig(
            "e6.trial",
            {
                "n": n,
                "degree": degree,
                "gamma": gamma,
                "placement": placement_name,
                "num_byz": byzantine_budget(n, 1.0 - gamma),
                "trial_seed": seed + 389 * trial + n,
            },
        )
        for placement_name in placements
        for n in sizes
        for trial in range(trials)
    ]


def run_experiment(
    *,
    sizes: Sequence[int] = (256, 512, 1024),
    degree: int = 8,
    gamma: float = 0.7,
    placements: Sequence[str] = ("random", "clustered", "spread"),
    trials: int = 2,
    seed: int = 0,
    runner=None,
) -> ExperimentResult:
    """Measure |Good| and the expansion of its induced subgraph per placement."""
    configs = sweep_configs(
        sizes=sizes,
        degree=degree,
        gamma=gamma,
        placements=placements,
        trials=trials,
        seed=seed,
    )
    flat = run_configs(configs, runner)

    result = ExperimentResult(
        experiment="E6",
        claim=(
            "Lemma 1: excluding B(Byz, (gamma/2) log_Delta n) leaves a Good set "
            "of n - o(n) nodes whose induced subgraph keeps constant expansion"
        ),
    )
    index = 0
    for placement_name in placements:
        for n in sizes:
            num_byz = byzantine_budget(n, 1.0 - gamma)
            per_trial = flat[index : index + trials]
            index += trials
            sizes_seen = [t["size"] for t in per_trial]
            expansions = [t["expansion"] for t in per_trial if t["expansion"] is not None]
            mean_size = mean_or_none(sizes_seen)
            result.add_row(
                n=n,
                byzantine=num_byz,
                placement=placement_name,
                mean_good_size=round(mean_size, 1),
                mean_good_fraction=round(mean_size / n, 4),
                lemma_floor=n - 2 * num_byz * degree,
                mean_induced_expansion_upper_bound=mean_or_none(
                    [round(e, 3) for e in expansions]
                ),
            )
    result.add_note(
        "mean_induced_expansion_upper_bound is a sampled upper bound on the "
        "vertex expansion of the Good-induced subgraph; staying well above 0 "
        "(and comparable to the full graph's ~1.0) is the Lemma 1(2) behaviour. "
        "lemma_floor is the crude lower bound n - 2|B(Byz,1)|."
    )
    return result
