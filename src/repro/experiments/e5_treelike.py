"""Experiment E5 -- Lemma 2 (locally tree-like nodes of ``H(n, d)``).

Claim: in an ``H(n, d)`` random graph, with high probability at least
``n - O(n^0.8)`` nodes are locally tree-like up to radius
``log n / (10 log d)``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.common import ExperimentResult, mean_or_none, run_configs
from repro.graphs.hnd import hnd_random_regular_graph
from repro.graphs.treelike import treelike_nodes, treelike_radius
from repro.runner import SweepConfig, sweep_task

__all__ = ["run_experiment", "sweep_configs"]


@sweep_task("e5.trial")
def _trial(*, n: int, d: int, radius: int, trial_seed: int) -> int:
    """Count the tree-like nodes of one sampled ``H(n, d)`` graph."""
    graph = hnd_random_regular_graph(n, d, seed=trial_seed)
    return len(treelike_nodes(graph, degree=d, radius=radius))


def sweep_configs(
    *,
    sizes: Sequence[int] = (256, 512, 1024, 2048),
    degrees: Sequence[int] = (8, 12),
    trials: int = 3,
    seed: int = 0,
) -> List[SweepConfig]:
    """The (degree, size, trial) grid as a flat config list."""
    return [
        SweepConfig(
            "e5.trial",
            {
                "n": n,
                "d": d,
                "radius": treelike_radius(n, d),
                "trial_seed": seed + trial * 613 + n + d,
            },
        )
        for d in degrees
        for n in sizes
        for trial in range(trials)
    ]


def run_experiment(
    *,
    sizes: Sequence[int] = (256, 512, 1024, 2048),
    degrees: Sequence[int] = (8, 12),
    trials: int = 3,
    seed: int = 0,
    runner=None,
) -> ExperimentResult:
    """Measure the tree-like fraction against the ``n - O(n^0.8)`` bound."""
    configs = sweep_configs(sizes=sizes, degrees=degrees, trials=trials, seed=seed)
    counts_flat = run_configs(configs, runner)

    result = ExperimentResult(
        experiment="E5",
        claim=(
            "Lemma 2: at least n - O(n^0.8) nodes of H(n, d) are locally "
            "tree-like up to radius log n / (10 log d)"
        ),
    )
    index = 0
    for d in degrees:
        for n in sizes:
            radius = treelike_radius(n, d)
            counts = counts_flat[index : index + trials]
            index += trials
            mean_count = mean_or_none(counts)
            result.add_row(
                n=n,
                d=d,
                radius=radius,
                mean_treelike=round(mean_count, 1),
                mean_fraction=round(mean_count / n, 4),
                non_treelike=round(n - mean_count, 1),
                n_to_0_8=round(n ** 0.8, 1),
                within_lemma_bound=(n - mean_count) <= 3.0 * n ** 0.8,
            )
    result.add_note(
        "within_lemma_bound checks the number of atypical nodes against "
        "3·n^0.8 (the lemma's O(n^0.8) with an explicit constant; the hidden "
        "constant grows with d, so the d = 12 rows need larger n before the "
        "bound with this constant kicks in).  The shape to check is that the "
        "non-tree-like *fraction* shrinks as n grows for every fixed d."
    )
    return result
