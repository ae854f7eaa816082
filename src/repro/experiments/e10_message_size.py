"""Experiment E10 -- message sizes (footnote 1 and Theorem 2's CONGEST claim).

Claim: in Algorithm 2 most good nodes only ever send messages of ``O(log n)``
bits plus a constant number of node ids, whereas Algorithm 1 (a LOCAL
algorithm) sends messages whose size grows polynomially with the view.

Each size is two benign scenario cells on the same graph, one per algorithm;
a table row joins their message-size metrics.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.experiments.common import ExperimentResult, run_scenarios
from repro.scenarios import ComponentSpec, Scenario

__all__ = ["run_experiment", "scenarios"]


def scenarios(
    *,
    sizes: Sequence[int] = (64, 128, 256, 512),
    degree: int = 8,
    seed: int = 0,
) -> List[Scenario]:
    """Per size: one Algorithm 1 cell and one Algorithm 2 cell (interleaved)."""
    protocols = (
        ComponentSpec("local", {"max_degree": degree}),
        ComponentSpec("congest", {"d": degree}),
    )
    return [
        Scenario(
            name=f"e10-{protocol.name}-n{n}",
            graph=ComponentSpec("hnd", {"n": n, "degree": degree}, seed_offset=n),
            adversary=ComponentSpec("silent"),
            placement=ComponentSpec("random", {"count": 0}),
            protocol=protocol,
            seeds=(seed,),
        )
        for n in sizes
        for protocol in protocols
    ]


def run_experiment(
    *,
    sizes: Sequence[int] = (64, 128, 256, 512),
    degree: int = 8,
    seed: int = 0,
    runner=None,
) -> ExperimentResult:
    """Per-algorithm message-size statistics across network sizes."""
    flat = run_scenarios(scenarios(sizes=sizes, degree=degree, seed=seed), runner)

    result = ExperimentResult(
        experiment="E10",
        claim=(
            "Theorem 2 / footnote 1: Algorithm 2's good nodes send only "
            "O(log n)-bit messages with O(1) ids, while Algorithm 1's messages "
            "grow polynomially with n"
        ),
    )
    for index, n in enumerate(sizes):
        columns = {}
        for prefix, metrics in zip(("local", "congest"), flat[2 * index : 2 * index + 2]):
            columns[f"{prefix}_max_message_ids"] = metrics["max_message_ids"]
            columns[f"{prefix}_small_message_fraction"] = round(
                metrics["small_message_fraction"], 3
            )
            columns[f"{prefix}_total_messages"] = metrics["messages"]
        result.add_row(n=n, ln_n=round(math.log(n), 2), **columns)
    result.add_note(
        "local_max_message_ids grows roughly like n·d (the algorithm ships "
        "whole neighborhoods), so local_small_message_fraction collapses as n "
        "grows; congest_max_message_ids stays O(log n)-sized (a path field of "
        "at most the current phase length) and the small-message fraction stays ~1."
    )
    return result
