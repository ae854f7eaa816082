"""Geometric-distribution maximum propagation (Section 1.2).

Every node flips a fair coin until it sees heads; the number of flips ``X_u``
is geometrically distributed and the global maximum ``X̄ = max_u X_u`` is
``Θ(log n)`` with high probability (in fact ``≈ log2 n``), so propagating the
maximum yields an estimate of ``log n`` -- *in the absence of Byzantine
nodes*.  A single Byzantine node faking a huge value (or simply not forwarding
the true maximum) breaks any approximation guarantee, which is the paper's
motivating observation.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Set

from repro.baselines.common import (
    BaselineProtocol,
    default_budget,
    parse_value,
    run_baseline,
    value_payload,
)
from repro.core.estimate import ProtocolRun
from repro.graphs.graph import Graph
from repro.simulator.byzantine import Adversary
from repro.simulator.churn import ChurnSchedule
from repro.simulator.node import NodeContext, Outbox, Protocol

__all__ = ["GeometricMaxProtocol", "run_geometric_baseline"]

_TAG = "geometric-max"


class GeometricMaxProtocol(BaselineProtocol):
    """Draw a geometric sample, flood the maximum, decide after a round budget."""

    def __init__(self, ctx: NodeContext, rounds_budget: int) -> None:
        self.rounds_budget = rounds_budget
        # Flip a fair coin until heads.
        flips = 1
        while ctx.rng.random() < 0.5:
            flips += 1
        self.best = float(flips)

    def _maybe_decide(self, round_number: int) -> None:
        if round_number >= self.rounds_budget and not self._decided:
            self._decided = True
            # max of n geometric(1/2) samples concentrates around log2 n, so
            # the natural-log estimate is best · ln 2.
            self._estimate = self.best * math.log(2.0)
            self._decision_round = round_number

    def on_start(self, ctx: NodeContext) -> Outbox:
        message = value_payload(_TAG, self.best)
        return {v: [message] for v in ctx.neighbors}

    def on_round(self, ctx: NodeContext, inbox: List) -> Outbox:
        improved = False
        for message in inbox:
            value = parse_value(message, _TAG)
            if value is not None and value > self.best:
                self.best = value
                improved = True
        self._maybe_decide(ctx.round)
        if self._decided:
            return {}
        if improved:
            message = value_payload(_TAG, self.best)
            return {v: [message] for v in ctx.neighbors}
        return {}


def run_geometric_baseline(
    graph: Graph,
    *,
    byzantine: Iterable[int] = (),
    adversary: Optional[Adversary] = None,
    seed: int = 0,
    rounds_budget: Optional[int] = None,
    evaluation_set: Optional[Set[int]] = None,
    churn: Optional[ChurnSchedule] = None,
) -> ProtocolRun:
    """Run the geometric-maximum baseline; ``rounds_budget`` defaults to
    :func:`~repro.baselines.common.default_budget`."""
    if rounds_budget is None:
        rounds_budget = default_budget(graph)

    def factory(ctx: NodeContext) -> Protocol:
        return GeometricMaxProtocol(ctx, rounds_budget)

    return run_baseline(
        graph,
        factory,
        byzantine=byzantine,
        adversary=adversary,
        seed=seed,
        max_rounds=rounds_budget + 2,
        evaluation_set=evaluation_set,
        churn=churn,
        params={"rounds_budget": rounds_budget},
    )
