"""Exponential support estimation (Section 1.2, following [7, 5]).

Every node draws ``k`` independent ``Exp(1)`` samples; the network propagates
the coordinate-wise minimum vector.  The sum of the ``k`` global minima is a
``Gamma(k, n)`` variable, so ``n̂ = (k-1)/Σ min_i`` is an unbiased estimator of
``n`` and concentrates for moderate ``k``.  As with the geometric protocol, a
single Byzantine node claiming minima near zero drives the estimate to
infinity.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Set, Tuple

from repro.baselines.common import BaselineProtocol, default_budget, run_baseline
from repro.core.estimate import ProtocolRun
from repro.graphs.graph import Graph
from repro.simulator.byzantine import Adversary
from repro.simulator.churn import ChurnSchedule
from repro.simulator.messages import Message
from repro.simulator.node import NodeContext, Outbox, Protocol

__all__ = ["SupportEstimationProtocol", "run_support_estimation_baseline"]

_TAG = "support-min"


def _make_message(minima: Tuple[float, ...]) -> Message:
    return Message(kind="estimate", payload=(_TAG, tuple(minima)), size_bits=64 * len(minima), num_ids=0)


def _parse(message: Message, k: int) -> Optional[Tuple[float, ...]]:
    if message.kind != "estimate":
        return None
    payload = message.payload
    if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == _TAG:
        values = payload[1]
        if isinstance(values, tuple) and len(values) == k:
            try:
                return tuple(float(v) for v in values)
            except (TypeError, ValueError):
                return None
        return None
    # A bare number from a Byzantine value-faker: interpret it as a claimed
    # minimum in every coordinate (a deflation attack on this estimator).
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        return tuple(max(0.0, float(payload)) for _ in range(k))
    return None


class SupportEstimationProtocol(BaselineProtocol):
    """Propagate coordinate-wise exponential minima, decide after a round budget."""

    def __init__(self, ctx: NodeContext, rounds_budget: int, k: int) -> None:
        self.rounds_budget = rounds_budget
        self.k = k
        self.minima: Tuple[float, ...] = tuple(
            ctx.rng.expovariate(1.0) for _ in range(k)
        )

    def _maybe_decide(self, round_number: int) -> None:
        if round_number >= self.rounds_budget and not self._decided:
            self._decided = True
            total = sum(self.minima)
            if total <= 0.0:
                self._estimate = math.inf
            else:
                n_hat = max(1.0, (self.k - 1) / total)
                self._estimate = math.log(n_hat)
            self._decision_round = round_number

    def on_start(self, ctx: NodeContext) -> Outbox:
        message = _make_message(self.minima)
        return {v: [message] for v in ctx.neighbors}

    def on_round(self, ctx: NodeContext, inbox: List) -> Outbox:
        improved = False
        for message in inbox:
            values = _parse(message, self.k)
            if values is None:
                continue
            merged = tuple(min(a, b) for a, b in zip(self.minima, values))
            if merged != self.minima:
                self.minima = merged
                improved = True
        self._maybe_decide(ctx.round)
        if self._decided:
            return {}
        if improved:
            message = _make_message(self.minima)
            return {v: [message] for v in ctx.neighbors}
        return {}


def run_support_estimation_baseline(
    graph: Graph,
    *,
    byzantine: Iterable[int] = (),
    adversary: Optional[Adversary] = None,
    seed: int = 0,
    rounds_budget: Optional[int] = None,
    k: int = 16,
    evaluation_set: Optional[Set[int]] = None,
    churn: Optional[ChurnSchedule] = None,
) -> ProtocolRun:
    """Run the support-estimation baseline; ``rounds_budget`` defaults to
    :func:`~repro.baselines.common.default_budget`."""
    if rounds_budget is None:
        rounds_budget = default_budget(graph)

    def factory(ctx: NodeContext) -> Protocol:
        return SupportEstimationProtocol(ctx, rounds_budget, k)

    return run_baseline(
        graph,
        factory,
        byzantine=byzantine,
        adversary=adversary,
        seed=seed,
        max_rounds=rounds_budget + 2,
        evaluation_set=evaluation_set,
        churn=churn,
        params={"rounds_budget": rounds_budget, "k": k},
    )
