"""Flooding-based diameter estimation (Section 1.2).

For a bounded-degree expander the diameter is ``Θ(log n)``, so a node can
estimate ``log n`` by measuring how long a flood takes to cross the network:

1. the maximum-id node emerges as the leader while every node floods the
   largest id it has seen, recording the hop count at which that id reached
   it;
2. the network then propagates the maximum observed hop count, so every node
   learns (approximately) the leader's eccentricity, a 2-approximation of the
   diameter.

The paper points out (Section 1.2) that this approach already fails at the
leader-election step in the Byzantine setting, and that Byzantine nodes can
fake hop counts arbitrarily; this implementation exposes both failure modes.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.baselines.common import BaselineProtocol, default_budget, run_baseline
from repro.core.estimate import ProtocolRun
from repro.graphs.graph import Graph
from repro.simulator.byzantine import Adversary
from repro.simulator.churn import ChurnSchedule
from repro.simulator.messages import Message
from repro.simulator.node import NodeContext, Outbox, Protocol

__all__ = ["FloodingDiameterProtocol", "run_flooding_baseline"]

_LEADER = "flood-leader"
_ECC = "flood-ecc"


def _message(tag: str, *values) -> Message:
    # Node identifiers are carried as exact integers; hop counts as floats.
    num_ids = 1 if tag == _LEADER else 0
    return Message(
        kind="estimate", payload=(tag,) + tuple(values), size_bits=64, num_ids=num_ids
    )


class FloodingDiameterProtocol(BaselineProtocol):
    """Leader flood with hop counting, then eccentricity max-propagation."""

    def __init__(self, ctx: NodeContext, flood_rounds: int, ecc_rounds: int) -> None:
        self.flood_rounds = flood_rounds
        self.ecc_rounds = ecc_rounds
        self.best_id = ctx.node_id
        self.best_hops = 0.0
        self.max_ecc = 0.0

    def on_start(self, ctx: NodeContext) -> Outbox:
        message = _message(_LEADER, self.best_id, 0.0)
        return {v: [message] for v in ctx.neighbors}

    def on_round(self, ctx: NodeContext, inbox: List) -> Outbox:
        round_number = ctx.round
        changed = False
        for message in inbox:
            if message.kind != "estimate":
                continue
            payload = message.payload
            if isinstance(payload, (int, float)) and not isinstance(payload, bool):
                # Byzantine value injection: read as a claimed hop count /
                # eccentricity, exactly what the max-propagation trusts.
                value = float(payload)
                if value > self.max_ecc:
                    self.max_ecc = value
                    changed = True
                continue
            if not isinstance(payload, tuple) or not payload:
                continue
            tag = payload[0]
            if tag == _LEADER and len(payload) == 3:
                claimed_id = payload[1]
                if not isinstance(claimed_id, int) or isinstance(claimed_id, bool):
                    continue
                try:
                    hops = float(payload[2]) + 1.0
                except (TypeError, ValueError):
                    continue
                if claimed_id > self.best_id or (
                    claimed_id == self.best_id and hops < self.best_hops
                ):
                    self.best_id = claimed_id
                    self.best_hops = hops
                    changed = True
            elif tag == _ECC and len(payload) == 2:
                try:
                    value = float(payload[1])
                except (TypeError, ValueError):
                    continue
                if value > self.max_ecc:
                    self.max_ecc = value
                    changed = True

        if round_number < self.flood_rounds:
            if changed:
                message = _message(_LEADER, self.best_id, self.best_hops)
                return {v: [message] for v in ctx.neighbors}
            return {}

        if round_number == self.flood_rounds:
            # Transition: seed the eccentricity propagation with our own hops.
            self.max_ecc = max(self.max_ecc, self.best_hops)
            message = _message(_ECC, self.max_ecc)
            return {v: [message] for v in ctx.neighbors}

        if round_number < self.flood_rounds + self.ecc_rounds:
            if changed:
                message = _message(_ECC, self.max_ecc)
                return {v: [message] for v in ctx.neighbors}
            return {}

        if not self._decided:
            self._decided = True
            self._decision_round = round_number
            self._estimate = self.max_ecc if self.max_ecc > 0 else None
        return {}


def run_flooding_baseline(
    graph: Graph,
    *,
    byzantine: Iterable[int] = (),
    adversary: Optional[Adversary] = None,
    seed: int = 0,
    phase_rounds: Optional[int] = None,
    evaluation_set: Optional[Set[int]] = None,
    churn: Optional[ChurnSchedule] = None,
) -> ProtocolRun:
    """Run the flooding baseline; estimates are the learned leader eccentricity.

    The flood and the eccentricity propagation get ``phase_rounds`` rounds
    each (default :func:`~repro.baselines.common.default_budget`).
    """
    if phase_rounds is None:
        phase_rounds = default_budget(graph)

    def factory(ctx: NodeContext) -> Protocol:
        return FloodingDiameterProtocol(ctx, phase_rounds, phase_rounds)

    return run_baseline(
        graph,
        factory,
        byzantine=byzantine,
        adversary=adversary,
        seed=seed,
        max_rounds=2 * phase_rounds + 4,
        evaluation_set=evaluation_set,
        churn=churn,
        params={"phase_rounds": phase_rounds},
    )
