"""Spanning-tree converge-cast counting (Section 1.2).

The folklore exact-counting protocol for benign synchronous networks:

1. **Tree building.**  Every node floods the largest node id it has seen
   together with its distance to that id; each node adopts the sender of the
   best announcement as its parent, which builds a BFS tree rooted at the
   maximum-id node.
2. **Converge-cast.**  Every node repeatedly reports ``1 + Σ (children's
   latest counts)`` to its parent; after ``depth`` rounds the root's value is
   exactly ``n``.
3. **Broadcast.**  The root floods the final count; every node's estimate of
   ``log n`` is the natural logarithm of the count it receives.

With zero Byzantine nodes this counts exactly.  A single Byzantine node can
report an arbitrary subtree count (inflating the total without bound) or
announce a phantom maximum id, so the protocol has no Byzantine resilience --
the paper's motivating observation.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set

from repro.baselines.common import BaselineProtocol, default_budget, run_baseline
from repro.core.estimate import ProtocolRun
from repro.graphs.graph import Graph
from repro.simulator.byzantine import Adversary
from repro.simulator.churn import ChurnSchedule
from repro.simulator.messages import Message
from repro.simulator.node import NodeContext, Outbox, Protocol

__all__ = ["SpanningTreeProtocol", "run_spanning_tree_baseline"]

_BUILD = "st-build"
_COUNT = "st-count"
_RESULT = "st-result"


def _message(tag: str, *values) -> Message:
    # Node identifiers are kept as exact integers (casting a 62-bit id to a
    # float would corrupt it); counts/depths may be ints or floats.
    num_ids = 1 if tag == _BUILD else 0
    return Message(
        kind="estimate", payload=(tag,) + tuple(values), size_bits=64, num_ids=num_ids
    )


class SpanningTreeProtocol(BaselineProtocol):
    """BFS-tree construction, converge-cast, and result broadcast."""

    def __init__(self, ctx: NodeContext, build_rounds: int, count_rounds: int, spread_rounds: int) -> None:
        self.build_rounds = build_rounds
        self.count_rounds = count_rounds
        self.spread_rounds = spread_rounds
        self.root_id = ctx.node_id
        self.parent: Optional[int] = None  # neighbor index
        self.depth = 0
        self._child_counts: Dict[int, float] = {}
        self._result: Optional[float] = None

    # -- helpers ---------------------------------------------------------- #
    def _total_rounds(self) -> int:
        return self.build_rounds + self.count_rounds + self.spread_rounds

    def _my_count(self) -> float:
        return 1.0 + sum(self._child_counts.values())

    def _finish(self, ctx: NodeContext) -> None:
        if self._decided:
            return
        self._decided = True
        self._decision_round = ctx.round
        if self.root_id == ctx.node_id:
            # The root's own converge-cast value is the count.
            self._result = self._my_count()
        if self._result is not None and self._result >= 1.0:
            self._estimate = math.log(self._result)
        else:
            self._estimate = None

    # -- engine callbacks -------------------------------------------------- #
    def on_start(self, ctx: NodeContext) -> Outbox:
        message = _message(_BUILD, self.root_id, 0)
        return {v: [message] for v in ctx.neighbors}

    def on_round(self, ctx: NodeContext, inbox: List) -> Outbox:
        round_number = ctx.round
        if round_number > self._total_rounds():
            self._finish(ctx)
            return {}

        changed = False
        for message in inbox:
            if message.kind != "estimate":
                continue
            payload = message.payload
            if isinstance(payload, (int, float)) and not isinstance(payload, bool):
                # Byzantine value injection: an untagged number is read the way
                # the converge-cast reads a child's report -- a claimed
                # subtree count.  Nothing in the protocol can validate it.
                self._child_counts[message.sender] = float(payload)
                continue
            if not isinstance(payload, tuple) or not payload:
                continue
            tag = payload[0]
            if tag == _BUILD and len(payload) == 3:
                claimed_root, claimed_depth = payload[1], payload[2]
                if not isinstance(claimed_root, int) or isinstance(claimed_root, bool):
                    continue
                try:
                    claimed_depth = float(claimed_depth)
                except (TypeError, ValueError):
                    continue
                better_root = claimed_root > self.root_id
                shorter = claimed_root == self.root_id and claimed_depth + 1 < self.depth
                if better_root or shorter:
                    self.root_id = claimed_root
                    self.depth = claimed_depth + 1
                    self.parent = message.sender
                    self._child_counts.clear()
                    changed = True
            elif tag == _COUNT and len(payload) == 3:
                claimed_root, count = payload[1], payload[2]
                if not isinstance(claimed_root, int) or isinstance(claimed_root, bool):
                    continue
                try:
                    count = float(count)
                except (TypeError, ValueError):
                    continue
                if claimed_root == self.root_id:
                    self._child_counts[message.sender] = count
            elif tag == _RESULT and len(payload) == 2:
                try:
                    result = float(payload[1])
                except (TypeError, ValueError):
                    continue
                if self._result is None:
                    self._result = result

        if round_number <= self.build_rounds:
            if changed:
                message = _message(_BUILD, self.root_id, self.depth)
                return {v: [message] for v in ctx.neighbors}
            return {}

        if round_number <= self.build_rounds + self.count_rounds:
            # Converge-cast: report the current subtree count to the parent.
            if self.parent is not None:
                message = _message(_COUNT, self.root_id, self._my_count())
                return {self.parent: [message]}
            return {}

        # Result-broadcast window.
        if self.root_id == ctx.node_id and self._result is None:
            self._result = self._my_count()
        if round_number == self._total_rounds():
            self._finish(ctx)
        if self._result is not None:
            message = _message(_RESULT, self._result)
            return {v: [message] for v in ctx.neighbors}
        return {}


def run_spanning_tree_baseline(
    graph: Graph,
    *,
    byzantine: Iterable[int] = (),
    adversary: Optional[Adversary] = None,
    seed: int = 0,
    phase_rounds: Optional[int] = None,
    evaluation_set: Optional[Set[int]] = None,
    churn: Optional[ChurnSchedule] = None,
) -> ProtocolRun:
    """Run the spanning-tree baseline; each of its three phases gets
    ``phase_rounds`` rounds (default :func:`~repro.baselines.common.default_budget`)."""
    if phase_rounds is None:
        phase_rounds = default_budget(graph)

    def factory(ctx: NodeContext) -> Protocol:
        return SpanningTreeProtocol(ctx, phase_rounds, phase_rounds, phase_rounds)

    return run_baseline(
        graph,
        factory,
        byzantine=byzantine,
        adversary=adversary,
        seed=seed,
        max_rounds=3 * phase_rounds + 4,
        evaluation_set=evaluation_set,
        churn=churn,
        params={"phase_rounds": phase_rounds},
    )
