"""Reference Algorithm 1 node, in the pseudocode's order, over the set-based view.

:class:`ReferenceLocalProtocol` is the oracle for
:class:`repro.core.local_counting.LocalCountingProtocol`.  Each round it

1. reads the whole inbox, flagging malformed messages and mute neighbors
   (Lines 5-7),
2. integrates every well-formed payload into a
   :class:`~local_view_reference.SetBasedLocalView` (Line 3),
3. derives the view and checks every candidate subset (Lines 9-13: each
   BFS-layer prefix and the interior set),
4. and only then applies Line (4): from round 2 on, a view that learned no
   vertex decides.

Nothing is skipped: the view is integrated even in a round that a mute
neighbor already decides, and every candidate is checked even after one
failed.  Its broadcasts are plain ``(entries, vertex_ids)`` tuples whose
``size_bits`` come from :func:`~repro.simulator.messages.estimate_payload_bits`
and whose ``num_ids`` count every id, so a run of it must match a run of
the production protocol in every decision and in its rounds, messages and
bits (``tests/test_local_protocol_oracle.py``).

The one thing it takes from the production side is the order of the claim
entries in a broadcast, given as a sort key.  A churn run's receiver
integrates two claims for one node in payload order and keeps the last, and
the production payload lists claims in the run's record-id order, so the
oracle test passes the production run's record ids.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from local_view_reference import SetBasedLocalView

from repro.core.parameters import LocalParameters
from repro.graphs.graph import Graph
from repro.simulator.byzantine import Adversary
from repro.simulator.churn import ChurnSchedule
from repro.simulator.engine import RunResult, SynchronousEngine
from repro.simulator.messages import LazyTuple, Message, estimate_payload_bits
from repro.simulator.network import Network
from repro.simulator.node import Broadcast, NodeContext, Outbox, Protocol

__all__ = ["ReferenceLocalProtocol", "run_reference"]

Entry = Tuple[int, Tuple[int, ...]]


def _well_formed(payload) -> bool:
    return (
        isinstance(payload, (tuple, LazyTuple))
        and len(payload) == 2
        and isinstance(payload[0], tuple)
        and isinstance(payload[1], tuple)
    )


class ReferenceLocalProtocol(Protocol):
    """One node of Algorithm 1, every step taken in pseudocode order."""

    def __init__(
        self,
        ctx: NodeContext,
        params: LocalParameters,
        *,
        dynamic: bool = False,
        claim_order: Optional[Callable[[Entry], Any]] = None,
    ):
        self.params = params
        self._claim_order = claim_order
        self.view = SetBasedLocalView(ctx.node_id, ctx.neighbor_ids.values())
        self._dynamic = dynamic
        self._known_neighbors: Set[int] = set(ctx.neighbors)
        self._pending_neighbors: List[int] = []
        # The pending delta: claim values and vertex ids not broadcast yet.
        self._entries: Set[Entry] = {(ctx.node_id, tuple(sorted(ctx.neighbor_ids.values())))}
        self._vertices: Set[int] = set(ctx.neighbor_ids.values())
        self._decision_round: Optional[int] = None

    @property
    def decided(self) -> bool:
        return self._decision_round is not None

    @property
    def estimate(self) -> Optional[float]:
        return None if self._decision_round is None else float(self._decision_round)

    @property
    def decision_round(self) -> Optional[int]:
        return self._decision_round

    @property
    def halted(self) -> bool:
        return self.decided

    def _broadcast(self, ctx: NodeContext) -> Outbox:
        entries = tuple(sorted(self._entries, key=self._claim_order))
        vertices = tuple(sorted(self._vertices))
        self._entries, self._vertices = set(), set()
        payload = (entries, vertices)
        num_ids = sum(1 + len(edges) for _, edges in entries) + len(vertices)
        message = Message(
            kind="topology",
            payload=payload,
            size_bits=estimate_payload_bits(payload),
            num_ids=num_ids,
        )
        return Broadcast(message, ctx.neighbors)

    def _expansion_check_fails(self) -> bool:
        total = self.view.size()
        failed = False
        for size, out_size in self.view.expansion_check_candidates():
            if size < total and out_size / size < self.params.alpha_prime:
                failed = True
        return failed

    def on_start(self, ctx: NodeContext) -> Outbox:
        return self._broadcast(ctx)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Outbox:
        if self.decided:
            return {}
        # Lines 5-7: malformed messages and mute neighbors.
        inconsistent = False
        speakers = set()
        payloads = []
        for message in inbox:
            if message.kind != "topology" or not _well_formed(message.payload):
                inconsistent = True
                continue
            speakers.add(message.sender)
            payloads.append(message.payload)
        expected = self._known_neighbors if self._dynamic else set(ctx.neighbors)
        mute = not speakers.issuperset(expected)
        if self._dynamic and self._pending_neighbors:
            self._known_neighbors.update(self._pending_neighbors)
            self._pending_neighbors.clear()
            self._known_neighbors.intersection_update(ctx.neighbors)
        # Line 3: integrate every payload.
        added = 0
        try:
            for entries, vertices in payloads:
                bad, new_entries, new_vertices = self.view.integrate(
                    entries,
                    vertices,
                    max_degree=self.params.max_degree,
                    allow_updates=self._dynamic,
                )
                inconsistent = inconsistent or bad
                self._entries.update(new_entries)
                self._vertices.update(new_vertices)
                added += len(new_vertices)
        except (TypeError, ValueError):
            inconsistent = True
        # Lines 9-13 over every candidate, then Line (4).
        expansion_fails = self._expansion_check_fails()
        stopped_growing = ctx.round >= 2 and added == 0
        if inconsistent or mute or expansion_fails or stopped_growing:
            self._decision_round = ctx.round
            return {}
        return self._broadcast(ctx)

    def on_topology_change(
        self,
        ctx: NodeContext,
        added_neighbors: Dict[int, int],
        removed_neighbors: Dict[int, int],
    ) -> None:
        if self.decided:
            return
        changed = False
        for index in removed_neighbors:
            self._known_neighbors.discard(index)
        for other in removed_neighbors.values():
            changed = self.view.delete_edge(ctx.node_id, other) or changed
        own = (ctx.node_id, tuple(sorted(ctx.neighbor_ids.values())))
        if added_neighbors:
            self._pending_neighbors.extend(added_neighbors)
            self.view.update_claim(*own)
            self._entries.update(self.view.settled_entries())
            self._vertices.update(self.view.vertices)
        elif changed:
            self._entries.add(own)


def run_reference(
    graph: Graph,
    *,
    byzantine: Set[int],
    adversary: Adversary,
    params: LocalParameters,
    seed: int,
    churn: Optional[ChurnSchedule] = None,
    claim_order: Optional[Callable[[Entry], Any]] = None,
) -> RunResult:
    """Run :class:`ReferenceLocalProtocol` the way ``run_local_counting`` runs
    the production protocol (same network, round cap and churn handling);
    ``claim_order`` sorts each broadcast's claim entries (by value if
    ``None``)."""
    dynamic = churn is not None and bool(churn)
    engine = SynchronousEngine(
        Network(graph=graph, byzantine=frozenset(byzantine)),
        lambda ctx: ReferenceLocalProtocol(
            ctx, params, dynamic=dynamic, claim_order=claim_order
        ),
        adversary=adversary,
        seed=seed,
        max_rounds=6 * int(math.ceil(math.log2(max(graph.n, 2)))) + 20,
        churn=churn if dynamic else None,
    )
    return engine.run()
