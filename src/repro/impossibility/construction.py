"""The Theorem 3 construction and the simulating cut adversary.

``build_chained_instance`` glues ``t`` copies of a base graph at one shared
node ``b``.  ``SimulatingCutAdversary`` makes ``b`` Byzantine in the way the
proof requires: toward each copy, ``b`` behaves exactly as an honest node
running the target protocol would behave if that copy were the whole network.
Consequently the honest nodes of each copy observe an execution that is
message-for-message identical to an execution on the base graph, even though
the real network is ``t`` times larger.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.graphs.generators import chained_copies_graph
from repro.graphs.graph import Graph
from repro.graphs.neighborhoods import induced_subgraph
from repro.simulator.byzantine import Adversary, AdversaryView, ByzantineOutbox
from repro.simulator.messages import Message
from repro.simulator.node import NodeContext, Outbox, Protocol
from repro.simulator.rng import split_seed

__all__ = [
    "ChainedCopiesInstance",
    "build_chained_instance",
    "copies_isomorphic_to_base",
    "SimulatingCutAdversary",
]


@dataclass
class ChainedCopiesInstance:
    """A glued graph together with its bookkeeping.

    Attributes
    ----------
    base:
        The base graph ``C_n``.
    glued:
        The glued graph ``H`` consisting of ``t`` copies of ``base`` sharing
        one node.
    shared_node:
        Index (in ``glued``) of the shared node ``b``.
    copy_membership:
        ``copy_membership[k]`` lists the glued-graph indices of the nodes of
        copy ``k`` (excluding ``b``).
    """

    base: Graph
    glued: Graph
    shared_node: int
    copy_membership: List[List[int]]

    @property
    def num_copies(self) -> int:
        """Number of glued copies ``t``."""
        return len(self.copy_membership)

    def copy_of(self, node: int) -> Optional[int]:
        """Which copy a (non-shared) node belongs to, or ``None`` for ``b``."""
        for k, members in enumerate(self.copy_membership):
            if node in members:
                return k
        return None


def build_chained_instance(
    base: Graph, num_copies: int, *, attachment_node: int = 0, seed: Optional[int] = None
) -> ChainedCopiesInstance:
    """Build the Theorem 3 instance: ``num_copies`` copies of ``base`` glued at one node."""
    glued, shared, membership = chained_copies_graph(
        base, num_copies, attachment_node=attachment_node, seed=seed
    )
    return ChainedCopiesInstance(
        base=base, glued=glued, shared_node=shared, copy_membership=membership
    )


def copies_isomorphic_to_base(instance: ChainedCopiesInstance) -> bool:
    """Verify that every copy together with ``b`` induces a graph isomorphic to the base.

    The construction maps base nodes to glued nodes copy by copy, so the check
    compares the induced subgraph of (copy ∪ {b}) against the base graph under
    the construction's own node correspondence (degree sequence and edge count
    must match exactly).
    """
    base = instance.base
    base_degrees = sorted(base.degree(u) for u in range(base.n))
    base_edges = base.num_edges()
    for members in instance.copy_membership:
        nodes = sorted(members + [instance.shared_node])
        sub, _ = induced_subgraph(instance.glued, nodes)
        if sub.n != base.n:
            return False
        if sub.num_edges() != base_edges:
            return False
        if sorted(sub.degree(u) for u in range(sub.n)) != base_degrees:
            return False
    return True


class SimulatingCutAdversary(Adversary):
    """The shared node ``b`` simulates an independent honest execution per copy.

    For every copy ``k``, the adversary instantiates the honest protocol with
    a context whose neighbors are exactly ``b``'s neighbors *inside copy k*,
    feeds it only the messages arriving from copy ``k``, and relays its
    outbox only into copy ``k``.  Each copy therefore observes precisely the
    execution it would observe if it were the entire network, which is the
    heart of the Theorem 3 argument.

    Parameters
    ----------
    instance:
        The chained-copies instance (identifies ``b`` and the copies).
    protocol_factory:
        Builds the honest protocol given a :class:`NodeContext`; must be the
        same factory the honest nodes use.
    """

    def __init__(
        self,
        instance: ChainedCopiesInstance,
        protocol_factory: Callable[[NodeContext], Protocol],
    ) -> None:
        self.instance = instance
        self.protocol_factory = protocol_factory
        self._per_copy_protocols: Dict[int, Protocol] = {}
        self._per_copy_contexts: Dict[int, NodeContext] = {}
        self._copy_of_neighbor: Dict[int, int] = {}

    def setup(self, graph: Graph, byzantine, rng: random.Random) -> None:  # type: ignore[override]
        super().setup(graph, byzantine, rng)
        shared = self.instance.shared_node
        if shared not in byzantine:
            raise ValueError("the shared node of the construction must be Byzantine")
        # Partition b's neighbors by copy and build one simulated protocol per copy.
        neighbors_by_copy: Dict[int, List[int]] = {}
        for v in graph.neighbors(shared):
            copy_index = self.instance.copy_of(v)
            if copy_index is None:
                continue
            neighbors_by_copy.setdefault(copy_index, []).append(v)
            self._copy_of_neighbor[v] = copy_index
        for copy_index, neighbors in neighbors_by_copy.items():
            ctx = NodeContext(
                index=shared,
                node_id=graph.node_id(shared),
                neighbors=tuple(neighbors),
                neighbor_ids={v: graph.node_id(v) for v in neighbors},
                rng=random.Random(split_seed(rng.getrandbits(62), "copy", copy_index)),
                round=0,
            )
            self._per_copy_contexts[copy_index] = ctx
            self._per_copy_protocols[copy_index] = self.protocol_factory(ctx)

    def act(self, view: AdversaryView) -> ByzantineOutbox:
        shared = self.instance.shared_node
        combined: Dict[int, List[Message]] = {}
        inbox = view.byzantine_inboxes.get(shared, [])
        for copy_index, protocol in self._per_copy_protocols.items():
            ctx = self._per_copy_contexts[copy_index]
            ctx.round = view.round
            copy_inbox = [
                m for m in inbox if m.sender in self._copy_of_neighbor
                and self._copy_of_neighbor[m.sender] == copy_index
            ]
            if view.round == 0:
                outbox: Outbox = protocol.on_start(ctx) or {}
            else:
                outbox = protocol.on_round(ctx, copy_inbox) or {}
            for target, messages in outbox.items():
                combined.setdefault(target, []).extend(messages)
        return {shared: combined}

    def simulated_estimates(self) -> Dict[int, Optional[float]]:
        """The estimate each per-copy simulated instance decided (diagnostics)."""
        return {
            k: (p.estimate if p.decided else None)
            for k, p in self._per_copy_protocols.items()
        }
