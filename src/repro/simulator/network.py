"""Network wrapper binding a graph to node identifiers and Byzantine roles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.graphs.graph import Graph

__all__ = ["Network"]


@dataclass
class Network:
    """A graph together with the set of Byzantine nodes.

    The network object is what the engine executes on; it knows which nodes
    are Byzantine (the protocols themselves never do).
    """

    graph: Graph
    byzantine: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        self.byzantine = frozenset(self.byzantine)
        for b in self.byzantine:
            if not (0 <= b < self.graph.n):
                raise ValueError(f"Byzantine node {b} is not a node of the graph")

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.graph.n

    @property
    def honest(self) -> Tuple[int, ...]:
        """Indices of honest (good) nodes in increasing order."""
        return tuple(u for u in range(self.graph.n) if u not in self.byzantine)

    @property
    def num_byzantine(self) -> int:
        """Number of Byzantine nodes."""
        return len(self.byzantine)

    def is_byzantine(self, node: int) -> bool:
        """Whether ``node`` is Byzantine."""
        return node in self.byzantine

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Neighbors of ``node``."""
        return self.graph.neighbors(node)

    def node_id(self, node: int) -> int:
        """Protocol-visible identifier of ``node``."""
        return self.graph.node_id(node)

    def honest_fraction(self) -> float:
        """Fraction of nodes that are honest."""
        if self.graph.n == 0:
            return 1.0
        return len(self.honest) / self.graph.n

    @classmethod
    def fully_honest(cls, graph: Graph) -> "Network":
        """Network with no Byzantine nodes (the benign case of Corollary 1)."""
        return cls(graph=graph, byzantine=frozenset())
