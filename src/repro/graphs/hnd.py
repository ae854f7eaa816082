"""Random regular graph models used by the randomized algorithm (Section 2).

The paper's second algorithm is analyzed on the ``H(n, d)`` *permutation
model*: the union of ``d/2`` independent random Hamiltonian cycles on the same
vertex set (``d >= 8`` an even constant).  Such graphs are Ramanujan expanders
with high probability and, by Greenhill et al. (2002), events that hold whp in
the permutation model also hold whp in the configuration model and therefore
for almost all simple ``d``-regular graphs -- exactly the argument the paper
uses to transfer Theorem 2 to "almost all d-regular graphs".

This module provides both models so that experiments can cross-check results
on the two distributions.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.graphs.graph import Graph

__all__ = ["hnd_random_regular_graph", "configuration_model_graph"]


def _random_hamiltonian_cycle(n: int, rng: random.Random) -> List[Tuple[int, int]]:
    """Edges of a uniformly random Hamiltonian cycle on ``n`` nodes."""
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[(i + 1) % n]) for i in range(n)]


def hnd_random_regular_graph(
    n: int,
    d: int,
    *,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    name: Optional[str] = None,
) -> Graph:
    """Sample an ``H(n, d)`` permutation-model random regular graph.

    The graph is the union of ``d/2`` independent uniformly random Hamiltonian
    cycles.  The resulting multigraph is simplified (parallel edges and, for
    tiny ``n``, self-loops are merged), so node degrees are *at most* ``d`` and
    equal to ``d`` for all but an expected ``O(1)`` nodes -- the same
    simplification the paper applies when moving from the permutation model to
    simple graphs.

    Parameters
    ----------
    n:
        Number of nodes (``n >= 3``).
    d:
        Target degree; must be a positive even integer.
    seed, rng:
        Source of randomness; exactly one may be given.  With neither, a fresh
        nondeterministic ``random.Random()`` is used.
    name:
        Optional graph name for reports.
    """
    if n < 3:
        raise ValueError("H(n, d) requires n >= 3")
    if d < 2 or d % 2 != 0:
        raise ValueError("H(n, d) requires an even degree d >= 2")
    if seed is not None and rng is not None:
        raise ValueError("pass either seed or rng, not both")
    local_rng = rng if rng is not None else random.Random(seed)

    edges: List[Tuple[int, int]] = []
    for _ in range(d // 2):
        edges.extend(_random_hamiltonian_cycle(n, local_rng))
    graph_name = name if name is not None else f"H({n},{d})"
    return Graph.from_edges(n, edges, name=graph_name)


def configuration_model_graph(
    n: int,
    d: int,
    *,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    name: Optional[str] = None,
) -> Graph:
    """Sample a simple ``d``-regular graph (the "almost all d-regular graphs" model).

    Conceptually this is the configuration (pairing) model conditioned on
    simplicity: half-edges are paired uniformly at random and pairings with
    self-loops or parallel edges are rejected.  Naive whole-graph rejection has
    acceptance probability ``exp(-(d²-1)/4)``, which is astronomically small
    already for ``d = 8``, so the implementation delegates to networkx's
    ``random_regular_graph`` (Steger-Wormald style pairing with local
    conflict-avoidance and restarts), whose output distribution is
    asymptotically uniform over simple ``d``-regular graphs -- the same
    distribution the paper's "almost all d-regular graphs" statements refer to
    via contiguity.

    Parameters mirror :func:`hnd_random_regular_graph`.  ``n * d`` must be
    even.
    """
    if n < 2:
        raise ValueError("configuration model requires n >= 2")
    if d < 1:
        raise ValueError("configuration model requires d >= 1")
    if d >= n:
        raise ValueError("configuration model requires d < n for a simple graph")
    if (n * d) % 2 != 0:
        raise ValueError("configuration model requires n * d to be even")
    if seed is not None and rng is not None:
        raise ValueError("pass either seed or rng, not both")
    if rng is not None:
        effective_seed = rng.getrandbits(32)
    else:
        effective_seed = seed

    import networkx as nx

    graph_name = name if name is not None else f"config({n},{d})"
    nx_graph = nx.random_regular_graph(d, n, seed=effective_seed)
    graph = Graph.from_networkx(nx_graph, name=graph_name)
    return graph
