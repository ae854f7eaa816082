"""Vertex expansion, spectral bounds, and the Good/GoodTL sets of Lemma 1.

The paper's algorithms and analysis revolve around the *vertex expansion*

    h(G) = min_{0 < |S| <= n/2}  |Out(S)| / |S|,

where ``Out(S)`` is the set of neighbors of ``S`` outside ``S`` (Definition 1).
Computing ``h(G)`` exactly is NP-hard in general; this module provides

* an exact exponential-time computation for small graphs (used in unit tests
  and in the exhaustive variant of Algorithm 1's expansion check),
* the expansion of a *given* set (cheap, used in Algorithm 1's per-round
  checks),
* a sampled/heuristic lower-bound estimator (sweep cuts from BFS balls and
  random subsets) for large graphs,
* spectral quantities (adjacency spectral gap, Cheeger-style bound) that
  certify expansion for the random regular graphs,
* the construction of the ``Good`` and ``GoodTL`` node sets of Lemma 1 and
  Section 5.1 -- the honest nodes far from every Byzantine node (and, for
  GoodTL, also locally tree-like).
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, List, Optional, Set

from repro.graphs.graph import Graph
from repro.graphs.neighborhoods import ball_of_set
from repro.graphs.treelike import treelike_nodes, treelike_radius

__all__ = [
    "out_neighbors",
    "vertex_expansion_of_set",
    "vertex_expansion_exact",
    "vertex_expansion_sampled",
    "spectral_gap",
    "cheeger_lower_bound",
    "good_set",
    "good_treelike_set",
    "prune_to_expander",
]


def out_neighbors(graph: Graph, subset: Iterable[int]) -> Set[int]:
    """``Out(S)``: the neighbors of ``S`` in ``V \\ S`` (Definition 1)."""
    s = set(subset)
    result: Set[int] = set()
    for u in s:
        for v in graph.neighbors(u):
            if v not in s:
                result.add(v)
    return result


def vertex_expansion_of_set(graph: Graph, subset: Iterable[int]) -> float:
    """``|Out(S)| / |S|`` for a particular set ``S`` (must be non-empty)."""
    s = set(subset)
    if not s:
        raise ValueError("expansion of the empty set is undefined")
    return len(out_neighbors(graph, s)) / len(s)


def vertex_expansion_exact(graph: Graph, *, max_n: int = 20) -> float:
    """Exact vertex expansion by enumerating all subsets of size <= n/2.

    Exponential in ``n``; guarded by ``max_n`` so it is only used on the tiny
    graphs of unit tests and of the exhaustive Algorithm 1 variant.
    """
    n = graph.n
    if n == 0:
        raise ValueError("expansion of the empty graph is undefined")
    if n == 1:
        return 0.0
    if n > max_n:
        raise ValueError(
            f"exact vertex expansion is exponential; refusing n={n} > max_n={max_n}"
        )
    best = math.inf
    nodes = list(range(n))
    for size in range(1, n // 2 + 1):
        for combo in itertools.combinations(nodes, size):
            best = min(best, vertex_expansion_of_set(graph, combo))
            if best == 0.0:
                return 0.0
    return best


def vertex_expansion_sampled(
    graph: Graph,
    *,
    num_samples: int = 200,
    seed: Optional[int] = None,
    include_balls: bool = True,
) -> float:
    """Heuristic *upper bound* on the vertex expansion via candidate cuts.

    Evaluates ``|Out(S)|/|S|`` over a family of candidate sets -- BFS balls of
    all radii around sampled centers, random connected subsets grown by BFS
    with random frontier truncation, and single nodes -- and returns the
    minimum observed.  Because it only inspects candidate sets, the returned
    value is an upper bound on ``h(G)``; for expanders it is usually close,
    and for the bottleneck graphs used in the impossibility experiments it
    finds the bottleneck cut (which is a ball or a clique side), making it a
    useful discriminator between "expander" and "non-expander" workloads.
    """
    n = graph.n
    if n <= 1:
        return 0.0
    rng = random.Random(seed)
    best = math.inf
    half = n // 2

    # Single vertices.
    for u in range(min(n, 64)):
        best = min(best, vertex_expansion_of_set(graph, {u}))

    centers = [rng.randrange(n) for _ in range(max(1, num_samples // 4))]
    if include_balls:
        for center in centers:
            dist = graph.bfs_distances(center)
            by_radius: List[Set[int]] = []
            max_d = max(d for d in dist if d >= 0)
            for r in range(max_d + 1):
                s = {u for u, d in enumerate(dist) if 0 <= d <= r}
                if 0 < len(s) <= half:
                    best = min(best, vertex_expansion_of_set(graph, s))
                by_radius.append(s)

    # Random connected subsets.
    for _ in range(num_samples):
        target_size = rng.randint(1, max(1, half))
        start = rng.randrange(n)
        subset = {start}
        frontier = [start]
        while frontier and len(subset) < target_size:
            u = frontier.pop(rng.randrange(len(frontier)))
            for v in graph.neighbors(u):
                if v not in subset and len(subset) < target_size:
                    subset.add(v)
                    frontier.append(v)
        if 0 < len(subset) <= half:
            best = min(best, vertex_expansion_of_set(graph, subset))
    return best


def spectral_gap(graph: Graph) -> float:
    """Spectral gap ``d_avg - lambda_2`` of the adjacency matrix.

    For d-regular graphs this is the usual ``d - lambda_2``; a large gap
    certifies expansion (Cheeger).  Uses dense eigenvalues for small graphs
    and sparse Lanczos beyond a size threshold.
    """
    import numpy as np

    n = graph.n
    if n < 2:
        return 0.0
    if n <= 600:
        a = np.zeros((n, n))
        for u, v in graph.edges():
            a[u, v] = 1.0
            a[v, u] = 1.0
        eigenvalues = np.linalg.eigvalsh(a)
        lam1, lam2 = eigenvalues[-1], eigenvalues[-2]
        return float(lam1 - lam2)
    try:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        rows, cols = [], []
        for u, v in graph.edges():
            rows.extend([u, v])
            cols.extend([v, u])
        data = [1.0] * len(rows)
        a = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        vals = spla.eigsh(a, k=2, which="LA", return_eigenvectors=False, maxiter=5000)
        vals = sorted(float(v) for v in vals)
        return vals[1] - vals[0]
    except Exception:  # pragma: no cover - scipy fallback path
        sampled = vertex_expansion_sampled(graph, num_samples=50, seed=0)
        return sampled


def cheeger_lower_bound(graph: Graph) -> float:
    """A Cheeger-style lower bound on edge conductance derived from the gap.

    For a d-regular graph with second adjacency eigenvalue ``lambda_2``, the
    edge expansion satisfies ``h_e(G) >= (d - lambda_2) / 2``; dividing by the
    maximum degree converts it to a (loose) vertex-expansion lower bound used
    as a certification sanity check in the experiments.
    """
    delta = graph.max_degree()
    if delta == 0:
        return 0.0
    return spectral_gap(graph) / (2.0 * delta)


# --------------------------------------------------------------------------- #
# Lemma 1 / Lemma 13 machinery
# --------------------------------------------------------------------------- #
def prune_to_expander(
    graph: Graph,
    removed: Set[int],
    *,
    target_expansion: float,
    max_prune_iterations: int = 64,
    seed: Optional[int] = None,
) -> Set[int]:
    """Approximate the pruning procedure of Lemma 13 (Appendix A).

    Lemma 13 removes a fault set ``F`` and then iteratively prunes any set of
    at most half the remaining nodes whose expansion falls below ``c * phi``;
    the result is a large subgraph with expansion ``>= c * phi``.  Finding the
    worst set is NP-hard, so this implementation prunes greedily using the
    same candidate-cut family as :func:`vertex_expansion_sampled`: while some
    candidate set of the surviving subgraph has expansion below
    ``target_expansion``, remove it.  The returned set of surviving nodes is
    therefore a *subset* of the true Lemma 13 subgraph's complement-free
    surviving set, which is the conservative direction for the experiments
    (we never overstate the size of the good set).
    """
    surviving = set(range(graph.n)) - set(removed)
    rng = random.Random(seed)
    for _ in range(max_prune_iterations):
        if not surviving:
            break
        # Work on the induced subgraph of surviving nodes.
        pruned_something = False
        # Candidate sets: low-degree-in-subgraph vertices and balls around them.
        internal_degree = {
            u: sum(1 for v in graph.neighbors(u) if v in surviving) for u in surviving
        }
        # Nodes with the weakest connectivity inside the surviving graph are
        # the natural candidates for bad cuts.
        weakest = sorted(surviving, key=lambda u: internal_degree[u])[:32]
        half = len(surviving) // 2
        for u in weakest:
            if u not in surviving:
                continue
            # Grow a ball inside the surviving set and test each prefix.
            dist_nodes = [u]
            seen = {u}
            frontier = [u]
            radius = 0
            while frontier and len(seen) <= half and radius < 6:
                radius += 1
                nxt = []
                for x in frontier:
                    for y in graph.neighbors(x):
                        if y in surviving and y not in seen:
                            seen.add(y)
                            nxt.append(y)
                            dist_nodes.append(y)
                frontier = nxt
                candidate = set(dist_nodes)
                if not candidate or len(candidate) > half:
                    break
                out = {
                    v
                    for x in candidate
                    for v in graph.neighbors(x)
                    if v in surviving and v not in candidate
                }
                if len(out) < target_expansion * len(candidate):
                    surviving -= candidate
                    pruned_something = True
                    break
        if not pruned_something:
            break
    return surviving


def good_set(
    graph: Graph,
    byzantine: Set[int],
    gamma: float,
    *,
    alpha_prime: Optional[float] = None,
    seed: Optional[int] = None,
    min_radius: int = 1,
) -> Set[int]:
    """The set ``Good`` of Lemma 1: honest nodes far from every Byzantine node.

    ``Good`` consists of the nodes outside ``B(Byz, floor((gamma/2) log_Δ n))``
    that additionally survive the Lemma 13 pruning (so that the subgraph they
    induce retains expansion ``alpha'``).  When ``alpha_prime`` is ``None``
    only the distance condition is applied, which is the part of Lemma 1 the
    experiments measure directly.

    ``min_radius`` keeps the exclusion radius at least 1 even when the
    asymptotic formula ``floor((gamma/2) log_Δ n)`` rounds to 0 at simulable
    network sizes -- a node sharing an edge with a Byzantine node can never be
    shielded from it, so excluding direct neighbors is the minimal sensible
    interpretation of Lemma 1 at small ``n``.  Pass ``min_radius=0`` for the
    literal formula.
    """
    n = graph.n
    if n == 0:
        return set()
    delta = max(2, graph.max_degree())
    radius = int(math.floor((gamma / 2.0) * math.log(max(n, 2), delta)))
    radius = max(min_radius, radius)
    contaminated = ball_of_set(graph, byzantine, radius) if byzantine else set()
    candidates = set(range(n)) - contaminated - set(byzantine)
    if alpha_prime is None:
        return candidates
    removed = set(range(n)) - candidates
    survivors = prune_to_expander(
        graph, removed, target_expansion=alpha_prime, seed=seed
    )
    return survivors & candidates


def good_treelike_set(
    graph: Graph,
    byzantine: Set[int],
    gamma: float,
    *,
    d: Optional[int] = None,
    radius: Optional[int] = None,
    min_radius: int = 1,
) -> Set[int]:
    """``GoodTL = Good ∩ TreeLike`` (Section 5.1).

    ``TreeLike`` is the set of locally tree-like nodes of Lemma 2, computed up
    to the radius ``log n / (10 log d)`` (or an explicit ``radius``).
    """
    good = good_set(graph, byzantine, gamma, min_radius=min_radius)
    degree = d if d is not None else max(2, graph.max_degree())
    r = radius if radius is not None else treelike_radius(graph.n, degree)
    tree_like = treelike_nodes(graph, degree=degree, radius=r)
    return good & tree_like
