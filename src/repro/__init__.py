"""Byzantine-Resilient Counting in Networks -- reproduction library.

A full reimplementation of Chatterjee, Pandurangan & Robinson, *Byzantine-
Resilient Counting in Networks* (ICDCS 2022, arXiv:2204.11951): the
deterministic LOCAL-model counting algorithm (Theorem 1), the randomized
small-message CONGEST algorithm (Theorem 2), the structural machinery they
rely on (expander subgraph lemma, locally-tree-like property of ``H(n, d)``
random regular graphs), the impossibility construction (Theorem 3), the
non-Byzantine-resilient baselines the paper motivates against, and a
synchronous full-information-adversary simulator to run them all on.

Quickstart
----------

>>> from repro import hnd_random_regular_graph, run_congest_counting
>>> graph = hnd_random_regular_graph(256, 8, seed=1)
>>> run = run_congest_counting(graph, seed=1)
>>> run.outcome.decided_fraction()
1.0

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
experiment harness that regenerates every quantitative claim of the paper.
"""

from repro.core import (
    CongestCountingProtocol,
    CongestParameters,
    CountingOutcome,
    DecisionRecord,
    LocalCountingProtocol,
    LocalParameters,
    PhaseSchedule,
    ProtocolRun,
    byzantine_budget,
    run_congest_counting,
    run_local_counting,
)
from repro.graphs import (
    Graph,
    barbell_graph,
    chained_copies_graph,
    configuration_model_graph,
    cycle_graph,
    good_set,
    good_treelike_set,
    hnd_random_regular_graph,
    hypercube_graph,
    margulis_torus_graph,
    small_world_graph,
    treelike_nodes,
    vertex_expansion_sampled,
)
from repro.simulator import (
    Adversary,
    Message,
    Network,
    Protocol,
    RunResult,
    SilentAdversary,
    SynchronousEngine,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "LocalParameters",
    "CongestParameters",
    "byzantine_budget",
    "DecisionRecord",
    "CountingOutcome",
    "ProtocolRun",
    "LocalCountingProtocol",
    "run_local_counting",
    "CongestCountingProtocol",
    "PhaseSchedule",
    "run_congest_counting",
    # graphs
    "Graph",
    "hnd_random_regular_graph",
    "configuration_model_graph",
    "hypercube_graph",
    "margulis_torus_graph",
    "cycle_graph",
    "barbell_graph",
    "chained_copies_graph",
    "small_world_graph",
    "good_set",
    "good_treelike_set",
    "treelike_nodes",
    "vertex_expansion_sampled",
    # simulator
    "Message",
    "Network",
    "Protocol",
    "RunResult",
    "SynchronousEngine",
    "Adversary",
    "SilentAdversary",
]
