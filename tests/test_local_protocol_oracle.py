"""Algorithm 1's production node against its pseudocode-order oracle.

``LocalCountingProtocol.on_round`` decides on a malformed message or a mute
neighbor before it integrates, applies Line (4) before it derives anything,
and derives the interior only once every BFS-layer prefix expanded.
``local_protocol_reference.ReferenceLocalProtocol`` does every step in the
pseudocode's order over the set-based view.  On small cells of every
shipped Algorithm 1 behaviour, both placements and with or without churn,
each node must decide in the same round with the same estimate, and the
runs must take the same rounds, messages and bits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from local_protocol_reference import run_reference

from repro.core.local_counting import run_local_counting
from repro.core.parameters import LocalParameters
from repro.scenarios.behaviours import make_adversary
from repro.scenarios.churn import build_churn
from repro.scenarios.graphs import build_graph
from repro.scenarios.placements import place_byzantine


def _summary(result):
    decisions = {
        u: (protocol.decision_round, protocol.estimate)
        for u, protocol in sorted(result.protocols.items())
    }
    metrics = result.metrics
    return decisions, result.rounds_executed, metrics.total_messages, metrics.total_bits


@given(
    n=st.integers(min_value=8, max_value=64),
    family=st.sampled_from((("hnd", 4), ("hnd", 6), ("complete", None))),
    behaviour=st.sampled_from(("silent", "fake-topology", "inconsistent")),
    placement=st.sampled_from(("spread", "clustered")),
    count=st.integers(min_value=0, max_value=3),
    churn=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_production_node_matches_pseudocode_order(
    n, family, behaviour, placement, count, churn, seed
):
    # On a complete graph without Byzantine nodes no node learns anything
    # in round 1: Line (4) may not fire before round 2.  Complete graphs
    # stay at most 24 nodes: the set-based view integrates their Θ(n²)
    # claims per node slowly.
    name, degree = family
    if degree is None:
        graph = build_graph(name, n=8 + n % 17, seed=seed)
    else:
        graph = build_graph(name, n=n, degree=degree, seed=seed)
    byzantine = place_byzantine(placement, graph, count, seed=seed)
    params = LocalParameters(max_degree=max(2, graph.max_degree()))

    def schedule():
        if not churn:
            return None
        return build_churn("node-leave-join", graph, seed=seed, start=2, absence=2)

    production = run_local_counting(
        graph,
        byzantine=byzantine,
        adversary=make_adversary(behaviour, params),
        params=params,
        seed=seed,
        churn=schedule(),
    ).result
    records = next(iter(production.protocols.values()))._interner.by_value

    def claim_order(entry):
        # The production run's record-id order (claims it never saw last).
        record = records.get(entry)
        return (0, record.rid) if record is not None else (1, entry)

    reference = run_reference(
        graph,
        byzantine=byzantine,
        adversary=make_adversary(behaviour, params),
        params=params,
        seed=seed,
        churn=schedule(),
        claim_order=claim_order,
    )
    assert _summary(production) == _summary(reference)
