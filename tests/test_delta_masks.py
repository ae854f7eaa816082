"""Algorithm 1's carried delta masks, claim-union memo and on-demand payload.

A :class:`LocalView` carries ``delta_nodes`` and ``delta_span`` next to its
pending ``delta_records``, so its owner broadcasts without walking the
records; the run's :class:`ClaimInterner` memoizes ORs of ``cmask`` over slot
masks (:meth:`ClaimInterner.claims_union`); and an honest payload builds its
``(entries, vertex_ids)`` tuple only when something reads it.  Hypothesis
drives small runs of Algorithm 1 nodes on one interner through masked
deltas, Byzantine per-entry payloads, ``rebroadcast``, ``delete_edge``,
``update_claim``, ``retract_claim`` and ``on_topology_change``, and checks
after every step that the carried masks equal a recomputation, that every
payload reads exactly like the eager tuple, and at the end that every
memoized union equals a fresh OR.  Whole runs (a Byzantine one and a churn
one) check the carried masks before every broadcast.
"""

import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.strategies import FakeTopologyAdversary, InconsistentTopologyAdversary
from repro.core import local_counting
from repro.core.local_counting import ClaimInterner, LocalCountingProtocol, run_local_counting
from repro.core.parameters import LocalParameters
from repro.graphs.hnd import hnd_random_regular_graph
from repro.simulator.churn import ChurnSchedule, TopologyDelta
from repro.simulator.messages import estimate_payload_bits
from repro.simulator.node import NodeContext
from view_delta import assert_carried_masks, recomputed_claim_masks

MAX_DEGREE = 5
POOL = tuple(range(10))


@st.composite
def claims(draw):
    node = draw(st.sampled_from(POOL))
    edges = sorted(set(draw(st.lists(st.sampled_from(POOL), max_size=MAX_DEGREE))) - {node})
    return node, tuple(edges)


#: Byzantine per-entry payloads: valid claims (which may conflict with the
#: owners' own), malformed ones, an oversized one, and one that raises.
byzantine_entries = st.one_of(
    claims(),
    st.sampled_from((
        ("evil", (1, 2)),
        (6, (6, 7)),
        (8, tuple(range(20, 20 + MAX_DEGREE + 1))),
        (4, (5, [6])),
    )),
)
byzantine_payloads = st.tuples(
    st.lists(byzantine_entries, max_size=3).map(tuple),
    st.lists(st.sampled_from(POOL + (11, 12)), max_size=3).map(tuple),
)
ops = st.one_of(
    st.tuples(
        st.just("round"),
        st.permutations(range(4)),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4), byzantine_payloads), max_size=3),
    ),
    st.tuples(st.just("rebroadcast"), st.integers(0, 3)),
    st.tuples(st.just("delete"), st.integers(0, 3), st.sampled_from(POOL), st.sampled_from(POOL)),
    st.tuples(st.just("update"), st.integers(0, 3), claims()),
    st.tuples(st.just("retract"), st.integers(0, 3), st.sampled_from(POOL)),
    st.tuples(st.just("link"), st.integers(0, 3), st.sampled_from(POOL)),
    st.tuples(st.just("cut"), st.integers(0, 3), st.integers(0, MAX_DEGREE)),
)


def positions(mask):
    """Set-bit positions of ``mask``, lowest first, one test per position."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def eager_payload(interner, records, slots):
    """The ``(entries, vertex_ids)`` tuple a delta of these masks stands for:
    claim entries in record-id order, vertex ids in slot order."""
    return (
        tuple(interner.records[rid].entry for rid in positions(records)),
        tuple(interner.ids[slot] for slot in positions(slots)),
    )


def checked_broadcast(protocol):
    """``protocol._delta_message()``, checked against the pending masks."""
    view = protocol.view
    interner = view._interner
    records, slots = view.delta_records, view.delta_vertices
    nodes, span = recomputed_claim_masks(view)
    message = protocol._delta_message()
    payload = message.payload
    assert (payload.records, payload.slots) == (records, slots)
    assert (payload.nodes, payload.span) == (nodes, span | slots)
    eager = eager_payload(interner, records, slots)
    assert_reads_like(payload, eager)
    assert message.size_bits == estimate_payload_bits(eager)
    assert message.num_ids == sum(1 + len(edges) for _, edges in eager[0]) + len(eager[1])
    assert (view.delta_records, view.delta_vertices, view.delta_nodes, view.delta_span) == (
        0, 0, 0, 0,
    )
    return payload


def assert_reads_like(payload, eager):
    """A lazy payload iterates, indexes, compares and costs like ``eager``."""
    assert tuple(payload) == eager
    entries, vertex_ids = payload
    assert (entries, vertex_ids) == eager
    assert (payload[0], payload[1], payload[-1]) == (eager[0], eager[1], eager[-1])
    assert payload[:1] == eager[:1]
    assert len(payload) == 2
    assert payload == eager and eager == payload
    assert not payload != eager and not eager != payload
    assert payload != (eager[0], eager[1] + (99,))
    assert hash(payload) == hash(eager)
    assert repr(payload) == repr(eager)
    assert estimate_payload_bits(payload) == estimate_payload_bits(eager)


def assert_memo_fresh(interner):
    """Every memoized claim union equals a fresh OR over claimed slots."""
    for mask, union in interner.unions.items():
        assert mask & ~interner.claimed == 0
        assert union == reduce(or_, (interner.cmask[j] for j in interner.bits(mask)), 0)


class TestBits:
    @given(st.lists(st.integers(0, 700), max_size=80))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_sparse_and_dense_masks_list_positions_lowest_first(self, picks):
        interner = ClaimInterner()
        interner.positions.extend(range(701))
        mask = reduce(or_, (1 << i for i in picks), 0)
        assert list(interner.bits(mask)) == positions(mask)


class Owner:
    """An Algorithm 1 node with a context the test can re-wire."""

    def __init__(self, interner, own, neighbors, dynamic):
        neighbors = tuple(sorted(set(neighbors) - {own}))
        self.ctx = NodeContext(
            index=own, node_id=own, neighbors=neighbors,
            neighbor_ids={v: v for v in neighbors}, rng=random.Random(0),
        )
        self.protocol = LocalCountingProtocol(
            self.ctx, LocalParameters(max_degree=MAX_DEGREE), interner=interner, dynamic=dynamic
        )

    def rewire(self, added, removed):
        ids = self.ctx.neighbor_ids
        for v in removed:
            ids.pop(v)
        ids.update({v: v for v in added})
        self.ctx.neighbors = tuple(sorted(ids))
        self.protocol.on_topology_change(
            self.ctx, {v: v for v in added}, {v: v for v in removed}
        )


class TestCarriedMasksFuzz:
    @given(
        dynamic=st.booleans(),
        owners=st.lists(
            st.tuples(st.sampled_from(POOL), st.lists(st.sampled_from(POOL), max_size=4)),
            min_size=2,
            max_size=4,
        ),
        ops=st.lists(ops, max_size=12),
    )
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    def test_carried_masks_memo_and_payloads(self, dynamic, owners, ops):
        interner = ClaimInterner()
        nodes = [Owner(interner, own, nbrs, dynamic) for own, nbrs in owners]
        live = list(range(len(nodes)))
        for node in nodes:
            assert_carried_masks(node.protocol.view)
        outgoing = [checked_broadcast(node.protocol) for node in nodes]
        for op in ops:
            if op[0] == "round":
                _, order, byzantine = op
                for k in list(live):
                    inbox = [outgoing[j] for j in order if j in live and j != k]
                    for receiver, place, payload in byzantine:
                        if receiver % len(nodes) == k:
                            inbox.insert(place, payload)
                    view = nodes[k].protocol.view
                    try:
                        view.integrate(inbox=inbox, max_degree=MAX_DEGREE, allow_updates=dynamic)
                    except TypeError:
                        # A raising entry keeps what was integrated before it.
                        live.remove(k)
                    assert_carried_masks(view)
                for k in live:
                    outgoing[k] = checked_broadcast(nodes[k].protocol)
                continue
            k = op[1] % len(nodes)
            owner = nodes[k]
            view = owner.protocol.view
            if op[0] == "rebroadcast":
                view.rebroadcast()
            elif op[0] == "delete":
                view.delete_edge(op[2], op[3])
            elif op[0] == "update":
                view.update_claim(*op[2])
            elif op[0] == "retract":
                view.retract_claim(op[2])
            elif not dynamic or k not in live:
                # Only dynamic runs get topology changes.
                continue
            elif op[0] == "link":
                if op[2] != owner.ctx.node_id and op[2] not in owner.ctx.neighbor_ids:
                    owner.rewire([op[2]], [])
            elif owner.ctx.neighbors:
                owner.rewire([], [owner.ctx.neighbors[op[2] % len(owner.ctx.neighbors)]])
            assert_carried_masks(view)
        assert_memo_fresh(interner)


@pytest.fixture
def checked_sends(monkeypatch):
    """Check the carried masks before every broadcast; collect the messages."""
    original = LocalCountingProtocol._delta_message
    sends = []

    def delta_message(self):
        assert_carried_masks(self.view)
        message = original(self)
        sends.append(message)
        return message

    monkeypatch.setattr(LocalCountingProtocol, "_delta_message", delta_message)
    return sends


class TestWholeRuns:
    """Carried masks before every broadcast of whole runs, and the memo after."""

    @pytest.mark.parametrize("adversary", [FakeTopologyAdversary, InconsistentTopologyAdversary])
    def test_byzantine_run(self, checked_sends, adversary):
        graph = hnd_random_regular_graph(64, 6, seed=3)
        run = run_local_counting(graph, byzantine=(5, 40), adversary=adversary(), seed=1)
        self._check(run, checked_sends)

    def test_churn_run(self, checked_sends):
        graph = hnd_random_regular_graph(48, 6, seed=2)
        churn = ChurnSchedule({
            2: TopologyDelta(leave_nodes=(3,), remove_edges=(next(iter(graph.edges())),)),
            3: TopologyDelta(add_edges=((0, 47), (10, 20))),
            4: TopologyDelta(join_nodes=(3,)),
        })
        run = run_local_counting(graph, churn=churn, seed=0)
        assert run.result.metrics.churn_events
        self._check(run, checked_sends)

    @staticmethod
    def _check(run, sends):
        assert sends
        interner = next(iter(run.result.protocols.values()))._interner
        assert interner.unions
        assert_memo_fresh(interner)
        # Payloads nobody read were never built.
        assert all(not hasattr(message.payload, "_built") for message in sends)
        assert local_counting._Delta is type(sends[0].payload)
