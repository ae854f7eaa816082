"""Fuzz-style regression tests: malformed Byzantine topology payloads.

Algorithm 1's honest nodes must never raise on adversarial input; structurally
malformed information ends in a decision via the ``inconsistent`` path
(Lines 5-7 of the pseudocode), not in an exception.
"""

import random

import pytest

from repro.core.local_counting import LocalCountingProtocol, LocalView, run_local_counting
from repro.core.parameters import LocalParameters
from repro.graphs.hnd import hnd_random_regular_graph
from repro.simulator.byzantine import Adversary
from repro.simulator.messages import Message
from repro.simulator.node import NodeContext
from view_delta import integrate_tracked


class TestIntegrateFuzz:
    """LocalView.integrate flags malformed reports instead of absorbing them."""

    def _view(self):
        return LocalView(100, [101, 102])

    def test_non_int_node_id_flagged(self):
        bad, added, new_edges, new_vertices = integrate_tracked(
            self._view(), [("evil", (1, 2))], [], max_degree=4
        )
        assert bad and added == 0 and new_edges == [] and new_vertices == []

    def test_non_int_edge_ids_flagged(self):
        bad, added, new_edges, _ = integrate_tracked(
            self._view(), [(101, ("a", "b"))], [], max_degree=4
        )
        assert bad and added == 0 and new_edges == []

    def test_nested_tuple_ids_flagged(self):
        bad, added, new_edges, _ = integrate_tracked(
            self._view(), [((1, 2), (3,)), (103, ((4, 5), 6))], [], max_degree=4
        )
        assert bad and added == 0 and new_edges == []

    def test_non_int_reported_vertices_flagged(self):
        bad, added, _, new_vertices = integrate_tracked(
            self._view(), [], ["ghost", (1,), None], max_degree=4
        )
        assert bad and added == 0 and new_vertices == []

    def test_oversized_edge_set_flagged(self):
        bad, _ = self._view().integrate(
            [(103, tuple(range(200, 300)))], [], max_degree=8
        )
        assert bad

    def test_self_loop_flagged(self):
        bad, _ = self._view().integrate([(103, (103, 104))], [], max_degree=4)
        assert bad

    def test_float_ids_equal_to_settled_edge_set_flagged(self):
        # frozenset({1.0, 2.0}) == frozenset({1, 2}), so the duplicate-claim
        # fast path must still type-check elements: numeric non-int ids are
        # malformed Byzantine data even when they compare equal to the
        # settled ints.
        view = self._view()
        view.integrate([(3, (1, 2))], [], max_degree=4)
        bad, added, new_edges, new_vertices = integrate_tracked(
            view, [(3, (1.0, 2.0))], [], max_degree=4
        )
        assert bad and added == 0 and new_edges == [] and new_vertices == []

    def test_malformed_reports_do_not_contaminate_view(self):
        view = self._view()
        view.integrate([("evil", (1, 2)), (103, ("x",))], ["ghost"], max_degree=4)
        assert "evil" not in view.vertices and "ghost" not in view.vertices
        assert all(isinstance(v, int) for v in view.vertices)
        assert all(isinstance(v, int) for v in view.adjacency())


def _protocol_and_ctx(max_degree=4):
    ctx = NodeContext(
        index=0,
        node_id=100,
        neighbors=(1, 2),
        neighbor_ids={1: 101, 2: 102},
        rng=random.Random(0),
        round=0,
    )
    protocol = LocalCountingProtocol(ctx, LocalParameters(max_degree=max_degree))
    protocol.on_start(ctx)
    return protocol, ctx


def _topology(payload, sender):
    return Message(kind="topology", payload=payload, sender=sender, sender_id=sender + 100)


#: Malformed "topology" payloads; every neighbor speaks, so the decision can
#: only come from the ``inconsistent`` path.
MALFORMED_PAYLOADS = [
    pytest.param(None, id="none-payload"),
    pytest.param(42, id="int-payload"),
    pytest.param("garbage", id="string-payload"),
    pytest.param((1, 2, 3), id="wrong-arity"),
    pytest.param(([], []), id="lists-not-tuples"),
    pytest.param((((1,),), ()), id="edge-entry-not-a-pair"),
    pytest.param((((1, 2, 3),), ()), id="edge-entry-triple"),
    pytest.param((((1, 7),), ()), id="edge-ids-not-iterable"),
    pytest.param(((([1], (2,)),), ()), id="unhashable-node-id"),
    pytest.param((((1, ([2], 3)),), ()), id="unhashable-edge-ids"),
    pytest.param(((("evil", (1, 2)),), ()), id="non-int-ids"),
    pytest.param((((3, tuple(range(50))),), ()), id="oversized-edge-set"),
    pytest.param((((3, (3, 4)),), ()), id="self-loop"),
    pytest.param(((), ("ghost",)), id="non-int-frontier-vertex"),
]


class TestProtocolFuzz:
    """A node fed garbage from its neighbors decides instead of raising."""

    @pytest.mark.parametrize("payload", MALFORMED_PAYLOADS)
    def test_malformed_payload_decides_via_inconsistent(self, payload):
        protocol, ctx = _protocol_and_ctx()
        ctx.round = 1
        inbox = [_topology(payload, 1), _topology(((), ()), 2)]
        outbox = protocol.on_round(ctx, inbox)
        assert protocol.decided, f"payload {payload!r} did not trigger a decision"
        assert protocol.estimate == 1.0  # decided in round 1, the garbage round
        assert outbox == {}

    def test_well_formed_empty_delta_does_not_decide_in_round_one(self):
        # Control: both neighbors send well-formed (empty) deltas; the node
        # must keep running rather than treat them as inconsistent.
        protocol, ctx = _protocol_and_ctx()
        ctx.round = 1
        inbox = [_topology(((), ()), 1), _topology(((), ()), 2)]
        protocol.on_round(ctx, inbox)
        assert not protocol.decided


class _GarbageTopologyAdversary(Adversary):
    """Sends a different malformed topology payload every round."""

    _PAYLOADS = [
        None,
        "junk",
        (1, 2, 3),
        ((("evil", (1, 2)),), ()),
        (((1, ([2], 3)),), ()),
        ((), ("ghost", ("nested",))),
    ]

    def act(self, view):
        payload = self._PAYLOADS[view.round % len(self._PAYLOADS)]
        out = {}
        for b in view.byzantine:
            message = Message(kind="topology", payload=payload, size_bits=8, num_ids=0)
            out[b] = self.broadcast_from(view, b, message)
        return out


class TestEndToEndFuzz:
    def test_garbage_adversary_never_crashes_and_all_decide(self):
        graph = hnd_random_regular_graph(64, 8, seed=7)
        run = run_local_counting(
            graph,
            byzantine={0, 13},
            adversary=_GarbageTopologyAdversary(),
            params=LocalParameters(max_degree=8),
            seed=3,
        )
        assert run.outcome.decided_fraction() == 1.0
        # Neighbors of the garbage senders decide immediately (round 1).
        for v in set(graph.neighbors(0)) - {13}:
            assert run.outcome.records[v].estimate == 1.0
