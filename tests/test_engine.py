"""Tests of the synchronous engine: delivery, sender stamping, adversary hooks,
stop conditions, and the full-information model guarantees."""

import random
from typing import Dict, List

import pytest

from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.graphs.graph import Graph
from repro.simulator.byzantine import Adversary, AdversaryView, SilentAdversary
from repro.simulator.engine import SynchronousEngine
from repro.simulator.messages import Message
from repro.simulator.network import Network
from repro.simulator.node import NodeContext, Outbox, Protocol
from repro.simulator.rng import split_seed


class EchoProtocol(Protocol):
    """Broadcasts a counter every round; records everything it receives."""

    def __init__(self, ctx: NodeContext, rounds_to_run: int = 3) -> None:
        self.rounds_to_run = rounds_to_run
        self.received: List[Message] = []
        self.round_log: List[int] = []
        self._decided = False

    @property
    def decided(self) -> bool:
        return self._decided

    @property
    def estimate(self):
        return 1.0 if self._decided else None

    def on_start(self, ctx: NodeContext) -> Outbox:
        msg = Message.make("echo", ("hello", ctx.node_id))
        return {v: [msg.clone()] for v in ctx.neighbors}

    def on_round(self, ctx: NodeContext, inbox) -> Outbox:
        self.received.extend(inbox)
        self.round_log.append(ctx.round)
        if ctx.round >= self.rounds_to_run:
            self._decided = True
            return {}
        msg = Message.make("echo", ctx.round)
        return {v: [msg.clone()] for v in ctx.neighbors}


class MisbehavedProtocol(EchoProtocol):
    """Tries to send to a non-neighbor (the engine must drop it)."""

    def on_start(self, ctx: NodeContext) -> Outbox:
        msg = Message.make("echo", 0)
        bogus_target = max(ctx.neighbors) + 1000
        return {bogus_target: [msg], ctx.neighbors[0]: [msg.clone()]}


class BroadcastThenHaltProtocol(EchoProtocol):
    """Broadcasts a final message in the very round its ``halted`` flips."""

    def on_round(self, ctx: NodeContext, inbox) -> Outbox:
        self.received.extend(inbox)
        self.round_log.append(ctx.round)
        if ctx.round >= self.rounds_to_run:
            self._decided = True
            msg = Message.make("echo", "last-words")
            return {v: [msg.clone()] for v in ctx.neighbors}
        msg = Message.make("echo", ctx.round)
        return {v: [msg.clone()] for v in ctx.neighbors}


class RecordingAdversary(Adversary):
    """Sends a tagged message from every Byzantine node and records its view."""

    def __init__(self):
        self.views: List[AdversaryView] = []

    def act(self, view: AdversaryView):
        self.views.append(view)
        out = {}
        for b in view.byzantine:
            msg = Message.make("byz", view.round)
            out[b] = {v: [msg.clone()] for v in view.byzantine_neighbors(b)}
        return out


class OutOfGraphAdversary(Adversary):
    """Tries to send from a non-Byzantine node and to a non-neighbor."""

    def act(self, view: AdversaryView):
        some_byz = next(iter(view.byzantine))
        honest = [u for u in range(view.graph.n) if u not in view.byzantine][0]
        msg = Message.make("byz", 1)
        return {
            honest: {0: [msg.clone()]},  # not Byzantine -> must be dropped
            some_byz: {10_000: [msg.clone()]},  # not a neighbor -> must be dropped
        }


def _run(graph, byzantine=frozenset(), adversary=None, rounds_to_run=3, **kwargs):
    network = Network(graph=graph, byzantine=frozenset(byzantine))
    engine = SynchronousEngine(
        network,
        lambda ctx: EchoProtocol(ctx, rounds_to_run),
        adversary=adversary,
        seed=1,
        max_rounds=kwargs.pop("max_rounds", 50),
        **kwargs,
    )
    return engine, engine.run()


class TestDelivery:
    def test_messages_delivered_next_round(self):
        graph = path_graph(3)
        _, result = _run(graph)
        middle = result.protocols[1]
        # Round-0 messages from both neighbors arrive in round 1.
        first_round_messages = [m for m in middle.received if m.payload == ("hello", graph.node_id(0)) or m.payload == ("hello", graph.node_id(2))]
        assert len(first_round_messages) == 2

    def test_sender_stamped_with_true_identity(self):
        graph = path_graph(2)
        _, result = _run(graph)
        received = result.protocols[0].received
        assert all(m.sender == 1 for m in received)
        assert all(m.sender_id == graph.node_id(1) for m in received)

    def test_no_delivery_between_non_neighbors(self):
        graph = path_graph(3)
        _, result = _run(graph)
        endpoint = result.protocols[0]
        assert all(m.sender == 1 for m in endpoint.received)

    def test_invalid_targets_dropped(self):
        graph = path_graph(3)
        network = Network(graph=graph)
        engine = SynchronousEngine(network, lambda ctx: MisbehavedProtocol(ctx), seed=0, max_rounds=5)
        result = engine.run()
        # Nothing crashed and only legitimate neighbors got messages.
        assert result.metrics.total_messages > 0

    def test_metrics_count_messages(self):
        graph = cycle_graph(4)
        _, result = _run(graph, rounds_to_run=2)
        # Round 0: 4 nodes x 2 neighbors = 8 messages; round 1: same; round 2: none.
        assert result.metrics.total_messages == 16


class TestNodeRandomness:
    def test_node_streams_are_seeded_on_first_read(self):
        engine, _ = _run(cycle_graph(6))
        contexts = engine._contexts
        # The echo protocol never draws, so no node built its stream.
        assert all(ctx._rng is None for ctx in contexts.values())
        for u, ctx in contexts.items():
            expected = random.Random(split_seed(1, "node", u))
            assert ctx.rng is ctx.rng
            assert [ctx.rng.random() for _ in range(3)] == [
                expected.random() for _ in range(3)
            ]

    def test_a_given_stream_is_used_as_is(self):
        rng = random.Random(5)
        ctx = NodeContext(index=0, node_id=9, neighbors=(), neighbor_ids={}, rng=rng)
        assert ctx.rng is rng


class TestTermination:
    def test_stops_when_all_halted(self):
        graph = cycle_graph(5)
        _, result = _run(graph, rounds_to_run=2)
        assert result.completed
        assert all(p.decided for p in result.protocols.values())

    def test_max_rounds_cap(self):
        graph = cycle_graph(5)
        _, result = _run(graph, rounds_to_run=10_000, max_rounds=7)
        assert result.rounds_executed <= 8
        assert not result.completed

    def test_custom_stop_condition(self):
        graph = cycle_graph(5)
        network = Network(graph=graph)
        engine = SynchronousEngine(
            network,
            lambda ctx: EchoProtocol(ctx, rounds_to_run=100),
            seed=0,
            max_rounds=50,
            stop_condition=lambda protocols, r: r >= 4,
        )
        result = engine.run()
        assert result.completed
        assert result.rounds_executed <= 6

    def test_halted_nodes_not_scheduled(self):
        graph = cycle_graph(4)
        _, result = _run(graph, rounds_to_run=2)
        for protocol in result.protocols.values():
            # on_round is never called again after the protocol halts.
            assert max(protocol.round_log) <= 3

    def test_decision_rounds_recorded(self):
        graph = cycle_graph(4)
        _, result = _run(graph, rounds_to_run=2)
        assert set(result.metrics.decision_rounds) == set(range(4))

    def test_stop_round_argument_on_early_stop_path(self):
        # Regression: the stop condition always receives the last *executed*
        # round, on the break path as on the budget-exhaustion path.
        seen = []

        def stop(protocols, round_number):
            seen.append(round_number)
            return round_number >= 3

        graph = cycle_graph(4)
        network = Network(graph=graph)
        engine = SynchronousEngine(
            network,
            lambda ctx: EchoProtocol(ctx, rounds_to_run=100),
            seed=0,
            max_rounds=50,
            stop_condition=stop,
        )
        result = engine.run()
        assert result.completed
        # Called before rounds 1..4 with the previous round's number each time.
        assert seen == [0, 1, 2, 3]
        # Rounds 0..3 executed (round 0 is on_start).
        assert result.rounds_executed == 4

    def test_stop_round_argument_on_budget_exhaustion_path(self):
        seen = []

        def stop(protocols, round_number):
            seen.append(round_number)
            return False

        graph = cycle_graph(4)
        network = Network(graph=graph)
        engine = SynchronousEngine(
            network,
            lambda ctx: EchoProtocol(ctx, rounds_to_run=100),
            seed=0,
            max_rounds=5,
            stop_condition=stop,
        )
        result = engine.run()
        assert not result.completed
        # Five pre-round checks (rounds 1..5) plus the final post-loop check,
        # which must see the last executed round (5), not a stale value.
        assert seen == [0, 1, 2, 3, 4, 5]
        assert result.rounds_executed == 6  # rounds 0..5

    def test_zero_round_budget_evaluates_stop_for_round_zero(self):
        seen = []

        def stop(protocols, round_number):
            seen.append(round_number)
            return True

        graph = cycle_graph(4)
        network = Network(graph=graph)
        engine = SynchronousEngine(
            network,
            lambda ctx: EchoProtocol(ctx, rounds_to_run=100),
            seed=0,
            stop_condition=stop,
        )
        result = engine.run(max_rounds=0)
        # Only round 0 (on_start) ran; the single stop evaluation sees it.
        assert seen == [0]
        assert result.completed
        assert result.rounds_executed == 1


class TestAdversaryIntegration:
    def test_byzantine_nodes_have_no_protocol(self):
        graph = cycle_graph(6)
        _, result = _run(graph, byzantine={0}, adversary=SilentAdversary())
        assert 0 not in result.protocols
        assert len(result.protocols) == 5

    def test_adversary_messages_delivered_with_true_sender(self):
        graph = cycle_graph(6)
        adversary = RecordingAdversary()
        _, result = _run(graph, byzantine={0}, adversary=adversary)
        neighbor = result.protocols[1]
        byz_messages = [m for m in neighbor.received if m.kind == "byz"]
        assert byz_messages
        assert all(m.sender == 0 for m in byz_messages)

    def test_adversary_sees_honest_outboxes_before_acting(self):
        graph = cycle_graph(6)
        adversary = RecordingAdversary()
        _run(graph, byzantine={0}, adversary=adversary)
        view = adversary.views[0]
        assert view.round == 0
        # Full information: honest round-0 outboxes are visible.
        assert any(view.honest_outboxes[u] for u in view.honest_outboxes)
        assert set(view.honest_outboxes) == set(range(1, 6))

    def test_adversary_sees_honest_protocol_state(self):
        graph = cycle_graph(6)
        adversary = RecordingAdversary()
        _run(graph, byzantine={2}, adversary=adversary)
        view = adversary.views[-1]
        assert all(isinstance(p, EchoProtocol) for p in view.honest_protocols.values())

    def test_adversary_cannot_send_from_honest_nodes(self):
        graph = cycle_graph(6)
        _, result = _run(graph, byzantine={0}, adversary=OutOfGraphAdversary())
        # No message with kind 'byz' should have arrived from an honest sender,
        # and no crash from the bogus target.
        for protocol in result.protocols.values():
            for m in protocol.received:
                if m.kind == "byz":
                    assert m.sender == 0

    def test_halted_node_outbox_resets_in_adversary_view(self):
        # A node may broadcast in the same round its halted property flips;
        # the adversary must see that final outbox in the halting round and
        # an empty outbox (not a stale replay) in every later round.
        graph = cycle_graph(4)
        network = Network(graph=graph, byzantine=frozenset({0}))
        adversary = RecordingAdversary()
        engine = SynchronousEngine(
            network,
            lambda ctx: BroadcastThenHaltProtocol(ctx, rounds_to_run=2),
            adversary=adversary,
            seed=0,
            max_rounds=10,
            stop_condition=lambda protocols, r: r >= 4,
        )
        engine.run()
        by_round = {view.round: view for view in adversary.views}
        assert any(by_round[2].honest_outboxes.values())
        for round_number in (3, 4):
            assert all(
                not outbox
                for outbox in by_round[round_number].honest_outboxes.values()
            )

    def test_no_adversary_call_without_byzantine_nodes(self):
        graph = cycle_graph(4)
        adversary = RecordingAdversary()
        _run(graph, byzantine=set(), adversary=adversary)
        assert adversary.views == []

    def test_adversary_view_helpers(self):
        graph = star_graph(5)
        adversary = RecordingAdversary()
        _run(graph, byzantine={0}, adversary=adversary)
        view = adversary.views[0]
        assert set(view.byzantine_neighbors(0)) == {1, 2, 3, 4}
        assert set(view.honest_neighbors_of(0)) == {1, 2, 3, 4}
