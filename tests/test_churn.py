"""Tests for the dynamic-topology subsystem: churn schedules through the
engine (delta application, departed-vs-halted, re-join slots), the scenario
axis (validation, serialization, cache-key stability), and the dynamics
metrics (``rounds_to_reconverge`` / ``stale_estimate_error``)."""

import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.graphs.generators import cycle_graph, path_graph
from repro.graphs.hnd import hnd_random_regular_graph
from repro.scenarios import (
    CHURN,
    ComponentSpec,
    Scenario,
    UnknownComponentError,
    build_churn,
    materialize,
)
from repro.simulator.byzantine import Adversary, AdversaryView
from repro.simulator.churn import ChurnSchedule, TopologyDelta
from repro.simulator.engine import SynchronousEngine
from repro.simulator.messages import Message
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.network import Network
from repro.simulator.node import Broadcast, NodeContext, Outbox, Protocol

EXAMPLES = Path(__file__).parent.parent / "examples"


# --------------------------------------------------------------------------- #
# Probe protocol
# --------------------------------------------------------------------------- #
class ProbeProtocol(Protocol):
    """Broadcasts every round; logs inbox senders, topology changes, start."""

    def __init__(self, ctx: NodeContext, halt_round: int = 10_000) -> None:
        self.halt_round = halt_round
        self.started_at = None
        self.inbox_log: List[Tuple[int, Tuple[int, ...]]] = []
        self.topology_log: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []
        self._decided = False

    @property
    def decided(self) -> bool:
        return self._decided

    @property
    def estimate(self):
        return 1.0 if self._decided else None

    def send(self, ctx: NodeContext) -> Outbox:
        msg = Message.make("probe", ctx.round)
        return {v: [msg.clone()] for v in ctx.neighbors}

    def on_start(self, ctx: NodeContext) -> Outbox:
        self.started_at = ctx.round
        return self.send(ctx)

    def on_round(self, ctx: NodeContext, inbox) -> Outbox:
        self.inbox_log.append((ctx.round, tuple(sorted(m.sender for m in inbox))))
        if ctx.round >= self.halt_round:
            self._decided = True
            return {}
        return self.send(ctx)

    def on_topology_change(self, ctx, added_neighbors, removed_neighbors) -> None:
        self.topology_log.append(
            (ctx.round, tuple(sorted(added_neighbors)), tuple(sorted(removed_neighbors)))
        )


class BroadcastProbeProtocol(ProbeProtocol):
    """The probe, sending each round's message as one ``Broadcast``."""

    def send(self, ctx: NodeContext) -> Outbox:
        return Broadcast(Message.make("probe", ctx.round), ctx.neighbors)


class IndexRoundProtocol(Protocol):
    """Sends ``(index, round)`` to every neighbor each round, as a
    ``Broadcast`` or (``as_dict``) as a dict outbox; logs inbox payloads."""

    def __init__(self, ctx: NodeContext, as_dict: bool = False) -> None:
        self.as_dict = as_dict
        self.inbox_log: Dict[int, List[Tuple[int, int]]] = {}

    decided = False
    estimate = None

    def on_start(self, ctx: NodeContext) -> Outbox:
        return self.on_round(ctx, [])

    def on_round(self, ctx: NodeContext, inbox) -> Outbox:
        self.inbox_log[ctx.round] = [m.payload for m in inbox]
        msg = Message.make("index-round", (ctx.index, ctx.round))
        if self.as_dict:
            return {v: [msg] for v in ctx.neighbors}
        return Broadcast(msg, ctx.neighbors)


class SpyAdversary(Adversary):
    """Records which honest protocols/outboxes each round's view exposes."""

    def __init__(self):
        self.views: List[Tuple[int, frozenset, dict]] = []

    def act(self, view: AdversaryView):
        self.views.append(
            (view.round, frozenset(view.honest_protocols), dict(view.honest_outboxes))
        )
        return {}


def run_probe(
    graph, churn, *, byzantine=frozenset(), rounds=8, adversary=None, protocol=ProbeProtocol
):
    engine = SynchronousEngine(
        Network(graph, byzantine),
        protocol,
        adversary=adversary,
        seed=0,
        churn=churn,
        stop_condition=lambda protocols, executed: executed >= rounds,
    )
    result = engine.run()
    return engine, result


# --------------------------------------------------------------------------- #
# Schedule data type
# --------------------------------------------------------------------------- #
class TestChurnSchedule:
    def test_from_events_normalizes_and_sorts(self):
        schedule = ChurnSchedule.from_events(
            {3: {"remove_edges": [(5, 2)], "add_edges": [[7, 1]]}, "2": {"leave_nodes": [4]}}
        )
        assert schedule.rounds() == (2, 3)
        assert schedule.last_round == 3
        delta = schedule.delta_for_round(3)
        assert delta.remove_edges == ((2, 5),)
        assert delta.add_edges == ((1, 7),)
        assert schedule.delta_for_round(1) is None
        assert schedule.node_indices() == (1, 2, 4, 5, 7)
        assert bool(schedule)

    def test_empty_deltas_dropped(self):
        schedule = ChurnSchedule({5: TopologyDelta()})
        assert not schedule
        assert schedule.last_round == 0
        assert schedule.rounds() == ()

    def test_rejects_round_zero(self):
        with pytest.raises(ValueError, match="round 1 on"):
            ChurnSchedule({0: TopologyDelta(leave_nodes=(1,))})

    def test_rejects_self_loop_edges(self):
        with pytest.raises(ValueError, match="self-loop"):
            ChurnSchedule.from_events({2: {"add_edges": [(3, 3)]}})


# --------------------------------------------------------------------------- #
# Engine delta mechanics
# --------------------------------------------------------------------------- #
class TestEngineChurn:
    def test_edge_removal_stops_delivery_and_notifies(self):
        # Path 0-1-2; the (1, 2) edge is cut before round 3.
        graph = path_graph(3)
        churn = ChurnSchedule.from_events({3: {"remove_edges": [(1, 2)]}})
        engine, result = run_probe(graph, churn, rounds=6)
        p1, p2 = engine.protocols[1], engine.protocols[2]
        # The in-flight round-2 messages crossing the cut edge are purged:
        # from round 3 on neither endpoint hears the other.
        for round_number, senders in p1.inbox_log:
            if round_number >= 3:
                assert 2 not in senders
        for round_number, senders in p2.inbox_log:
            if round_number >= 3:
                assert 1 not in senders
            else:
                assert senders == (1,)
        # Both endpoints were notified once, between rounds: the hook runs
        # before round 3, so ctx.round still reads the last executed round.
        assert p1.topology_log == [(2, (), (2,))]
        assert p2.topology_log == [(2, (), (1,))]
        # Contexts track the new adjacency.
        assert engine._contexts[1].neighbors == (0,)
        assert engine._contexts[2].neighbors == ()
        assert result.metrics.churn_rounds == [3]
        assert result.metrics.churn_events == 1

    def test_edge_addition_notifies_and_delivers(self):
        # Path 0-1-2 gains the chord (0, 2) before round 3.
        graph = path_graph(3)
        churn = ChurnSchedule.from_events({3: {"add_edges": [(0, 2)]}})
        engine, result = run_probe(graph, churn, rounds=6)
        p0, p2 = engine.protocols[0], engine.protocols[2]
        assert p0.topology_log == [(2, (2,), ())]
        assert p2.topology_log == [(2, (0,), ())]
        # The new edge carries traffic from the round after the delta on
        # (round 3's sends are delivered in round 4).
        assert any(0 in senders for r, senders in p2.inbox_log if r >= 4)
        assert all(0 not in senders for r, senders in p2.inbox_log if r < 4)
        # Idempotence: adding a present edge is ignored.
        churn2 = ChurnSchedule.from_events({3: {"add_edges": [(0, 1)]}})
        _, result2 = run_probe(graph, churn2, rounds=4)
        assert result2.metrics.churn_events == 0
        assert result2.metrics.last_churn_round is None

    def test_edge_addition_delivers_broadcasts_from_the_next_round_on(self):
        # The same chord, with every node sending one Broadcast a round: a
        # broadcast sent in round 2, before the edge existed, never crosses it.
        graph = path_graph(3)
        churn = ChurnSchedule.from_events({3: {"add_edges": [(0, 2)]}})
        engine, result = run_probe(graph, churn, rounds=6, protocol=BroadcastProbeProtocol)
        p0, p2 = engine.protocols[0], engine.protocols[2]
        assert p0.topology_log == [(2, (2,), ())]
        assert any(0 in senders for r, senders in p2.inbox_log if r >= 4)
        assert all(0 not in senders for r, senders in p2.inbox_log if r < 4)
        assert all(2 not in senders for r, senders in p0.inbox_log if r < 4)

    @pytest.mark.parametrize("dict_sender", [None, 0], ids=["broadcast", "dict-outbox"])
    def test_new_edge_carries_no_message_sent_before_it_existed(self, dict_sender):
        # Path 0-1-2-3 gains (3, 0) before round 2.  Node 3's round-1 message
        # went to node 2 only, so node 0's round-2 inbox holds node 1's alone,
        # whichever outbox shape node 0 itself sends.
        graph = path_graph(4)
        churn = ChurnSchedule.from_events({2: {"add_edges": [(3, 0)]}})
        engine = SynchronousEngine(
            Network(graph, frozenset()),
            lambda ctx: IndexRoundProtocol(ctx, as_dict=ctx.index == dict_sender),
            churn=churn,
            stop_condition=lambda protocols, executed: executed >= 3,
        )
        result = engine.run()
        p0 = engine.protocols[0]
        assert p0.inbox_log[2] == [(1, 1)]
        assert p0.inbox_log[3] == [(1, 2), (3, 2)]
        # 3 edges in rounds 0 and 1, 4 edges in rounds 2 and 3.
        assert result.metrics.messages_per_round == [6, 6, 8, 8]
        assert result.metrics.total_messages == 28

    def test_leave_is_departed_not_halted(self):
        graph = cycle_graph(6)
        churn = ChurnSchedule.from_events({2: {"leave_nodes": [3]}})
        engine, result = run_probe(graph, churn, rounds=6)
        assert result.departed == frozenset({3})
        departed_protocol = engine.protocols[3]
        # The protocol was cut out, not halted: it never decided and simply
        # stopped being scheduled (its last on_round was round 1).
        assert not departed_protocol.halted
        assert departed_protocol.inbox_log[-1][0] == 1
        # No neighbor hears node 3 after the departure round -- including the
        # in-flight messages it sent in round 1 (purged, not delivered).
        for v in (2, 4):
            for round_number, senders in engine.protocols[v].inbox_log:
                if round_number >= 2:
                    assert 3 not in senders
        # Its neighbors were notified of the removed edges.
        assert engine.protocols[2].topology_log == [(1, (), (3,))]
        assert engine.protocols[4].topology_log == [(1, (), (3,))]

    def test_rejoin_spawns_fresh_slot_running_on_start(self):
        graph = cycle_graph(6)
        churn = ChurnSchedule.from_events(
            {
                2: {"leave_nodes": [3]},
                4: {"join_nodes": [3], "add_edges": [(2, 3), (3, 4)]},
            }
        )
        engine, result = run_probe(graph, churn, rounds=8)
        assert result.departed == frozenset()
        rejoined = engine.protocols[3]
        # A *fresh* protocol instance: its on_start ran in the join round and
        # its first scheduled on_round is the one after.
        assert rejoined.started_at == 4
        assert rejoined.inbox_log[0][0] == 5
        # The joiner's neighbors see its traffic again after the re-join.
        assert any(
            3 in senders for r, senders in engine.protocols[2].inbox_log if r >= 5
        )
        # Joining without having left is ignored.
        churn2 = ChurnSchedule.from_events({2: {"join_nodes": [1]}})
        engine2, result2 = run_probe(graph, churn2, rounds=4)
        assert engine2.protocols[1].started_at == 0
        assert result2.metrics.churn_events == 0

    def test_out_of_range_node_raises_with_round(self):
        graph = cycle_graph(4)
        churn = ChurnSchedule.from_events({2: {"leave_nodes": [99]}})
        engine = SynchronousEngine(Network(graph, frozenset()), ProbeProtocol, churn=churn)
        with pytest.raises(ValueError, match=r"round 2.*index 99.*\[0, 4\)"):
            engine.run(max_rounds=5)

    def test_zero_churn_keeps_shared_adjacency(self):
        # The static path must not copy the graph's adjacency list (the
        # byte-identity guarantee rests on not touching the old code paths).
        graph = cycle_graph(4)
        static_engine = SynchronousEngine(Network(graph, frozenset()), ProbeProtocol)
        assert static_engine._neighbors is graph.adjacency
        churn_engine = SynchronousEngine(
            Network(graph, frozenset()),
            ProbeProtocol,
            churn=ChurnSchedule.from_events({2: {"leave_nodes": [1]}}),
        )
        assert churn_engine._neighbors is not graph.adjacency
        # The empty schedule is normalized to the static path.
        empty = SynchronousEngine(
            Network(graph, frozenset()), ProbeProtocol, churn=ChurnSchedule({})
        )
        assert empty.churn is None
        assert empty._neighbors is graph.adjacency


class TestHaltedVsDepartedAdversaryVisibility:
    """Regression (halted/departed conflation): a departed node's outbox and
    protocol state must vanish from the adversary's view entirely, while a
    halted node keeps its (empty) outbox entry."""

    def test_departed_state_invisible_halted_state_empty(self):
        graph = cycle_graph(6)
        spy = SpyAdversary()
        # Node 3 departs before round 2; every survivor halts at round 4.
        churn = ChurnSchedule.from_events({2: {"leave_nodes": [3]}})
        engine = SynchronousEngine(
            Network(graph, frozenset({0})),
            lambda ctx: ProbeProtocol(ctx, halt_round=4),
            adversary=spy,
            seed=0,
            churn=churn,
        )
        engine.run(max_rounds=8)
        assert spy.views, "adversary was never consulted"
        for round_number, honest, outboxes in spy.views:
            if round_number < 2:
                assert 3 in honest and 3 in outboxes
                continue
            # Departed: no protocol handle, no outbox key at all.
            assert 3 not in honest
            assert 3 not in outboxes
            # Other honest nodes keep entries; after the halt round their
            # outboxes are the *empty* dict -- present but silent.
            assert 2 in honest and 2 in outboxes
            if round_number > 5:
                assert outboxes[2] == {}

    def test_departed_messages_never_leak_to_byzantine_inboxes(self):
        class InboxSpy(Adversary):
            def __init__(self):
                self.inbox_log = []

            def act(self, view):
                for b, inbox in view.byzantine_inboxes.items():
                    self.inbox_log.extend(
                        (view.round, m.sender) for m in inbox
                    )
                return {}

        graph = cycle_graph(6)
        spy = InboxSpy()
        # Byzantine node 2 is adjacent to honest node 3, which departs
        # before round 2 -- with its round-1 broadcast still in flight.
        churn = ChurnSchedule.from_events({2: {"leave_nodes": [3]}})
        engine = SynchronousEngine(
            Network(graph, frozenset({2})),
            ProbeProtocol,
            adversary=spy,
            seed=0,
            churn=churn,
            stop_condition=lambda protocols, executed: executed >= 6,
        )
        engine.run()
        seen_round_sender = set(spy.inbox_log)
        assert (2, 3) not in seen_round_sender and not any(
            r > 2 and s == 3 for r, s in seen_round_sender
        )


# --------------------------------------------------------------------------- #
# Scenario axis: registry, serialization, validation
# --------------------------------------------------------------------------- #
BASE_SPEC = {
    "graph": {"name": "hnd", "params": {"n": 48, "degree": 6}},
    "adversary": "silent",
    "placement": {"name": "random", "params": {"count": 0}},
    "protocol": "local",
}


class TestChurnScenarioAxis:
    def test_registry_names(self):
        assert CHURN.names() == [
            "burst-partition",
            "edge-flip",
            "node-leave-join",
            "none",
        ]

    def test_round_trip_with_churn_axis(self):
        spec = {
            **BASE_SPEC,
            "churn": {
                "name": "node-leave-join",
                "params": {"count": 2, "start": 6, "absence": 3},
            },
            "seeds": [0, 1],
        }
        scenario = Scenario.from_dict(spec)
        assert scenario.churn.name == "node-leave-join"
        assert Scenario.from_dict(json.loads(scenario.to_json())) == scenario
        assert "churn" in scenario.to_dict()

    def test_default_churn_omitted_from_serialization(self):
        scenario = Scenario.from_dict(dict(BASE_SPEC))
        assert scenario.churn == ComponentSpec("none")
        assert "churn" not in scenario.to_dict()
        # A spelled-out static axis round-trips to the same scenario.
        explicit = Scenario.from_dict({**BASE_SPEC, "churn": "none"})
        assert explicit == scenario
        assert "churn" not in explicit.to_dict()

    def test_cache_key_stable_for_static_specs(self):
        # Pre-churn artifact hashes must be reproducible: an explicit
        # churn=none compiles to the identical cell key as no churn at all.
        implicit = Scenario.from_dict(dict(BASE_SPEC)).compile()[0]
        explicit = Scenario.from_dict({**BASE_SPEC, "churn": "none"}).compile()[0]
        assert "churn" not in implicit.params["spec"]
        assert implicit.key() == explicit.key()
        # A real schedule changes the key.
        churned = Scenario.from_dict(
            {**BASE_SPEC, "churn": {"name": "edge-flip", "params": {"flips": 2}}}
        ).compile()[0]
        assert churned.key() != implicit.key()

    def test_unknown_churn_name_lists_options(self):
        scenario = Scenario.from_dict({**BASE_SPEC, "churn": "meteor-strike"})
        with pytest.raises(UnknownComponentError) as excinfo:
            scenario.validate()
        message = str(excinfo.value)
        for name in CHURN.names():
            assert name in message

    @pytest.mark.parametrize(
        "churn_spec, path",
        [
            (
                {"name": "node-leave-join", "params": {"nodes": [3, 99]}},
                "scenario.churn.params.nodes[1]",
            ),
            (
                {"name": "burst-partition", "params": {"left": [-1, 2]}},
                "scenario.churn.params.left[0]",
            ),
        ],
    )
    def test_out_of_range_node_ids_rejected_with_path(self, churn_spec, path):
        scenario = Scenario.from_dict({**BASE_SPEC, "churn": churn_spec})
        with pytest.raises(ValueError, match=r"outside graph range \[0, 48\)") as excinfo:
            scenario.validate()
        assert path in str(excinfo.value)
        with pytest.raises(ValueError):
            scenario.compile()

    def test_in_range_node_ids_validate(self):
        scenario = Scenario.from_dict(
            {**BASE_SPEC, "churn": {"name": "node-leave-join", "params": {"nodes": [0, 47]}}}
        )
        assert scenario.validate() is scenario

    def test_builders_are_deterministic_in_seed(self):
        graph = hnd_random_regular_graph(32, 4, seed=3)
        first = build_churn("node-leave-join", graph, seed=5, count=3, start=4)
        second = build_churn("node-leave-join", graph, seed=5, count=3, start=4)
        assert first == second
        different = build_churn("node-leave-join", graph, seed=6, count=3, start=4)
        assert first != different

    def test_edge_flip_only_touches_existing_edges(self):
        graph = hnd_random_regular_graph(32, 4, seed=3)
        edges = {
            (u, v) for u in range(graph.n) for v in graph.adjacency[u] if u < v
        }
        schedule = build_churn("edge-flip", graph, seed=7, flips=5, repeats=2)
        for delta in schedule.deltas.values():
            assert set(delta.remove_edges) <= edges
            assert set(delta.add_edges) <= edges

    def test_burst_partition_cuts_and_heals_the_same_edges(self):
        graph = hnd_random_regular_graph(32, 4, seed=3)
        schedule = build_churn("burst-partition", graph, seed=7, at=2, heal_after=3)
        assert schedule.rounds() == (2, 5)
        cut = schedule.delta_for_round(2).remove_edges
        healed = schedule.delta_for_round(5).add_edges
        assert set(cut) == set(healed) and cut

    def test_none_builder_returns_static(self):
        graph = cycle_graph(8)
        assert build_churn("none", graph, seed=0) is None


# --------------------------------------------------------------------------- #
# Dynamics metrics, end to end
# --------------------------------------------------------------------------- #
class TestChurnMetrics:
    def test_record_churn_unit(self):
        metrics = SimulationMetrics()
        metrics.record_churn(3, 0)  # no-op delta
        assert metrics.churn_events == 0 and metrics.last_churn_round is None
        metrics.record_churn(3, 2)
        metrics.record_churn(3, 1)  # same round: events add, round deduped
        metrics.record_churn(7, 4)
        assert metrics.churn_events == 7
        assert metrics.churn_rounds == [3, 7]
        assert metrics.last_churn_round == 7

    def test_materialized_churn_cell_reports_dynamics(self):
        scenario = Scenario.from_dict(
            {
                **BASE_SPEC,
                "churn": {
                    "name": "node-leave-join",
                    "params": {"count": 2, "start": 6, "absence": 3},
                },
            }
        )
        metrics = materialize(scenario, 0).metrics
        assert metrics["churn_events"] > 0
        assert metrics["rounds_to_reconverge"] is not None
        assert metrics["rounds_to_reconverge"] > 0
        assert metrics["stale_estimate_error"] is not None
        assert metrics["stale_estimate_error"] > 0.0
        assert metrics["decided_fraction"] == 1.0

    def test_committed_churn_example_reconverges_on_every_seed(self):
        scenario = Scenario.from_json(
            (EXAMPLES / "scenario_e2_churn_small.json").read_text()
        )
        for seed in scenario.seeds:
            metrics = materialize(scenario, seed).metrics
            assert metrics["churn_events"], seed
            assert (metrics["rounds_to_reconverge"] or 0) > 0, seed
            assert metrics["stale_estimate_error"] is not None, seed
            assert metrics["decided_fraction"] == 1.0, seed

    def test_zero_churn_cell_matches_pre_churn_metrics(self):
        # The dynamics metrics are None-valued on static runs, and an
        # explicit churn=none cell produces the identical metrics dict to a
        # spec with no churn key at all.
        implicit = materialize(Scenario.from_dict(dict(BASE_SPEC)), 0).metrics
        explicit = materialize(
            Scenario.from_dict({**BASE_SPEC, "churn": "none"}), 0
        ).metrics
        assert implicit == explicit
        assert implicit["churn_events"] == 0
        assert implicit["rounds_to_reconverge"] is None
        assert implicit["stale_estimate_error"] is None

    def test_permanent_departure_counts_against_decisions(self):
        from repro.core.local_counting import run_local_counting
        from repro.core.parameters import LocalParameters

        graph = hnd_random_regular_graph(48, 6, seed=0)
        # Node 11 decides in round 3 of the static run; leaving in round 2
        # means it never gets there.
        churn = ChurnSchedule.from_events({2: {"leave_nodes": [11]}})
        run = run_local_counting(
            graph, params=LocalParameters(max_degree=6), seed=0, churn=churn
        )
        assert run.result.departed == frozenset({11})
        assert run.result.metrics.last_churn_round == 2
        outcome = run.outcome
        # The departed node's record survives (undecided), so the decided
        # fraction reflects the loss.
        assert outcome.decided_fraction(over_evaluation_set=False) == pytest.approx(
            47 / 48
        )
