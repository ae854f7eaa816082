"""Tests for messages, size accounting, RNG splitting, node context, network, metrics."""

import math
import random

import pytest

from repro.graphs.generators import cycle_graph
from repro.simulator.messages import Message, estimate_payload_bits
from repro.simulator.metrics import NodeMessageStats, SimulationMetrics
from repro.simulator.network import Network
from repro.simulator.node import NodeContext, broadcast
from repro.simulator.rng import spawn_rngs, split_seed


class TestPayloadBits:
    def test_none_and_bool(self):
        assert estimate_payload_bits(None) == 1
        assert estimate_payload_bits(True) == 1

    def test_int_bit_length(self):
        assert estimate_payload_bits(0) == 1
        assert estimate_payload_bits(255) == 8
        assert estimate_payload_bits(256) == 9

    def test_float(self):
        assert estimate_payload_bits(3.14) == 64

    def test_string(self):
        assert estimate_payload_bits("abcd") == 32

    def test_containers_sum(self):
        assert estimate_payload_bits([1, 1]) == 2 * (1 + 2)
        assert estimate_payload_bits({"a": 1}) == 8 + 1 + 2

    def test_fallback_object(self):
        class Thing:
            def __repr__(self):
                return "xy"

        assert estimate_payload_bits(Thing()) == 16


class TestMessage:
    def test_make_computes_size(self):
        m = Message.make("kind", 255, num_ids=2)
        assert m.size_bits == 8
        assert m.num_ids == 2

    def test_clone_is_independent_object(self):
        m = Message.make("kind", [1, 2])
        c = m.clone()
        assert c is not m
        assert c.kind == m.kind and c.size_bits == m.size_bits

    def test_total_footprint(self):
        m = Message(kind="k", size_bits=10, num_ids=3)
        assert m.total_footprint(id_bits=64) == 10 + 192

    def test_is_small_true(self):
        m = Message(kind="k", size_bits=32, num_ids=2)
        assert m.is_small(1024)

    def test_is_small_false_many_ids(self):
        m = Message(kind="k", size_bits=8, num_ids=100)
        assert not m.is_small(1024)

    def test_is_small_false_many_bits(self):
        m = Message(kind="k", size_bits=10_000, num_ids=0)
        assert not m.is_small(64)


class TestRng:
    def test_split_seed_deterministic(self):
        assert split_seed(1, "a", 2) == split_seed(1, "a", 2)

    def test_split_seed_label_sensitivity(self):
        assert split_seed(1, "a") != split_seed(1, "b")
        assert split_seed(1, "a") != split_seed(2, "a")

    def test_spawn_rngs_independent_streams(self):
        rngs = spawn_rngs(7, ["x", "y"])
        assert rngs["x"].random() != rngs["y"].random()

    def test_spawn_rngs_reproducible(self):
        a = spawn_rngs(7, ["x"])["x"].random()
        b = spawn_rngs(7, ["x"])["x"].random()
        assert a == b


class TestNodeContextAndBroadcast:
    def test_degree(self):
        ctx = NodeContext(
            index=0, node_id=42, neighbors=(1, 2, 3), neighbor_ids={1: 10, 2: 20, 3: 30},
            rng=random.Random(0),
        )
        assert ctx.degree == 3

    def test_broadcast_shares_one_instance(self):
        # The engine stamps sender identity on delivery envelopes, so a
        # broadcast shares a single message object across all targets.
        m = Message.make("k", 1)
        out = broadcast((1, 2), m)
        assert set(out) == {1, 2}
        assert out[1][0] is m and out[2][0] is m


class TestNetwork:
    def test_honest_and_byzantine_partition(self, small_hnd):
        net = Network(graph=small_hnd, byzantine=frozenset({0, 5}))
        assert net.num_byzantine == 2
        assert 0 not in net.honest and 5 not in net.honest
        assert len(net.honest) == small_hnd.n - 2

    def test_is_byzantine(self, small_hnd):
        net = Network(graph=small_hnd, byzantine=frozenset({3}))
        assert net.is_byzantine(3)
        assert not net.is_byzantine(4)

    def test_invalid_byzantine_index_rejected(self, small_hnd):
        with pytest.raises(ValueError):
            Network(graph=small_hnd, byzantine=frozenset({10_000}))

    def test_fully_honest(self, small_hnd):
        net = Network.fully_honest(small_hnd)
        assert net.num_byzantine == 0
        assert net.honest_fraction() == 1.0

    def test_honest_fraction(self, small_hnd):
        net = Network(graph=small_hnd, byzantine=frozenset({0}))
        assert net.honest_fraction() == pytest.approx((small_hnd.n - 1) / small_hnd.n)


class TestMetrics:
    def test_record_send_updates_totals(self):
        metrics = SimulationMetrics()
        metrics.start_round()
        metrics.record_send(0, Message(kind="k", size_bits=10, num_ids=1))
        metrics.record_send(0, Message(kind="k", size_bits=20, num_ids=0))
        assert metrics.total_messages == 2
        assert metrics.total_bits == 30
        assert metrics.messages_per_round == [2]
        assert metrics.per_node[0].max_message_bits == 20

    def test_small_message_fraction(self):
        metrics = SimulationMetrics()
        metrics.start_round()
        metrics.record_send(0, Message(kind="k", size_bits=8, num_ids=1))
        metrics.record_send(1, Message(kind="k", size_bits=10_000, num_ids=50))
        assert metrics.small_message_fraction(1024, [0, 1]) == pytest.approx(0.5)

    def test_small_message_fraction_counts_silent_nodes(self):
        metrics = SimulationMetrics()
        assert metrics.small_message_fraction(64, [0, 1, 2]) == 1.0

    def test_decision_round_recorded_once(self):
        metrics = SimulationMetrics()
        metrics.record_decision(3, 5)
        metrics.record_decision(3, 9)
        assert metrics.decision_rounds[3] == 5

    def test_node_stats_sent_only_small_messages(self):
        stats = NodeMessageStats()
        stats.record(Message(kind="k", size_bits=16, num_ids=2))
        assert stats.sent_only_small_messages(256)
        stats.record(Message(kind="k", size_bits=0, num_ids=99))
        assert not stats.sent_only_small_messages(256)

    def test_max_message_bits_over(self):
        metrics = SimulationMetrics()
        metrics.start_round()
        metrics.record_send(0, Message(kind="k", size_bits=7, num_ids=0))
        metrics.record_send(2, Message(kind="k", size_bits=70, num_ids=0))
        assert metrics.max_message_bits_over([0, 2]) == 70
        assert metrics.max_message_bits_over([0]) == 7

    def test_record_send_before_start_round_raises(self):
        # Regression: a send recorded before any round was opened used to be
        # silently dropped from messages_per_round (under-reporting).
        metrics = SimulationMetrics()
        with pytest.raises(RuntimeError, match="start_round"):
            metrics.record_send(0, Message(kind="k", size_bits=1, num_ids=0))
        with pytest.raises(RuntimeError):
            metrics.record_send(0, Message(kind="k", size_bits=1, num_ids=0), 3)
        assert metrics.total_messages == 0
        assert metrics.messages_per_round == []

    def test_record_broadcast_equals_repeated_record_send(self):
        message = Message(kind="k", size_bits=10, num_ids=2)
        broadcasted = SimulationMetrics()
        broadcasted.start_round()
        broadcasted.record_send(0, message, 3)
        repeated = SimulationMetrics()
        repeated.start_round()
        for _ in range(3):
            repeated.record_send(0, message)
        assert broadcasted.total_messages == repeated.total_messages == 3
        assert broadcasted.total_bits == repeated.total_bits == 30
        assert broadcasted.messages_per_round == repeated.messages_per_round == [3]
        assert broadcasted.per_node[0].ids_sent == repeated.per_node[0].ids_sent == 6
        assert broadcasted.per_node[0].max_message_bits == 10
