"""Tests for the non-Byzantine-resilient baselines (Section 1.2 motivation)."""

import math
import statistics

import pytest

from repro.adversary.strategies import ValueFakingAdversary
from repro.baselines import (
    run_flooding_baseline,
    run_geometric_baseline,
    run_spanning_tree_baseline,
    run_support_estimation_baseline,
)
from repro.baselines.common import parse_value, value_payload
from repro.core.estimate import CountingOutcome, DecisionRecord
from repro.graphs.hnd import hnd_random_regular_graph
from repro.simulator.messages import Message


@pytest.fixture(scope="module")
def graph():
    return hnd_random_regular_graph(128, 8, seed=23)


def median_relative_error(outcome):
    """E7's column: the median over decided nodes of ``|L_u - ln n| / ln n``."""
    log_n = outcome.log_n
    return statistics.median(abs(e - log_n) / log_n for e in outcome.estimates())


class TestCommonHelpers:
    def test_value_payload_roundtrip(self):
        m = value_payload("tag", 3.5)
        assert parse_value(m, "tag") == 3.5

    def test_parse_value_wrong_tag(self):
        m = value_payload("tag", 3.5)
        assert parse_value(m, "other") is None

    def test_parse_value_bare_float_accepted(self):
        m = Message(kind="estimate", payload=7.0)
        assert parse_value(m, "anything") == 7.0

    def test_parse_value_wrong_kind(self):
        assert parse_value(Message(kind="beacon", payload=1.0), "tag") is None

    def test_outcome_statistics(self):
        estimates = [math.log(100), None, 50.0, math.inf]
        outcome = CountingOutcome(
            n=100,
            records={
                u: DecisionRecord(u, estimate is not None, estimate, 3)
                for u, estimate in enumerate(estimates)
            },
        )
        # A decided ``inf`` counts as undecided, like no value at all.
        assert outcome.decided_fraction() == pytest.approx(2 / 4)
        assert outcome.estimates() == [math.log(100), 50.0]
        assert median_relative_error(outcome) is not None
        assert outcome.fraction_within_band(0.5, 2.0) == pytest.approx(1 / 4)


class TestBenignAccuracy:
    def test_geometric_close_to_log_n(self, graph):
        # The max of n geometric samples is log2(n) + a heavy-tailed O(1)
        # fluctuation, so a single benign run is only a constant-factor
        # estimate -- which is all the paper claims for it.
        outcome = run_geometric_baseline(graph, seed=1).outcome
        assert outcome.decided_fraction() == 1.0
        assert 0.5 * math.log(graph.n) <= outcome.median_estimate() <= 3.0 * math.log(graph.n)

    def test_support_estimation_accurate(self, graph):
        outcome = run_support_estimation_baseline(graph, seed=1).outcome
        assert outcome.decided_fraction() == 1.0
        assert median_relative_error(outcome) < 0.3

    def test_spanning_tree_exact(self, graph):
        outcome = run_spanning_tree_baseline(graph, seed=1).outcome
        assert outcome.decided_fraction() == 1.0
        assert outcome.median_estimate() == pytest.approx(math.log(graph.n), abs=1e-6)

    def test_flooding_diameter_logarithmic(self, graph):
        outcome = run_flooding_baseline(graph, seed=1).outcome
        assert outcome.decided_fraction() == 1.0
        assert 2 <= outcome.median_estimate() <= 2 * math.log(graph.n)

    def test_all_nodes_agree_on_spanning_tree_count(self, graph):
        outcome = run_spanning_tree_baseline(graph, seed=2).outcome
        values = {round(v, 6) for v in outcome.estimates()}
        assert len(values) == 1


class TestSingleByzantineBreaksBaselines:
    def test_geometric_inflated(self, graph):
        attacked = run_geometric_baseline(
            graph, byzantine={0}, adversary=ValueFakingAdversary(), seed=1
        )
        assert median_relative_error(attacked.outcome) > 10

    def test_support_estimation_destroyed_by_deflation(self, graph):
        attacked = run_support_estimation_baseline(
            graph, byzantine={0}, adversary=ValueFakingAdversary(mode="deflate"), seed=1
        )
        # Minima forced to zero make the estimate infinite (no finite answer).
        assert attacked.outcome.decided_fraction() < 0.1

    def test_spanning_tree_inflated(self, graph):
        clean = run_spanning_tree_baseline(graph, seed=1)
        attacked = run_spanning_tree_baseline(
            graph, byzantine={0}, adversary=ValueFakingAdversary(), seed=1
        )
        assert attacked.outcome.median_estimate() > clean.outcome.median_estimate() + 1.0

    def test_flooding_inflated(self, graph):
        attacked = run_flooding_baseline(
            graph, byzantine={0}, adversary=ValueFakingAdversary(), seed=1
        )
        assert median_relative_error(attacked.outcome) > 10

    def test_byzantine_node_not_in_estimates(self, graph):
        attacked = run_geometric_baseline(
            graph, byzantine={5}, adversary=ValueFakingAdversary(), seed=1
        )
        assert 5 not in attacked.outcome.records
