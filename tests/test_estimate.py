"""Tests for decision records and counting outcomes (Definition 2 machinery)."""

import math

import pytest

from repro.core.estimate import CountingOutcome, DecisionRecord, approximation_band


def _outcome(n, estimates, *, eval_set=None, rounds=10):
    records = {}
    for node, est in estimates.items():
        records[node] = DecisionRecord(
            node=node,
            decided=est is not None,
            estimate=est,
            decision_round=rounds if est is not None else None,
        )
    return CountingOutcome(
        n=n,
        records=records,
        evaluation_set=set(eval_set) if eval_set is not None else None,
        rounds_executed=rounds,
        total_messages=100,
        total_bits=1000,
    )


class TestApproximationBand:
    def test_band_values(self):
        low, high = approximation_band(math.e ** 4, lower_factor=0.5, upper_factor=2.0)
        assert low == pytest.approx(2.0)
        assert high == pytest.approx(8.0)

    def test_small_n_clamped(self):
        low, high = approximation_band(1, lower_factor=1.0, upper_factor=1.0)
        assert low == high == pytest.approx(math.log(2))


class TestDecisionRecord:
    def test_within(self):
        rec = DecisionRecord(node=0, decided=True, estimate=5.0, decision_round=3)
        assert rec.within(4.0, 6.0)
        assert not rec.within(5.5, 6.0)

    def test_within_undecided_false(self):
        rec = DecisionRecord(node=0, decided=False, estimate=None, decision_round=None)
        assert not rec.within(0.0, 100.0)


class TestCountingOutcome:
    def test_decided_fraction(self):
        outcome = _outcome(100, {0: 4.0, 1: None, 2: 5.0, 3: 4.5})
        assert outcome.decided_fraction() == pytest.approx(0.75)

    def test_evaluation_set_defaults_to_all(self):
        outcome = _outcome(100, {0: 4.0, 1: 5.0})
        assert outcome.evaluation_set == {0, 1}

    def test_empty_evaluation_set_stays_empty(self):
        outcome = _outcome(100, {0: 4.0, 1: 5.0}, eval_set=set())
        assert outcome.evaluation_set == set()
        summary = outcome.summary()
        assert summary["eval_nodes"] == 0
        assert summary["decided_fraction"] == 0.0
        assert summary["median_estimate"] is None
        assert outcome.decided_fraction(over_evaluation_set=False) == 1.0

    def test_evaluation_set_intersected_with_records(self):
        outcome = _outcome(100, {0: 4.0, 1: 5.0}, eval_set={1, 99})
        assert outcome.evaluation_set == {1}

    def test_estimates_and_median(self):
        outcome = _outcome(100, {0: 3.0, 1: 5.0, 2: 4.0})
        assert sorted(outcome.estimates()) == [3.0, 4.0, 5.0]
        assert outcome.median_estimate() == 4.0

    def test_estimate_range(self):
        outcome = _outcome(100, {0: 3.0, 1: 7.0})
        assert outcome.estimate_range() == (3.0, 7.0)

    def test_estimate_range_empty(self):
        outcome = _outcome(100, {0: None})
        assert outcome.estimate_range() == (None, None)

    def test_fraction_within_band(self):
        n = int(math.e ** 5)  # ln n ~ 5
        outcome = _outcome(n, {0: 5.0, 1: 1.0, 2: 5.5, 3: None})
        frac = outcome.fraction_within_band(0.5, 1.5)
        assert frac == pytest.approx(0.5)

    def test_approximation_ratios(self):
        n = int(round(math.e ** 4))
        outcome = _outcome(n, {0: 4.0})
        assert outcome.approximation_ratios()[0] == pytest.approx(4.0 / math.log(n), rel=1e-3)

    def test_max_decision_round(self):
        outcome = _outcome(100, {0: 4.0, 1: 5.0}, rounds=17)
        assert outcome.max_decision_round() == 17

    def test_estimate_histogram(self):
        outcome = _outcome(100, {0: 4.0, 1: 4.0, 2: 5.0})
        assert outcome.estimate_histogram() == {4.0: 2, 5.0: 1}

    def test_satisfies_definition2_true(self):
        n = int(math.e ** 5)
        outcome = _outcome(n, {0: 5.0, 1: 4.5, 2: 5.5})
        assert outcome.satisfies_definition2(
            lower_factor=0.5, upper_factor=1.5, min_fraction=0.9
        )

    def test_satisfies_definition2_fails_if_undecided(self):
        outcome = _outcome(100, {0: 4.0, 1: None})
        assert not outcome.satisfies_definition2(
            lower_factor=0.0, upper_factor=10.0, min_fraction=0.1
        )

    def test_summary_keys(self):
        outcome = _outcome(64, {0: 4.0})
        summary = outcome.summary()
        for key in ("n", "log_n", "decided_fraction", "median_estimate", "rounds_executed"):
            assert key in summary

    def test_over_all_honest_vs_eval(self):
        outcome = _outcome(100, {0: 4.0, 1: None}, eval_set={0})
        assert outcome.decided_fraction() == 1.0
        assert outcome.decided_fraction(over_evaluation_set=False) == 0.5
