"""Tests for Algorithm 1 (deterministic LOCAL counting)."""

import math

import pytest

from repro.adversary.strategies import FakeTopologyAdversary, InconsistentTopologyAdversary
from repro.core.local_counting import (
    ClaimInterner,
    LocalCountingProtocol,
    LocalView,
    run_local_counting,
)
from repro.core.parameters import LocalParameters
from repro.graphs.expansion import good_set
from repro.graphs.generators import cycle_graph
from repro.graphs.hnd import hnd_random_regular_graph
from repro.scenarios import ComponentSpec, Scenario, materialize
from repro.simulator.messages import LazyTuple
from repro.simulator.byzantine import SilentAdversary
from view_delta import integrate_tracked


class TestLocalView:
    def _view(self):
        # Owner 100 with neighbors 101, 102.
        return LocalView(100, [101, 102])

    def test_initial_state(self):
        view = self._view()
        assert view.vertices == {100, 101, 102}
        assert view.edge_sets[100] == frozenset({101, 102})

    def test_integrate_new_edge_set(self):
        view = self._view()
        bad, added, new_edges, new_vertices = integrate_tracked(
            view, [(101, (100, 103))], [], max_degree=4
        )
        assert not bad
        assert new_edges == [(101, (100, 103))]
        assert added == 1 and new_vertices == [103]
        assert view.edge_sets[101] == frozenset({100, 103})

    def test_integrate_duplicate_identical_is_fine(self):
        view = self._view()
        view.integrate([(101, (100, 103))], [], max_degree=4)
        bad, added, new_edges, _ = integrate_tracked(
            view, [(101, (103, 100))], [], max_degree=4
        )
        assert not bad and added == 0 and new_edges == []

    def test_integrate_conflicting_edge_sets_flagged(self):
        view = self._view()
        view.integrate([(101, (100, 103))], [], max_degree=4)
        bad, _ = view.integrate([(101, (100, 104))], [], max_degree=4)
        assert bad

    def test_integrate_degree_violation_flagged(self):
        view = self._view()
        bad, _ = view.integrate([(101, (1, 2, 3, 4, 5))], [], max_degree=4)
        assert bad

    def test_integrate_self_loop_flagged(self):
        view = self._view()
        bad, _ = view.integrate([(101, (101, 100))], [], max_degree=4)
        assert bad

    def test_integrate_new_frontier_vertices(self):
        view = self._view()
        bad, added, _, new_vertices = integrate_tracked(view, [], [200, 201], max_degree=4)
        assert not bad
        assert added == 2 and new_vertices == [200, 201]

    def test_layer_prefixes_are_nested(self):
        view = self._view()
        view.integrate([(101, (100, 103)), (102, (100, 104))], [], max_degree=4)
        adj = view.adjacency()
        prefixes = view.layer_prefixes(adj)
        assert prefixes[0] == {100}
        for a, b in zip(prefixes, prefixes[1:]):
            assert a < b

    def test_interior_set_grows_with_settlement(self):
        view = self._view()
        assert view.interior_set() == set()  # neighbors' edges unknown
        view.integrate([(101, (100, 103)), (102, (100, 104))], [], max_degree=4)
        assert view.interior_set() == {100}

    def test_expansion_of(self):
        view = self._view()
        adj = view.adjacency()
        assert view.expansion_of(adj, {100}) == pytest.approx(2.0)
        assert view.expansion_of(adj, set()) == math.inf


class TestBenignRuns:
    def test_all_nodes_decide(self, benign_local_run):
        assert benign_local_run.outcome.decided_fraction() == 1.0

    def test_estimates_track_diameter(self, small_hnd, benign_local_run):
        diameter = small_hnd.diameter()
        low, high = benign_local_run.outcome.estimate_range()
        assert low >= 1
        assert high <= diameter + 1

    def test_rounds_logarithmic(self, small_hnd, benign_local_run):
        assert benign_local_run.outcome.max_decision_round() <= 4 * math.log(small_hnd.n)

    def test_deterministic_outcome(self, small_hnd, local_params):
        a = run_local_counting(small_hnd, params=local_params, seed=5)
        b = run_local_counting(small_hnd, params=local_params, seed=9)
        # The algorithm itself is deterministic; different seeds only matter
        # for adversary randomness, absent here.
        assert a.outcome.estimates() == b.outcome.estimates()

    def test_works_on_margulis_expander(self, small_margulis):
        run = run_local_counting(small_margulis, seed=0)
        assert run.outcome.decided_fraction() == 1.0
        assert run.outcome.median_estimate() >= 2

    def test_works_on_hypercube(self, small_hypercube):
        run = run_local_counting(small_hypercube, seed=0)
        assert run.outcome.decided_fraction() == 1.0

    def test_estimates_grow_with_n(self, local_params):
        # Decisions track the diameter, which only increases by one every time
        # n grows by a factor of ~d-1, so compare sizes a factor 8 apart.
        medians = []
        for n in (64, 512):
            graph = hnd_random_regular_graph(n, 8, seed=11)
            run = run_local_counting(graph, params=local_params, seed=1)
            medians.append(run.outcome.median_estimate())
        assert medians[1] > medians[0]

    def test_message_sizes_not_small(self, benign_local_run, small_hnd):
        # Algorithm 1 is a LOCAL algorithm: it ships whole neighborhoods.
        assert benign_local_run.outcome.small_message_fraction < 0.5


class TestByzantineRuns:
    @pytest.fixture(scope="class")
    def attacked_setup(self):
        graph = hnd_random_regular_graph(128, 8, seed=21)
        byzantine = {3, 77}
        evaluation = good_set(graph, byzantine, gamma=0.7)
        return graph, byzantine, evaluation

    def test_silent_adversary_good_nodes_in_band(self, attacked_setup, local_params):
        graph, byz, evaluation = attacked_setup
        run = run_local_counting(
            graph, byzantine=byz, adversary=SilentAdversary(), params=local_params,
            seed=0, evaluation_set=evaluation,
        )
        assert run.outcome.decided_fraction() == 1.0
        assert run.outcome.fraction_within_band(0.35, 1.6) >= 0.9

    def test_fake_topology_adversary_bounded_estimates(self, attacked_setup, local_params):
        graph, byz, evaluation = attacked_setup
        run = run_local_counting(
            graph, byzantine=byz, adversary=FakeTopologyAdversary(), params=local_params,
            seed=0, evaluation_set=evaluation,
        )
        assert run.outcome.decided_fraction() == 1.0
        _, high = run.outcome.estimate_range()
        assert high <= 3 * math.log(graph.n)

    def test_inconsistent_adversary_detected(self, attacked_setup, local_params):
        graph, byz, evaluation = attacked_setup
        run = run_local_counting(
            graph, byzantine=byz, adversary=InconsistentTopologyAdversary(),
            params=local_params, seed=0, evaluation_set=evaluation,
        )
        assert run.outcome.decided_fraction() == 1.0
        assert run.outcome.max_decision_round() <= 4 * math.log(graph.n)

    def test_nodes_adjacent_to_silent_byzantine_decide_immediately(self, local_params):
        graph = hnd_random_regular_graph(64, 8, seed=30)
        byzantine = {0}
        run = run_local_counting(
            graph, byzantine=byzantine, adversary=SilentAdversary(),
            params=local_params, seed=0,
        )
        for v in graph.neighbors(0):
            record = run.outcome.records[v]
            assert record.decided and record.estimate == 1.0

    def test_theorem1_lower_bound_for_good_nodes(self, attacked_setup, local_params):
        graph, byz, evaluation = attacked_setup
        run = run_local_counting(
            graph, byzantine=byz, adversary=FakeTopologyAdversary(), params=local_params,
            seed=0, evaluation_set=evaluation,
        )
        lower = local_params.lower_decision_bound(graph.n)
        for u in evaluation:
            record = run.outcome.records[u]
            assert record.estimate is None or record.estimate >= max(1, lower)


class TestByzantineEntryCache:
    def test_each_byzantine_entry_object_resolves_once(self, monkeypatch):
        # One alg1-local-shaped cell: a fake-topology node broadcasts each
        # claim entry object to all its neighbors, and honest forwarders
        # re-broadcast the interned entries, so the run parses each
        # Byzantine entry object once (the 50 entry objects that reach a
        # receiver still integrating; parsing per receiver took 457 calls,
        # and integrating in rounds decided on a mute neighbor 68).
        resolve = ClaimInterner.resolve
        misses = []

        def counting_resolve(self, entry):
            misses.append(entry)  # kept alive, so the ids stay distinct
            return resolve(self, entry)

        monkeypatch.setattr(ClaimInterner, "resolve", counting_resolve)
        scenario = Scenario(
            graph=ComponentSpec("hnd", {"n": 128, "degree": 8}),
            adversary=ComponentSpec("fake-topology"),
            placement=ComponentSpec("spread", {"count": 4}),
            protocol=ComponentSpec("local", {"gamma": 0.7, "max_degree": 8}),
            params={"evaluation": {"kind": "good", "gamma": 0.7}, "check": {"name": "theorem1"}},
        )
        cell = materialize(scenario, 1)
        assert cell.metrics["check_passed"] == 1.0
        assert len({id(entry) for entry in misses}) == len(misses) == 50


def _decides_before_integrating(ctx, inbox):
    """Whether a static node's round decides on a malformed message or a
    mute neighbor (Lines 5-7), which need no integration."""
    for message in inbox:
        payload = message.payload
        if message.kind != "topology" or not (
            isinstance(payload, (tuple, LazyTuple))
            and len(payload) == 2
            and isinstance(payload[0], tuple)
            and isinstance(payload[1], tuple)
        ):
            return True
    return not {message.sender for message in inbox}.issuperset(ctx.neighbors)


class TestTracedEntry:
    """perfbench's ``local_view.integrate`` layer wraps ``LocalView.integrate``
    and reads it as one node's merge of one round's inbox."""

    @pytest.mark.parametrize(
        "adversary", [SilentAdversary, FakeTopologyAdversary, InconsistentTopologyAdversary]
    )
    def test_on_round_integrates_once_per_undecided_round(
        self, small_hnd, local_params, monkeypatch, adversary
    ):
        integrate = LocalView.integrate
        on_round = LocalCountingProtocol.on_round
        calls = [0]
        rounds = []

        def counting_integrate(self, *args, **kwargs):
            calls[0] += 1
            return integrate(self, *args, **kwargs)

        def counting_on_round(self, ctx, inbox):
            undecided, before = not self.decided, calls[0]
            early = undecided and _decides_before_integrating(ctx, inbox)
            outbox = on_round(self, ctx, inbox)
            assert self.decided or not early
            rounds.append((undecided and not early, calls[0] - before))
            return outbox

        monkeypatch.setattr(LocalView, "integrate", counting_integrate)
        monkeypatch.setattr(LocalCountingProtocol, "on_round", counting_on_round)
        run = run_local_counting(
            small_hnd, byzantine={3, 40}, adversary=adversary(), params=local_params, seed=0
        )
        assert run.outcome.decided_fraction() == 1.0
        # Most rounds integrate; a silent neighbor's honest neighbors
        # decide on the mute check alone.
        assert sum(integrating for integrating, _ in rounds) > small_hnd.n // 2
        assert all(integrated == integrating for integrating, integrated in rounds)


class TestExhaustiveCheckCrossValidation:
    def test_exhaustive_matches_practical_on_tiny_graph(self):
        graph = cycle_graph(8)
        practical = run_local_counting(
            graph, params=LocalParameters(gamma=0.5, max_degree=2, alpha_prime=0.2), seed=0
        )
        exhaustive = run_local_counting(
            graph,
            params=LocalParameters(
                gamma=0.5, max_degree=2, alpha_prime=0.2, exhaustive_subset_check=True
            ),
            seed=0,
        )
        assert exhaustive.outcome.decided_fraction() == 1.0
        # The exhaustive family can only trigger earlier (it includes more sets).
        for u in range(graph.n):
            assert (
                exhaustive.outcome.records[u].estimate
                <= practical.outcome.records[u].estimate
            )
