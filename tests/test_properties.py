"""Property-based tests (hypothesis) for the core data structures and invariants."""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.core.blacklist import PhaseBlacklist, split_trusted_suffix
from repro.core.congest_counting import PhaseSchedule
from repro.core.parameters import CongestParameters
from repro.graphs.expansion import out_neighbors, vertex_expansion_of_set
from repro.graphs.graph import Graph
from repro.graphs.hnd import hnd_random_regular_graph
from repro.graphs.neighborhoods import ball, boundary, layers
from repro.simulator.messages import Message, estimate_payload_bits
from repro.simulator.rng import split_seed

# ---------------------------------------------------------------------------#
# Strategies
# ---------------------------------------------------------------------------#


@st.composite
def random_graphs(draw):
    """Random simple graphs with 2..24 nodes."""
    n = draw(st.integers(min_value=2, max_value=24))
    possible_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible_edges), max_size=min(60, len(possible_edges)))
    )
    return Graph.from_edges(n, edges)


@st.composite
def connected_graphs(draw):
    """Connected random graphs: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_value=2, max_value=20))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    edges = [(u, rng.randrange(0, u)) for u in range(1, n)]
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20
        )
    )
    edges.extend((u, v) for u, v in extra if u != v)
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------#
# Graph invariants
# ---------------------------------------------------------------------------#


class TestGraphProperties:
    @given(random_graphs())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_handshake_lemma(self, g):
        assert sum(g.degree(u) for u in range(g.n)) == 2 * g.num_edges()

    @given(random_graphs())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_adjacency_symmetric(self, g):
        for u in range(g.n):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    @given(random_graphs())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_components_partition_vertices(self, g):
        components = g.connected_components()
        all_nodes = [u for comp in components for u in comp]
        assert sorted(all_nodes) == list(range(g.n))

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_bfs_distances_triangle_inequality_over_edges(self, g):
        dist = g.bfs_distances(0)
        for u, v in g.edges():
            assert abs(dist[u] - dist[v]) <= 1

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_diameter_at_least_any_eccentricity_bound(self, g):
        diameter = g.diameter()
        assert diameter >= g.eccentricity(0) - 0  # eccentricity <= diameter
        assert g.eccentricity(0) <= diameter


class TestNeighborhoodProperties:
    @given(connected_graphs(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_ball_monotone_and_boundary_consistent(self, g, radius):
        b_small = ball(g, 0, radius)
        b_big = ball(g, 0, radius + 1)
        assert b_small <= b_big
        assert b_big - b_small == boundary(g, 0, radius + 1)

    @given(connected_graphs(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_layers_union_equals_ball(self, g, radius):
        layer_sets = layers(g, 0, radius)
        union = set().union(*layer_sets) if layer_sets else set()
        assert union == ball(g, 0, radius)

    @given(random_graphs())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_out_neighbors_disjoint_from_set(self, g):
        subset = set(range(0, g.n, 2))
        out = out_neighbors(g, subset)
        assert out.isdisjoint(subset)
        assert out <= set(range(g.n))

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_expansion_nonnegative_and_degree_bounded(self, g):
        subset = {0}
        value = vertex_expansion_of_set(g, subset)
        assert 0 <= value <= g.max_degree()


# ---------------------------------------------------------------------------#
# Simulator invariants
# ---------------------------------------------------------------------------#


class TestMessageProperties:
    @given(
        st.recursive(
            st.one_of(
                st.none(), st.booleans(), st.integers(-(2**40), 2**40),
                st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=10),
            ),
            lambda children: st.lists(children, max_size=4),
            max_leaves=12,
        )
    )
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def test_payload_bits_positive(self, payload):
        assert estimate_payload_bits(payload) >= 1

    @given(st.integers(min_value=0, max_value=2**30), st.integers(0, 50))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_clone_preserves_accounting(self, value, num_ids):
        m = Message.make("k", value, num_ids=num_ids)
        c = m.clone()
        assert (c.size_bits, c.num_ids, c.kind) == (m.size_bits, m.num_ids, m.kind)

    @given(st.integers(min_value=0), st.lists(st.text(max_size=6), max_size=4))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_split_seed_deterministic_and_label_dependent(self, seed, labels):
        assert split_seed(seed, *labels) == split_seed(seed, *labels)
        assert 0 <= split_seed(seed, *labels) < 2**64


# ---------------------------------------------------------------------------#
# Algorithm 2 component invariants
# ---------------------------------------------------------------------------#


class TestBlacklistProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=12),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def test_split_partition(self, path, suffix):
        far, trusted = split_trusted_suffix(path, suffix)
        assert list(far) + list(trusted) == list(path)
        assert len(trusted) <= max(suffix, len(path))

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8),
            min_size=1,
            max_size=10,
        ),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_blacklisted_paths_are_blocked(self, paths, suffix):
        bl = PhaseBlacklist()
        for path in paths:
            bl.add_path(path, suffix)
        # Every path whose far prefix is non-empty must now be blocked.
        for path in paths:
            far, _ = split_trusted_suffix(path, suffix)
            if far:
                assert bl.blocks_path(path, suffix)

    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_reset_clears_everything(self, path):
        bl = PhaseBlacklist()
        bl.add_path(path, 0)
        bl.reset()
        assert len(bl) == 0


class TestScheduleProperties:
    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_locate_within_bounds(self, round_number):
        params = CongestParameters()
        schedule = PhaseSchedule(params)
        pos = schedule.locate(round_number)
        assert pos.phase >= params.first_phase
        assert 1 <= pos.iteration <= params.iterations_in_phase(pos.phase)
        assert 1 <= pos.step <= params.rounds_per_iteration(pos.phase)

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_locate_consecutive_rounds_advance(self, round_number):
        schedule = PhaseSchedule(CongestParameters())
        a = schedule.locate(round_number)
        b = schedule.locate(round_number + 1)
        assert (b.phase, b.iteration, b.step) != (a.phase, a.iteration, a.step)
        assert b.phase >= a.phase

    @given(st.integers(min_value=2, max_value=12))
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_activation_probability_in_unit_interval(self, phase):
        params = CongestParameters()
        assert 0.0 <= params.activation_probability(phase) <= 1.0


class TestHndProperties:
    @given(st.integers(min_value=8, max_value=60), st.sampled_from([2, 4, 6, 8]))
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    def test_hnd_degree_bound_and_connectivity(self, n, d):
        g = hnd_random_regular_graph(n, d, seed=n * 31 + d)
        assert g.max_degree() <= d
        assert g.is_connected()
