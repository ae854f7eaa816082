"""Property tests: incremental ``LocalView`` state == from-scratch recomputation.

The incremental structures (BFS layers, layer prefixes, the interior set, and
the interior's out-boundary) are maintained inside ``integrate``.  These tests
drive randomized ``integrate`` sequences -- including Byzantine-malformed
payloads -- and assert after every step that

* the bitset/columnar ``LocalView`` equals the quantities recomputed from
  scratch off the adjacency (the pre-refactor definitions), and
* the bitset ``LocalView`` agrees observable-for-observable (including
  what ``integrate`` returns and adds to the pending delta, see
  ``view_delta``) with the retained set-based reference
  implementation ``SetBasedLocalView`` (``local_view_reference``),
  also when it integrates honest nodes' masked deltas by their masks and
  the reference is fed the same payloads one by one.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.local_counting import ClaimInterner, LocalCountingProtocol, LocalView
from repro.core.parameters import LocalParameters
from repro.simulator.node import NodeContext
from local_view_reference import SetBasedLocalView
from view_delta import assert_carried_masks, integrate_tracked, reference_result


# --------------------------------------------------------------------------- #
# From-scratch reference implementations (the pre-refactor per-round logic)
# --------------------------------------------------------------------------- #
def scratch_layer_prefixes(view):
    adj = view.adjacency()
    dist = {view.own_id: 0}
    frontier = [view.own_id]
    layers = [{view.own_id}]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        if not nxt:
            break
        layers.append(set(nxt))
        frontier = nxt
    prefixes = []
    running = set()
    for layer in layers:
        running |= layer
        prefixes.append(set(running))
    return prefixes


def scratch_interior(view):
    settled = set(view.edge_sets)
    return {
        v for v, edges in view.edge_sets.items() if all(w in settled for w in edges)
    }


def out_boundary(adj, subset):
    out = set()
    for u in subset:
        for v in adj.get(u, ()):
            if v not in subset:
                out.add(v)
    return out


def assert_matches_scratch(view):
    adj = view.adjacency()
    prefixes = scratch_layer_prefixes(view)
    incremental = [set(p) for p in view.layer_prefixes()]
    assert incremental == prefixes

    interior = scratch_interior(view)
    assert view.interior_set() == interior

    # The (size, out-size) candidate pairs must equal the pre-refactor
    # expansion quantities: Out(prefix_j) via the adjacency, then the
    # interior with its out-boundary.
    expected = [(len(p), len(out_boundary(adj, p))) for p in prefixes]
    if interior:
        expected.append((len(interior), len(out_boundary(adj, interior))))
    assert view.expansion_check_candidates() == expected

    # Layer sizes are the prefix-size deltas.
    sizes = view.layer_sizes()
    assert sizes[0] == 1
    assert [sum(sizes[: j + 1]) for j in range(len(sizes))] == [
        len(p) for p in prefixes
    ]


# --------------------------------------------------------------------------- #
# Randomized integrate sequences
# --------------------------------------------------------------------------- #
MAX_DEGREE = 5


def random_edge_entry(rng, view, fresh_base):
    """A (node_id, edge_ids) claim: sometimes honest, sometimes malformed."""
    known = sorted(view.vertices)
    roll = rng.random()
    if roll < 0.55:
        # Well-formed claim about a known-but-unsettled or fresh vertex.
        if rng.random() < 0.7 and known:
            node_id = rng.choice(known)
        else:
            node_id = fresh_base + rng.randrange(1000)
        pool = known + [fresh_base + rng.randrange(1000) for _ in range(4)]
        edges = tuple(
            sorted({v for v in rng.sample(pool, k=min(len(pool), rng.randrange(1, MAX_DEGREE + 1))) if v != node_id})
        )
        return (node_id, edges)
    if roll < 0.65 and view.edge_sets:
        # Exact duplicate of an already-settled claim.
        node_id = rng.choice(sorted(view.edge_sets))
        return (node_id, tuple(sorted(view.edge_sets[node_id])))
    if roll < 0.75 and view.edge_sets:
        # Conflicting claim about a settled vertex.
        node_id = rng.choice(sorted(view.edge_sets))
        return (node_id, tuple(sorted(set(rng.sample(range(5000, 6000), k=2)))))
    # Malformed claims.
    bad = rng.randrange(4)
    if bad == 0:
        return ("evil", (1, 2))
    if bad == 1:
        node_id = fresh_base + rng.randrange(1000)
        return (node_id, ("x", node_id + 1))
    if bad == 2:
        node_id = fresh_base + rng.randrange(1000)
        return (node_id, tuple(range(7000, 7000 + MAX_DEGREE + 3)))  # degree bound
    node_id = fresh_base + rng.randrange(1000)
    return (node_id, (node_id, node_id + 1))  # self-loop


def random_vertices(rng, fresh_base):
    out = []
    for _ in range(rng.randrange(3)):
        if rng.random() < 0.8:
            out.append(fresh_base + rng.randrange(1000))
        else:
            out.append("ghost")
    return out


class TestIncrementalMatchesScratch:
    def test_initial_state(self):
        view = LocalView(100, [101, 102, 103])
        assert_matches_scratch(view)
        view = LocalView(7, [])  # isolated owner: immediately interior
        assert_matches_scratch(view)
        assert view.interior_set() == {7}

    def test_randomized_integrate_sequences(self):
        for seed in range(25):
            rng = random.Random(seed)
            degree = rng.randrange(2, MAX_DEGREE + 1)
            neighbors = [101 + i for i in range(degree)]
            view = LocalView(100, neighbors)
            for step in range(20):
                entries = [
                    random_edge_entry(rng, view, fresh_base=2000 + 100 * step)
                    for _ in range(rng.randrange(1, 4))
                ]
                vertices = random_vertices(rng, fresh_base=2000 + 100 * step)
                view.integrate(entries, vertices, max_degree=MAX_DEGREE)
                assert_matches_scratch(view)

    def test_malformed_only_sequences_do_not_corrupt(self):
        rng = random.Random(99)
        view = LocalView(100, [101, 102])
        for _ in range(10):
            bad, added, new_edges, new_vertices = integrate_tracked(
                view,
                [("evil", (1, 2)), (3, ("a",)), (4, (4, 5))],
                ["ghost", None],
                max_degree=4,
            )
            assert bad and added == 0 and new_edges == [] and new_vertices == []
            assert_matches_scratch(view)
        assert all(isinstance(v, int) for v in view.vertices)

    def test_distance_decreasing_shortcut_edge(self):
        # A late claim creating a shortcut must pull BFS layers inward.
        view = LocalView(0, [1])
        view.integrate([(1, (0, 2))], [], max_degree=4)
        view.integrate([(2, (1, 3))], [], max_degree=4)
        view.integrate([(3, (2, 4))], [], max_degree=4)
        assert_matches_scratch(view)
        assert len(view.layer_sizes()) == 5  # path 0-1-2-3-4
        # Now vertex 4 claims an edge straight back to... a new vertex 5 that
        # is also claimed adjacent to 1, shortening 5's would-be distance.
        view.integrate([(4, (3, 5))], [], max_degree=4)
        assert_matches_scratch(view)
        view.integrate([(5, (1, 4))], [], max_degree=4)
        assert_matches_scratch(view)

    def test_disconnected_claims_stay_out_of_layers(self):
        # A claim about vertices unreachable from the owner contributes to the
        # vertex count (and interior bookkeeping) but not to BFS layers.
        view = LocalView(0, [1])
        view.integrate([(50, (51, 52))], [60], max_degree=4)
        assert_matches_scratch(view)
        reachable = set().union(*[set(p) for p in view.layer_prefixes()])
        assert 50 not in reachable and 60 not in reachable
        assert 50 in view.vertices and 60 in view.vertices


class _TupleEntry(tuple):
    """A claim entry of a tuple subclass (never keyed by identity)."""


# --------------------------------------------------------------------------- #
# Bitset LocalView vs the retained set-based reference implementation
# --------------------------------------------------------------------------- #
def assert_views_equal(bitset: LocalView, reference: SetBasedLocalView):
    """Every observable of both implementations must agree."""
    assert set(bitset.vertices) == set(reference.vertices)
    assert bitset.size() == reference.size()
    assert dict(bitset.edge_sets) == dict(reference.edge_sets)
    bit_adj = bitset.adjacency()
    ref_adj = reference.adjacency()
    assert {v: set(nbrs) for v, nbrs in bit_adj.items()} == {
        v: set(nbrs) for v, nbrs in ref_adj.items()
    }
    assert [set(p) for p in bitset.layer_prefixes()] == [
        set(p) for p in reference.layer_prefixes()
    ]
    assert bitset.layer_sizes() == reference.layer_sizes()
    assert bitset.interior_set() == reference.interior_set()
    assert bitset.expansion_check_candidates() == reference.expansion_check_candidates()


def drive_both(bitset, reference, entries, vertices, max_degree=MAX_DEGREE):
    """Feed both views one delta; their results (or raises) must agree."""
    try:
        got = integrate_tracked(bitset, entries, vertices, max_degree=max_degree)
    except (TypeError, ValueError) as bitset_exc:
        with pytest.raises(type(bitset_exc)):
            reference.integrate(entries, vertices, max_degree=max_degree)
        # Claims preceding the raising one were integrated by both.
        assert_views_equal(bitset, reference)
        return None
    expected = reference_result(reference.integrate(entries, vertices, max_degree=max_degree))
    assert got == expected
    assert_views_equal(bitset, reference)
    return got


class TestBitsetMatchesSetBasedReference:
    def make_pair(self, own_id, neighbors):
        return LocalView(own_id, neighbors), SetBasedLocalView(own_id, neighbors)

    def test_randomized_fuzz_sequences(self):
        # The same Byzantine malformed-payload fuzzer that drives the
        # scratch-comparison tests, replayed against both implementations.
        for seed in range(25):
            rng = random.Random(10_000 + seed)
            degree = rng.randrange(2, MAX_DEGREE + 1)
            neighbors = [101 + i for i in range(degree)]
            bitset, reference = self.make_pair(100, neighbors)
            for step in range(20):
                entries = [
                    random_edge_entry(rng, bitset, fresh_base=2000 + 100 * step)
                    for _ in range(rng.randrange(1, 4))
                ]
                vertices = random_vertices(rng, fresh_base=2000 + 100 * step)
                drive_both(bitset, reference, entries, vertices)

    def test_non_int_ids_flagged_identically(self):
        bitset, reference = self.make_pair(0, [1, 2])
        for entries, vertices in [
            ([("evil", (1, 2))], []),
            ([(3.0, (1, 2))], []),
            ([(3, (1, "x"))], []),
            ([(3, (1, 2.0))], []),
            ([(None, ())], ["ghost", None, 4.5]),
        ]:
            got = drive_both(bitset, reference, entries, vertices)
            assert got is not None and got[0] is True

    def test_conflicting_edge_set_claims(self):
        bitset, reference = self.make_pair(0, [1])
        assert drive_both(bitset, reference, [(5, (6, 7))], []) == (
            False,
            3,
            [(5, (6, 7))],
            [5, 6, 7],
        )
        # Same claim again (canonical and permuted): silently deduplicated.
        assert drive_both(bitset, reference, [(5, (6, 7))], []) == (False, 0, [], [])
        assert drive_both(bitset, reference, [(5, (7, 6))], []) == (False, 0, [], [])
        # Set-equal re-announcement in a *list* container (bypasses the
        # interner's value table): silent both times, and later fresh claims
        # must still integrate (regression: transient uncached records used
        # to leak recyclable ids into the seen-entries set).
        assert drive_both(bitset, reference, [(5, [6, 7])], []) == (False, 0, [], [])
        assert drive_both(bitset, reference, [(5, [7, 6])], []) == (False, 0, [], [])
        assert drive_both(bitset, reference, [(6, (5, 7))], []) == (
            False,
            0,
            [(6, (5, 7))],
            [],
        )
        # Conflicting claim for the settled node 5: flagged, not integrated.
        assert drive_both(bitset, reference, [(5, (8, 9))], []) == (True, 0, [], [])
        # Float re-announcement that compares equal to the settled ints.
        assert drive_both(bitset, reference, [(5, (6.0, 7.0))], []) == (True, 0, [], [])
        # Only valid entries of exact types are keyed by identity in the
        # run's interner.  A list edge container, a tuple subclass, a float
        # node id and a float edge id are parsed again on every arrival,
        # with the same outcome each time.
        odd = [
            ((5, [7, 6]), False),
            (_TupleEntry((5, (7, 6))), False),
            ((5.0, (6, 7)), True),
            ((5, (6.0, 7.0)), True),
        ]
        for _ in range(2):
            for entry, flagged in odd:
                assert drive_both(bitset, reference, [entry], []) == (flagged, 0, [], [])
        interner = bitset._interner
        assert not any(id(entry) in interner.by_id for entry, _ in odd)
        assert not any(pinned is entry for pinned in interner.pinned for entry, _ in odd)
        # A fresh valid entry of exact types is keyed by identity and pinned.
        fresh = (20, (22, 21))
        assert drive_both(bitset, reference, [fresh], []) == (
            False,
            3,
            [(20, (21, 22))],
            [20, 21, 22],
        )
        assert interner.by_id[id(fresh)] is interner.intern(20, (21, 22))
        assert interner.pinned[-1] is fresh
        # Degree-bound violation and self-loop claims.
        assert drive_both(
            bitset, reference, [(10, tuple(range(20, 20 + MAX_DEGREE + 2)))], []
        ) == (True, 0, [], [])
        assert drive_both(bitset, reference, [(11, (11, 12))], []) == (True, 0, [], [])

    def test_unhashable_edge_container_raises_in_both(self):
        bitset, reference = self.make_pair(0, [1])
        # An int node id with an edge container whose elements are unhashable
        # raises out of integrate in both implementations (the protocol
        # treats the whole message as inconsistent).
        assert (
            drive_both(bitset, reference, [(5, (6, [7]))], []) is None
        )

    def test_shared_interner_matches_reference(self):
        # Two bitset views sharing one per-run ClaimInterner (as
        # run_local_counting wires them) and re-broadcasting each other's
        # singleton delta entries must track two independent reference views.
        interner = ClaimInterner()
        bit_a = LocalView(0, [1], interner=interner)
        bit_b = LocalView(1, [0], interner=interner)
        ref_a = SetBasedLocalView(0, [1])
        ref_b = SetBasedLocalView(1, [0])
        rng = random.Random(7)
        pending_b = []
        for step in range(12):
            entries = [
                random_edge_entry(rng, bit_a, fresh_base=3000 + 200 * step)
                for _ in range(rng.randrange(1, 3))
            ]
            got = integrate_tracked(bit_a, entries, [], max_degree=MAX_DEGREE)
            expected = reference_result(ref_a.integrate(entries, [], max_degree=MAX_DEGREE))
            assert got == expected
            assert_views_equal(bit_a, ref_a)
            pending_b.extend(got[2])
            # b integrates a's forwarded singleton entries (identity-deduped
            # on later arrivals), twice to exercise the duplicate path.
            for _ in range(2):
                got = integrate_tracked(bit_b, list(pending_b), [], max_degree=MAX_DEGREE)
                expected = reference_result(
                    ref_b.integrate(list(pending_b), [], max_degree=MAX_DEGREE)
                )
                assert got == expected
                assert_views_equal(bit_b, ref_b)
            pending_b = []


# --------------------------------------------------------------------------- #
# Dynamic-topology (churn) parity: deletions, retractions, re-announcements
# --------------------------------------------------------------------------- #
def drive_both_dynamic(bitset, reference, entries, vertices, max_degree=MAX_DEGREE):
    """``drive_both`` for the churn path: ``allow_updates=True`` plus a
    from-scratch re-verification of the bitset view after every delta."""
    try:
        got = integrate_tracked(
            bitset, entries, vertices, max_degree=max_degree, allow_updates=True
        )
    except (TypeError, ValueError) as bitset_exc:
        with pytest.raises(type(bitset_exc)):
            reference.integrate(
                entries, vertices, max_degree=max_degree, allow_updates=True
            )
        assert_views_equal(bitset, reference)
        assert_matches_scratch(bitset)
        return None
    expected = reference_result(
        reference.integrate(entries, vertices, max_degree=max_degree, allow_updates=True)
    )
    assert got == expected
    assert_views_equal(bitset, reference)
    assert_matches_scratch(bitset)
    return got


class TestDynamicChurnParity:
    """Bitset vs set-based reference under the dynamic (churn) operations."""

    def make_pair(self, own_id, neighbors):
        return LocalView(own_id, neighbors), SetBasedLocalView(own_id, neighbors)

    def test_randomized_churn_interleavings(self):
        # Deletions, retractions, forced updates, stale re-announcements, and
        # malformed Byzantine payloads interleaved in one seeded stream; both
        # implementations must agree observable-for-observable after every
        # operation, and the bitset view must match a from-scratch rebuild.
        for seed in range(20):
            rng = random.Random(50_000 + seed)
            degree = rng.randrange(2, MAX_DEGREE + 1)
            bitset, reference = self.make_pair(100, [101 + i for i in range(degree)])
            history = []
            for step in range(25):
                roll = rng.random()
                settled = sorted(bitset.edge_sets)
                if roll < 0.45 or not settled:
                    entries = [
                        random_edge_entry(rng, bitset, fresh_base=2000 + 100 * step)
                        for _ in range(rng.randrange(1, 4))
                    ]
                    history.extend(entries)
                    drive_both_dynamic(
                        bitset, reference, entries, random_vertices(rng, 2000 + 100 * step)
                    )
                elif roll < 0.60:
                    # Cut a settled edge (sometimes a phantom one).
                    a = rng.choice(settled)
                    edges = sorted(bitset.edge_sets[a])
                    b = rng.choice(edges) if edges and rng.random() < 0.8 else 999_999
                    assert bitset.delete_edge(a, b) == reference.delete_edge(a, b)
                elif roll < 0.72:
                    node = rng.choice(settled if rng.random() < 0.8 else [888_888])
                    assert bitset.retract_claim(node) == reference.retract_claim(node)
                elif roll < 0.84:
                    node = rng.choice(settled)
                    pool = [v for v in sorted(bitset.vertices) if v != node]
                    new_edges = tuple(
                        sorted(rng.sample(pool, k=min(len(pool), rng.randrange(1, MAX_DEGREE))))
                    )
                    assert bitset.update_claim(node, new_edges) == reference.update_claim(
                        node, new_edges
                    )
                elif history:
                    # Stale echo: replay previously delivered payloads.
                    replay = rng.sample(history, k=min(len(history), rng.randrange(1, 4)))
                    drive_both_dynamic(bitset, reference, replay, [])
                assert_views_equal(bitset, reference)
                assert_matches_scratch(bitset)

    def test_delete_edge_then_reannouncement_is_ignored(self):
        # Monotone-per-value semantics: after an edge deletion shrinks both
        # endpoints' claims, echoes of the pre-deletion claims must not flip
        # the views back (they were already integrated once).
        bitset, reference = self.make_pair(0, [1])
        drive_both_dynamic(bitset, reference, [(5, (6, 7)), (6, (5, 7))], [])
        assert bitset.delete_edge(5, 6) is True
        assert reference.delete_edge(5, 6) is True
        assert_views_equal(bitset, reference)
        assert bitset.edge_sets[5] == frozenset({7})
        assert drive_both_dynamic(
            bitset, reference, [(5, (6, 7)), (6, (5, 7))], []
        ) == (False, 0, [], [])
        assert bitset.edge_sets[5] == frozenset({7})
        assert bitset.edge_sets[6] == frozenset({7})

    def test_retract_then_reannouncement_reintegrates(self):
        # Retraction *unsees* the claim, so a later re-announcement (e.g. a
        # re-joining node re-broadcasting its topology) settles it again.
        bitset, reference = self.make_pair(0, [1])
        drive_both_dynamic(bitset, reference, [(5, (6, 7))], [])
        assert bitset.retract_claim(5) is True
        assert reference.retract_claim(5) is True
        assert 5 not in bitset.edge_sets
        assert_views_equal(bitset, reference)
        assert drive_both_dynamic(bitset, reference, [(5, (6, 7))], []) == (
            False,
            0,
            [(5, (6, 7))],
            [],
        )
        assert bitset.edge_sets[5] == frozenset({6, 7})

    def test_conflicting_claim_is_update_in_dynamic_mode(self):
        # In static mode a conflicting claim is flagged inconsistent; under
        # churn it is accepted as a topology update (in both implementations).
        bitset, reference = self.make_pair(0, [1])
        drive_both_dynamic(bitset, reference, [(5, (6, 7))], [])
        got = drive_both_dynamic(bitset, reference, [(5, (6, 8))], [])
        assert got == (False, 1, [(5, (6, 8))], [8])
        assert bitset.edge_sets[5] == frozenset({6, 8})
        # ...but the superseded claim stays seen: echoing it does nothing.
        assert drive_both_dynamic(bitset, reference, [(5, (6, 7))], []) == (
            False,
            0,
            [],
            [],
        )
        assert bitset.edge_sets[5] == frozenset({6, 8})

    def test_malformed_payloads_mid_churn(self):
        # Byzantine garbage delivered *between* structural deltas must be
        # flagged (never integrated) without corrupting either view.
        bitset, reference = self.make_pair(0, [1, 2])
        drive_both_dynamic(bitset, reference, [(1, (0, 5)), (5, (1, 6))], [])
        assert bitset.delete_edge(1, 5) is True
        assert reference.delete_edge(1, 5) is True
        malformed = [
            ([("evil", (1, 2))], ["ghost"]),
            ([(3.5, (1, 2))], []),
            ([(30, ("x", 31))], []),
            ([(30, tuple(range(40, 40 + MAX_DEGREE + 2)))], []),  # degree bound
            ([(30, (30, 31))], []),  # self-loop
        ]
        for entries, vertices in malformed:
            got = drive_both_dynamic(bitset, reference, entries, vertices)
            assert got is not None and got[0] is True and got[2] == []
        # A fresh honest claim after the garbage still integrates.
        assert drive_both_dynamic(bitset, reference, [(6, (2, 5))], []) == (
            False,
            0,
            [(6, (2, 5))],
            [],
        )

    def test_update_claim_flip_back_applies(self):
        # update_claim bypasses the seen-set: restoring the exact pre-churn
        # edge set (a healed link) must take effect even though that canonical
        # value was integrated before.
        bitset, reference = self.make_pair(0, [1])
        drive_both_dynamic(bitset, reference, [(5, (6, 7))], [])
        assert bitset.update_claim(5, (6,)) == reference.update_claim(5, (6,)) == True
        assert bitset.edge_sets[5] == frozenset({6})
        assert_views_equal(bitset, reference)
        assert bitset.update_claim(5, (6, 7)) == reference.update_claim(5, (6, 7)) == True
        assert bitset.edge_sets[5] == frozenset({6, 7})
        assert_views_equal(bitset, reference)
        assert_matches_scratch(bitset)

    def test_settled_entries_agree(self):
        bitset, reference = self.make_pair(0, [1])
        drive_both_dynamic(bitset, reference, [(5, (6, 7)), (6, (5, 7))], [])
        bitset.delete_edge(5, 7)
        reference.delete_edge(5, 7)
        assert set(bitset.settled_entries()) == set(reference.settled_entries())


# --------------------------------------------------------------------------- #
# Views sharing one run's ClaimInterner (and its claim geometry)
# --------------------------------------------------------------------------- #
class TestCanonicalClaimRecords:
    def test_permuted_intern_returns_the_canonical_record(self):
        interner = ClaimInterner()
        canonical = interner.intern(5, (6, 7))
        assert interner.intern(5, (7, 6)) is canonical
        assert interner.resolve((5, (7, 6))) is canonical
        assert interner.resolve((5, [7, 6])) is canonical

    def test_retracted_alias_entry_reintegrates(self):
        # A view that integrated a permuted-order alias of a claim must still
        # be able to un-see it: retraction re-opens the claim value, so the
        # alias entry settles again, as the reference promises.
        interner = ClaimInterner()
        bitset = LocalView(0, [1], interner=interner)
        reference = SetBasedLocalView(0, [1])
        interner.intern(5, (6, 7))
        alias = interner.intern(5, (7, 6)).entry
        assert drive_both_dynamic(bitset, reference, [alias], []) == (
            False,
            3,
            [(5, (6, 7))],
            [5, 6, 7],
        )
        assert bitset.retract_claim(5) is reference.retract_claim(5) is True
        assert drive_both_dynamic(bitset, reference, [alias], []) == (
            False,
            0,
            [(5, (6, 7))],
            [],
        )


#: Vertex ids of the shared-interner fuzz: small, so different views settle
#: different claims for the same node and the run marks nodes conflicted.
POOL = tuple(range(10))
MALFORMED = (
    ("evil", (1, 2)),
    (3.0, (1, 2)),
    (4, ("x", 5)),
    (6, (6, 7)),  # self-loop
    (8, tuple(range(20, 20 + MAX_DEGREE + 1))),  # degree bound
)


@st.composite
def pool_claims(draw):
    node = draw(st.sampled_from(POOL))
    edges = sorted(set(draw(st.lists(st.sampled_from(POOL), max_size=MAX_DEGREE))) - {node})
    # Honest entries are canonical tuples; a list container takes the
    # interner's direct-parse path.
    return (node, list(edges) if draw(st.integers(0, 5)) == 0 else tuple(edges))


fuzz_entries = st.lists(
    st.one_of(pool_claims(), pool_claims(), pool_claims(), st.sampled_from(MALFORMED)),
    max_size=4,
)
fuzz_vertices = st.lists(st.one_of(st.sampled_from(POOL + (11, 12)), st.just("ghost")), max_size=3)
fuzz_ops = st.one_of(
    st.tuples(st.just("integrate"), st.integers(0, 3), fuzz_entries, fuzz_vertices),
    st.tuples(st.just("forward"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("delete"), st.integers(0, 3), st.sampled_from(POOL), st.sampled_from(POOL)),
    st.tuples(st.just("retract"), st.integers(0, 3), st.sampled_from(POOL)),
    st.tuples(st.just("update"), st.integers(0, 3), pool_claims()),
)


class TestSharedInternerFuzz:
    """2-4 views on one interner, each against its own set-based reference."""

    @given(
        allow_updates=st.booleans(),
        owners=st.lists(
            st.tuples(st.sampled_from(POOL), st.lists(st.sampled_from(POOL), max_size=4)),
            min_size=2,
            max_size=4,
        ),
        ops=st.lists(fuzz_ops, max_size=30),
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_views_track_their_references(self, allow_updates, owners, ops):
        interner = ClaimInterner()
        pairs = []
        for own, neighbors in owners:
            neighbors = sorted(set(neighbors) - {own})
            pairs.append(
                (LocalView(own, neighbors, interner=interner), SetBasedLocalView(own, neighbors))
            )
        outgoing = [[] for _ in pairs]
        for op in ops:
            kind, k = op[0], op[1] % len(pairs)
            bitset, reference = pairs[k]
            if kind in ("integrate", "forward"):
                if kind == "integrate":
                    entries, vertices = op[2], op[3]
                else:
                    # Re-broadcast another view's singleton delta entries.
                    entries, vertices = outgoing[op[2] % len(pairs)], []
                got = integrate_tracked(
                    bitset, entries, vertices, max_degree=MAX_DEGREE, allow_updates=allow_updates
                )
                expected = reference_result(
                    reference.integrate(
                        entries, vertices, max_degree=MAX_DEGREE, allow_updates=allow_updates
                    )
                )
                assert got == expected
                outgoing[k] = got[2]
            elif kind == "retract":
                assert bitset.retract_claim(op[2]) == reference.retract_claim(op[2])
            elif not allow_updates:
                # Deletions and updates supersede claim values, which only
                # dynamic runs do (static integrate flags them as conflicts).
                continue
            elif kind == "delete":
                assert bitset.delete_edge(op[2], op[3]) == reference.delete_edge(op[2], op[3])
            else:
                node, edges = op[2]
                assert bitset.update_claim(node, edges) == reference.update_claim(node, edges)
            for view, ref in pairs:
                assert_views_equal(view, ref)
                assert set(view.settled_entries()) == set(ref.settled_entries())


def assert_asym_invariant(interner):
    """``asym[j] == grev[j] & ~cmask[j]`` for every slot, and ``asym_slots``
    marks exactly the slots where it is non-zero."""
    slots = 0
    for j, (claimers, claim, lone) in enumerate(
        zip(interner.grev, interner.cmask, interner.asym)
    ):
        assert lone == claimers & ~claim
        if lone:
            slots |= 1 << j
    assert interner.asym_slots == slots


registrations = st.lists(
    st.tuples(
        st.sampled_from(POOL),
        st.lists(st.sampled_from(POOL), max_size=MAX_DEGREE),
        st.sampled_from(("canonical", "permuted", "list")),
    ),
    max_size=25,
)


class TestAsymmetricClaimGeometry:
    """``ClaimInterner.asym``: the claimers of a slot its first claim does
    not name back."""

    @given(ops=registrations)
    @example(
        ops=[
            (1, [2], "canonical"),  # 1 claims 2 before 2's first claim
            (2, [1, 3], "canonical"),
            (2, [3], "canonical"),  # a conflicting second claim for 2
            (2, [3, 1], "permuted"),  # permuted duplicates of both claims
            (1, [2], "list"),
        ]
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_asym_tracks_unreturned_claimers(self, ops):
        interner = ClaimInterner()
        for node, edges, form in ops:
            edges = sorted(set(edges) - {node})
            if form == "canonical":
                interner.intern(node, tuple(edges))
            elif form == "permuted":
                interner.resolve((node, tuple(reversed(edges))))
            else:
                interner.resolve((node, list(reversed(edges))))
            assert_asym_invariant(interner)

    def test_first_claim_clears_and_conflicts_keep(self):
        interner = ClaimInterner()
        interner.intern(1, (2,))
        slot = interner.slot_of
        assert interner.asym[slot[2]] == 1 << slot[1]
        # 2's first claim names 1 back: 2 is symmetric again.
        interner.intern(2, (1, 3))
        assert interner.asym[slot[2]] == 0
        assert interner.asym_slots == 1 << slot[3]
        # A second claim for 2 that drops 1 does not change 2's first claim,
        # but 3 is still claimed by 2 without claiming anything itself.
        interner.intern(2, (3,))
        assert interner.conflicted == 1 << slot[2]
        assert interner.asym[slot[2]] == 0
        assert interner.asym[slot[3]] == 1 << slot[2]
        # 4 claims 1, whose first claim does not name 4.
        interner.resolve((4, (1,)))
        assert interner.asym[slot[1]] == 1 << slot[4]
        assert interner.asym_slots == (1 << slot[3]) | (1 << slot[1])
        assert_asym_invariant(interner)


# --------------------------------------------------------------------------- #
# Masked honest deltas (record-id and vertex-slot masks) vs the reference
# --------------------------------------------------------------------------- #
def honest_node(interner, own, neighbors, dynamic=False):
    """An Algorithm 1 node on ``interner`` whose ``_delta_message`` builds the
    masked payloads honest nodes broadcast."""
    neighbors = tuple(neighbors)
    ctx = NodeContext(
        index=own,
        node_id=own,
        neighbors=neighbors,
        neighbor_ids={v: v for v in neighbors},
        rng=random.Random(0),
    )
    return LocalCountingProtocol(
        ctx, LocalParameters(max_degree=MAX_DEGREE), interner=interner, dynamic=dynamic
    )


def integrate_in_order(reference, inbox, allow_updates):
    """The reference fed an inbox payload by payload, as the protocol used to
    call it: the OR of the flags and every new claim and vertex, in order."""
    inconsistent = False
    new_edges, new_vertices = [], []
    for entries, vertices in inbox:
        bad, edges, fresh = reference.integrate(
            entries, vertices, max_degree=MAX_DEGREE, allow_updates=allow_updates
        )
        inconsistent = inconsistent or bad
        new_edges += edges
        new_vertices += fresh
    return inconsistent, new_edges, new_vertices


#: An entry whose edge container cannot be hashed: integrate raises on it.
RAISING = (4, (5, [6]))
byzantine_payloads = st.tuples(
    st.lists(
        st.one_of(pool_claims(), pool_claims(), st.sampled_from(MALFORMED + (RAISING,))),
        max_size=3,
    ).map(tuple),
    fuzz_vertices.map(tuple),
)
mask_ops = st.one_of(
    # One synchronous round: every view integrates the other views' last
    # broadcasts in the drawn order, with Byzantine per-entry payloads
    # inserted at drawn places, then broadcasts its own delta.
    st.tuples(
        st.just("round"),
        st.permutations(range(4)),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4), byzantine_payloads), max_size=4),
    ),
    st.tuples(st.just("delete"), st.integers(0, 3), st.sampled_from(POOL), st.sampled_from(POOL)),
    st.tuples(st.just("retract"), st.integers(0, 3), st.sampled_from(POOL)),
    st.tuples(st.just("update"), st.integers(0, 3), pool_claims()),
    # A Byzantine node tells one view a second valid claim for a node some
    # view has settled: the run marks that node conflicted mid-run, so
    # later deltas forwarding its first claim leave the mask-only merge.
    st.tuples(
        st.just("equivocate"),
        st.integers(0, 3),
        st.integers(0, len(POOL)),
        st.lists(st.sampled_from(POOL), max_size=MAX_DEGREE),
    ),
    # A Byzantine node that is no owner tells one view a claim naming only
    # some of the owners that name it, plus fake vertices whose own claims
    # do not name it back, as FakeTopologyAdversary does: one-sided claims.
    st.tuples(
        st.just("one-sided"),
        st.integers(0, 3),
        st.integers(0, len(POOL)),
        st.integers(0, 3),
        st.lists(st.integers(20, 24), max_size=2, unique=True),
    ),
)


class TestMaskedDeltaFuzz:
    """2-4 nodes on one interner exchanging masked deltas, mixed with
    Byzantine per-entry payloads, each view against its own reference.

    ``one-sided`` claims make the run's claim geometry asymmetric (non-zero
    ``asym`` masks), which the BFS and the interior pass read.  The draws
    reach every guard of the mask-only merge: a node that turns
    conflicted after views settled its first claim (``equivocate`` and the
    Byzantine payloads), an owner whose own claim exceeds the degree bound
    (``oversize``: the run holds a valid claim over ``max_degree``, which
    every receiver flags), and two owners with the same id (``twin``: each
    forwards a claim the other settled at construction but has not seen
    yet)."""

    @given(
        allow_updates=st.booleans(),
        owners=st.lists(
            st.tuples(st.sampled_from(POOL), st.lists(st.sampled_from(POOL), max_size=4)),
            min_size=2,
            max_size=4,
        ),
        twin=st.booleans(),
        oversize=st.booleans(),
        ops=st.lists(mask_ops, max_size=12),
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_views_and_deltas_track_their_references(
        self, allow_updates, owners, twin, oversize, ops
    ):
        interner = ClaimInterner()
        nodes, references, pending, neighbor_lists = [], [], [], []
        if twin:
            owners[1] = (owners[0][0], owners[1][1])
        if oversize:
            own = owners[-1][0]
            owners[-1] = (own, [v for v in POOL if v != own][: MAX_DEGREE + 1])
        for own, neighbors in owners:
            neighbors = sorted(set(neighbors) - {own})
            node = honest_node(interner, own, neighbors, allow_updates)
            nodes.append(node)
            neighbor_lists.append(neighbors)
            references.append(SetBasedLocalView(own, neighbors))
            # The reference's pending delta: B̂(u, 1) to start with.
            pending.append(({node.view.settled_entries()[0]}, set(neighbors)))
        live = list(range(len(nodes)))
        outgoing = [None] * len(nodes)

        def broadcast():
            for j in live:
                payload = nodes[j]._delta_message().payload
                assert (set(payload[0]), set(payload[1])) == pending[j]
                pending[j] = (set(), set())
                outgoing[j] = payload

        broadcast()
        for op in ops:
            if op[0] == "round":
                _, order, byzantine = op
                for k in list(live):
                    view, reference = nodes[k].view, references[k]
                    inbox = [outgoing[j] for j in order if j in live and j != k]
                    for receiver, place, payload in byzantine:
                        if receiver % len(nodes) == k:
                            inbox.insert(place, payload)
                    try:
                        got = integrate_tracked(
                            view, inbox=inbox, max_degree=MAX_DEGREE, allow_updates=allow_updates
                        )
                    except TypeError:
                        # The reference raises too.  A node that raised
                        # decides, so its view is never read again.
                        with pytest.raises(TypeError):
                            integrate_in_order(reference, inbox, allow_updates)
                        live.remove(k)
                        continue
                    expected = integrate_in_order(reference, inbox, allow_updates)
                    assert got == reference_result(expected)
                    pending[k][0].update(expected[1])
                    pending[k][1].update(expected[2])
                    assert_views_equal(view, reference)
                    assert_carried_masks(view)
                broadcast()
                continue
            k = op[1] % len(nodes)
            if k not in live:
                continue
            view, reference = nodes[k].view, references[k]
            if op[0] == "equivocate":
                settled = sorted({v for j in live for v in nodes[j].view.edge_sets})
                if not settled:
                    continue
                node = settled[op[2] % len(settled)]
                claim = (node, tuple(sorted(set(op[3]) - {node})))
                inbox = [((claim,), ())]
                got = integrate_tracked(
                    view, inbox=inbox, max_degree=MAX_DEGREE, allow_updates=allow_updates
                )
                expected = integrate_in_order(reference, inbox, allow_updates)
                assert got == reference_result(expected)
                pending[k][0].update(expected[1])
                pending[k][1].update(expected[2])
            elif op[0] == "one-sided":
                _, _, pick, keep, fakes = op
                outsiders = [v for v in POOL if v not in {own for own, _ in owners}]
                node = outsiders[pick % len(outsiders)]
                real = sorted(
                    {n.view.own_id for n, nbrs in zip(nodes, neighbor_lists) if node in nbrs}
                )
                claim = (node, tuple(sorted(set(real[:keep]) | set(fakes))))
                fake_claims = tuple((fake, (fake + 10,)) for fake in fakes)
                inbox = [((claim,) + fake_claims, ())]
                got = integrate_tracked(
                    view, inbox=inbox, max_degree=MAX_DEGREE, allow_updates=allow_updates
                )
                expected = integrate_in_order(reference, inbox, allow_updates)
                assert got == reference_result(expected)
                pending[k][0].update(expected[1])
                pending[k][1].update(expected[2])
            elif op[0] == "retract":
                assert view.retract_claim(op[2]) == reference.retract_claim(op[2])
            elif not allow_updates:
                # Deletions and updates supersede claim values, which only
                # dynamic runs do (static integrate flags them as conflicts).
                continue
            elif op[0] == "delete":
                assert view.delete_edge(op[2], op[3]) == reference.delete_edge(op[2], op[3])
            else:
                node, edges = op[2]
                assert view.update_claim(node, edges) == reference.update_claim(node, edges)
            assert_views_equal(view, reference)
            assert set(view.settled_entries()) == set(reference.settled_entries())
            assert_carried_masks(view)


class TestMaskedDeltaOrder:
    """The order contract of masked deltas."""

    def test_static_inbox_order_does_not_change_the_forwarded_delta(self):
        interner = ClaimInterner()
        senders = [
            honest_node(interner, own, neighbors)
            for own, neighbors in ((1, (0, 2, 5)), (2, (0, 1, 6)), (3, (0, 7, 8)))
        ]
        honest = [sender._delta_message().payload for sender in senders]
        byzantine = (((9, (3, 10)), (4, (0, 11))), (12,))
        forwarded = []
        for inbox in (honest + [byzantine], [byzantine] + honest[::-1]):
            receiver = honest_node(interner, 0, (1, 2, 3, 4))
            receiver._delta_message()  # its initial delta
            bad, _ = receiver.view.integrate(inbox=inbox, max_degree=MAX_DEGREE)
            assert not bad
            forwarded.append(receiver._delta_message().payload)
        first, second = forwarded
        assert first == second and first.records == second.records
        entries, vertices = first
        rids = [interner.resolve(entry).rid for entry in entries]
        assert rids == sorted(rids) and len(rids) == 5
        slots = [interner.slot_of[v] for v in vertices]
        assert slots == sorted(slots) and 12 in vertices

    def test_dynamic_same_round_collision_resolves_in_arrival_order(self):
        # Two neighbors forward different new claims for node 5 in the same
        # round.  Record-id order would always let (6, 8) win; arrival order
        # (the last one wins, as for per-entry payloads) decides instead.
        interner = ClaimInterner()
        a = honest_node(interner, 1, (0,), dynamic=True)
        b = honest_node(interner, 2, (0,), dynamic=True)
        a.view.integrate([(5, (6, 7))], [], max_degree=MAX_DEGREE, allow_updates=True)
        b.view.integrate([(5, (6, 8))], [], max_degree=MAX_DEGREE, allow_updates=True)
        from_a, from_b = a._delta_message().payload, b._delta_message().payload
        assert interner.intern(5, (6, 7)).rid < interner.intern(5, (6, 8)).rid
        for inbox, winner in (([from_a, from_b], {6, 8}), ([from_b, from_a], {6, 7})):
            view = LocalView(0, (1, 2), interner=interner)
            reference = SetBasedLocalView(0, (1, 2))
            got = integrate_tracked(
                view, inbox=inbox, max_degree=MAX_DEGREE, allow_updates=True
            )
            expected = integrate_in_order(reference, inbox, allow_updates=True)
            assert view.edge_sets[5] == reference.edge_sets[5] == frozenset(winner)
            assert got[0] is expected[0] is False
            assert got == reference_result(expected)
            assert_views_equal(view, reference)
