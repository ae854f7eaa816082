"""Algorithm 1: the deterministic, time-optimal LOCAL-model algorithm (Section 4).

Every node ``u`` gossips its current approximation ``B̂(u, i)`` of its ``i``-hop
neighborhood.  It decides on the current round number ``i`` as its estimate of
``log n`` as soon as it either

* notices *structural inconsistencies* in the received topology information
  (a node with degree above the known bound Δ, conflicting incident-edge sets
  for the same node, or a mute neighbor -- Lines 5-7 and the
  ``inconsistent`` predicate), or
* finds a vertex subset of its view whose vertex expansion drops below the
  threshold α′ (Lines 9-13).

Theorem 1: on a bounded-degree graph with constant vertex expansion and up to
``n^(1-γ)`` adversarially placed Byzantine nodes, all ``n - o(n)`` nodes of the
``Good`` set (Lemma 1) decide a value between ``⌊(γ/2)·log_Δ n⌋`` and
``diam(G) + 1``, i.e. a constant-factor approximation of ``log n``, within
``O(log n)`` rounds.

Implementation notes
--------------------
* **Decision order.**  A round computes only what its decision reads.  A
  malformed message or a mute neighbor decides the round whatever the view
  would learn, so :meth:`LocalCountingProtocol.on_round` decides on them
  before integrating the inbox.  After integrating, an inconsistency and
  Line (4) (from round 2 on, the view learned no vertex) decide before
  anything is derived.  Only then does the expansion check derive the BFS
  layers, test every layer prefix, and derive the interior only if every
  prefix expanded.  The decision is the same as in the pseudocode's order,
  where every step runs before any decides
  (``tests/local_protocol_reference.py`` is that order, and
  ``tests/test_local_protocol_oracle.py`` runs both on the engine); a
  decided node halts and never reads its view again.
* **Expansion check family.**  Line 9 of the pseudocode checks *every* subset
  of the local view -- exponential local computation, which the LOCAL model
  permits but a simulator cannot afford for views of thousands of vertices.
  The correctness argument only ever relies on two kinds of sets:

  1. the per-radius balls ``B̂(u, j)`` (Lemma 3's induction), and
  2. the honest part ``R`` of the view, whose out-boundary consists solely of
     the (few) Byzantine vertices because fake vertices can never be claimed
     adjacent to an honest vertex without contradicting that honest vertex's
     own edge report (Lemma 4/5).

  We therefore check (1) every BFS-layer prefix of the view, (2) the
  *interior set* of the view -- the settled vertices all of whose claimed
  neighbors are settled, which contains the honest region once the network
  has been fully explored and whose out-boundary is then exactly the set of
  vertices the adversary is still "growing" -- and (3) whether the view grew
  at all this round (the ``Out(B̂(u,i)) = ∅`` case that forces the Lemma 5
  decision at ``diam(G)+1``).  An exhaustive all-subsets check
  (``LocalParameters.exhaustive_subset_check``) is available for small views
  and is used by the unit tests to confirm the practical family triggers the
  same decisions there.  An unbounded adversary willing to fabricate a fake
  region whose *frontier* grows as Ω(α′·n) fresh vertices per round can evade
  the polynomial family (but not the exhaustive one); the experiment suite
  measures the shipped adversaries, which are caught (the ``fake-topology``
  attack of experiment E9 is among them).
* **Delta gossip.**  Honest nodes broadcast only the part of their view that
  is new since the previous round; re-broadcasting the full view every round
  carries no additional information in a synchronous network and would make
  large simulations needlessly slow.  Message sizes still grow with the
  frontier (Θ(Δ^i) identifiers), preserving the paper's point that
  Algorithm 1 is *not* a small-message algorithm (experiment E10).
  A view keeps its pending delta as masks: the record ids, the vertex
  slots, and, carried along as records are added, the claiming nodes and
  the claims' span (every vertex of the claims).  The sender sums the size
  accounting from per-record and per-slot costs and hands out the four
  masks (the span plus the vertex slots) as the payload: a private
  tuple-like object that stands for ``(entries, vertex_ids)``, claim
  entries in record-id order and vertex ids in slot order, and builds that
  tuple only if something reads it.  A receiver ORs the masks of every such
  payload in its inbox.  When none of the claiming nodes made two valid
  claims in the run and no valid claim exceeds the degree bound, every
  unseen claim settles, so the merge is mask operations only: ``new =
  records & ~seen``, ``settled |= nodes``, ``known |= span``.  Otherwise
  the unseen claims are sorted out one by one.  Every other payload (a
  Byzantine node's tuple, say) takes the per-entry path inside the same
  :meth:`LocalView.integrate` call.
* **Shared claim geometry.**  Every view of a run receives the same claims,
  so a run's :class:`ClaimInterner` parses each claim value once, gives each
  valid one a run-wide record id, and places it in one run-wide vertex slot
  space: each node's first valid claim and its edge mask, reverse-adjacency
  masks, the one-sided part of each reverse mask (the claimers a vertex's
  first claim does not name back, empty for every vertex when all claims
  are symmetric, as honest ones are), and which nodes made conflicting
  claims.  A :class:`LocalView` only records which vertices it knows (a
  slot mask), which claims it has seen (a record-id mask) and which nodes
  it settled (a slot mask); a settled node's claim is the run's first one
  for it unless the view's small override dict says otherwise, which only
  happens for nodes with conflicting claims.  The BFS layers, interior and
  out-boundary the expansion check reads are derived from those, at most
  once per round and each only when the check gets to it: a BFS layer
  reads one mask per settled vertex with symmetric claims, and the
  interior pass finds the candidates still waiting on an unsettled vertex
  as one OR of the unsettled vertices' reverse masks.  Every such OR and
  sum over a mask's slots or record ids selects the values with
  :meth:`ClaimInterner.select`, one C-level pass for a dense mask.
  Byzantine claim entries are parsed once per entry object, honest ones
  once per claim value.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from itertools import compress, groupby
from operator import attrgetter, or_
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.estimate import CountingOutcome, ProtocolRun
from repro.core.parameters import LocalParameters
from repro.simulator.byzantine import Adversary
from repro.simulator.churn import ChurnSchedule
from repro.graphs.graph import Graph
from repro.simulator.engine import SynchronousEngine
from repro.simulator.messages import LazyTuple, Message
from repro.simulator.network import Network
from repro.simulator.node import Broadcast, NodeContext, Outbox, Protocol

__all__ = [
    "LocalView",
    "ClaimInterner",
    "LocalCountingProtocol",
    "run_local_counting",
]

#: Payload of a topology message: newly learned ``(node_id, incident_edge_ids)``
#: pairs plus newly learned frontier vertex ids.
TopologyDelta = Tuple[Tuple[Tuple[int, Tuple[int, ...]], ...], Tuple[int, ...]]
ClaimEntry = Tuple[int, Tuple[int, ...]]


#: ``bytes.translate`` table turning a string of binary digits into 0/1 bytes.
_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_RBIT = attrgetter("rbit")
_BIT = attrgetter("bit")
_SLOT = attrgetter("slot")
_VMASK = attrgetter("vmask")
_ENTRY = attrgetter("entry")
_RECORDS = attrgetter("records")
_SLOTS = attrgetter("slots")
_NODES = attrgetter("nodes")
_SPAN = attrgetter("span")


def _claim_accounting(node_id: int, edges: Sequence[int]) -> Tuple[int, int]:
    """Exact ``estimate_payload_bits`` cost and id count of one claim entry
    inside a delta payload (see ``LocalCountingProtocol._delta_message``)."""
    inner = 0
    for v in edges:
        b = v.bit_length()
        inner += (b if b else 1) + 2
    if not inner:
        inner = 1
    b = node_id.bit_length()
    return (b if b else 1) + 2 + inner + 2 + 2, 1 + len(edges)


class _ClaimRecord:
    """Per-run shared parse of one ``(node_id, edge_ids)`` topology claim.

    Every receiver of a claim needs the same derived facts -- the frozenset
    of its edge ids, the canonical sorted tuple it forwards, whether the ids
    are well-typed, the claim's exact delta-payload bit accounting, its
    record id, and its geometry in the run's slot space (``slot``/``bit`` of
    the claiming node, ``mask`` of its claimed neighbors, ``vmask`` of both).
    All of them are pure functions of the claim, so they are computed once
    per run and shared by every :class:`LocalView` (see
    :class:`ClaimInterner`).  Malformed records get no canonical form,
    accounting, record id or geometry.
    """

    __slots__ = (
        "entry", "node_id", "edge_set", "canonical", "valid", "size", "bits", "num_ids",
        "rid", "rbit", "slot", "bit", "mask", "vmask",
    )

    def __init__(self, node_id: int, edge_ids: Iterable[int]) -> None:
        edge_set = frozenset(edge_ids)
        self.node_id = node_id
        self.edge_set = edge_set
        self.size = len(edge_set)
        self.valid = (
            isinstance(node_id, int)
            and node_id not in edge_set
            and all(map(int.__instancecheck__, edge_set))
        )
        if self.valid:
            canonical = tuple(sorted(edge_set))
            self.canonical = canonical
            #: The singleton payload entry honest forwarders re-broadcast.
            self.entry = (node_id, canonical)
            self.bits, self.num_ids = _claim_accounting(node_id, canonical)
        else:
            # Sorting a mixed-type edge set may not even be possible.
            self.canonical = None
            self.entry = None
            self.bits = 0
            self.num_ids = 0


class _Delta(LazyTuple):
    """An honest node's delta payload ``(entries, vertex_ids)``, kept as masks.

    ``records`` is the record-id mask of the claim entries and ``slots`` the
    vertex-slot mask of the vertex ids; ``nodes`` is the slot mask of the
    claiming nodes and ``span`` the OR of the claims' vertex masks and
    ``slots``.  Only :meth:`LocalCountingProtocol._delta_message` builds
    one, from the masks its view carries for the pending delta, and
    receivers integrate it by its masks alone.  The ``(entries,
    vertex_ids)`` tuple it stands for (claim entries in record-id order,
    vertex ids in slot order) is built only when something reads it:
    iterating, indexing, comparing and ``estimate_payload_bits`` see that
    tuple (see :class:`~repro.simulator.messages.LazyTuple`).  No honest
    receiver and no shipped adversary reads it.
    """

    __slots__ = ("records", "slots", "nodes", "span", "_interner")

    def __init__(self, interner: "ClaimInterner", records: int, slots: int,
                 nodes: int, span: int) -> None:
        self._interner = interner
        self.records = records
        self.slots = slots
        self.nodes = nodes
        self.span = span

    def build(self) -> TopologyDelta:
        select = self._interner.select
        return (
            tuple(select(self._interner.entries, self.records)),
            tuple(select(self._interner.ids, self.slots)),
        )


class ClaimInterner:
    """Hash-consing table and shared geometry for one run's topology claims.

    There is exactly one record per valid claim *value*: ``by_value`` maps
    every type-pure payload entry seen so far (canonical or permuted) to it,
    and ``by_id`` maps ``id(record.entry)`` of the canonical singleton entry
    to it.  Honest nodes forward that singleton object itself, so a claim
    entry that reaches a view by the per-entry path is recognized with one
    identity lookup, and its parse is done once per *run* instead of once
    per (receiver, arrival).  The table pins the singleton entries, so the
    ids stay stable.  :meth:`resolve` also keys a valid Byzantine entry of
    exact types by its ``id`` and pins it in ``pinned``, so an entry object
    broadcast to many receivers is parsed once.  Byzantine entries that are
    not type-pure are parsed directly on every arrival (raising like the
    reference for unhashable containers) and only interned when valid.

    Each valid record gets a run-wide record id on registration: ``rid`` is
    its index in ``records`` and ``rbit`` is ``1 << rid``, so views keep
    seen claims and pending deltas as record-id masks.  Every vertex id the
    run mentions gets one run-wide slot (``slot_of`` / ``ids``, with its
    payload bit cost in ``vertex_bits``), and each valid record gets its
    geometry on registration: ``grev[j]`` accumulates the bits of every node
    with *some* valid claim naming slot ``j``, ``claimed`` marks the nodes
    with a valid claim, and ``conflicted`` the nodes the run has seen two
    different valid claims for.  ``first[j]`` is the first valid record
    registered for the node in slot ``j`` and ``cmask[j]`` its neighbor
    mask; ``max_size`` is the largest edge count of any valid record.
    ``asym[j] == grev[j] & ~cmask[j]`` holds the claimers of slot ``j``
    that its first claim does not name back (all of ``grev[j]`` while the
    node has no valid claim), and ``asym_slots`` marks the slots where it
    is non-zero; both are kept up to date on every registration.  Honest
    claims are symmetric, so ``asym`` is non-zero only around Byzantine
    and fake vertices.  For a node outside ``conflicted`` the one claim a
    view can settle is ``first`` of its slot, the one ``grev`` recorded,
    so views read their adjacency off ``cmask``, ``asym`` and ``grev`` and
    only treat conflicted nodes claim by claim (see
    :meth:`LocalView._derive_layers`).

    Per-slot and per-record lists (``grev``, ``cmask``, ``asym``,
    ``vertex_bits``, ``costs``, ``entries``, ``ids``, ``records``) are
    read over a mask with :meth:`select`, which yields the values at the
    mask's set bits without listing the positions first.

    ``cmask[j]`` is written once, at slot ``j``'s first valid claim, so the
    OR of ``cmask`` over a mask of claimed slots never changes again:
    :meth:`claims_union` memoizes it for the run in ``unions``.  A view's
    merge computes it for the nodes it just settled, and the view's next
    BFS step over that same newest ring reads it back.
    """

    __slots__ = (
        "by_id", "by_value", "records", "slot_of", "ids", "vertex_bits", "grev",
        "first", "cmask", "asym", "asym_slots", "claimed", "conflicted", "max_size",
        "positions", "pinned", "entries", "costs", "unions",
    )

    def __init__(self) -> None:
        self.by_id: Dict[int, _ClaimRecord] = {}
        self.by_value: Dict[Tuple[int, Tuple[int, ...]], _ClaimRecord] = {}
        self.records: List[_ClaimRecord] = []
        self.slot_of: Dict[int, int] = {}
        self.ids: List[int] = []
        self.vertex_bits: List[int] = []
        self.grev: List[int] = []
        self.first: List[Optional[_ClaimRecord]] = []
        self.cmask: List[int] = []
        self.asym: List[int] = []
        self.asym_slots = 0
        self.claimed = 0
        self.conflicted = 0
        self.max_size = 0
        # ``positions[i] == i`` for every slot and record id allocated so
        # far, so ``bits`` selects shared int objects instead of counting
        # (which allocates an int object per position above 256).
        self.positions: List[int] = []
        # Byzantine entry objects keyed in ``by_id``: pinned so their ids
        # are never reused by another object.
        self.pinned: List[ClaimEntry] = []
        # Per-record-id copies of what a delta message reads off a record:
        # its entry and its accounting packed as ``bits | num_ids << 32``
        # (a delta's bits stay far below 2**32, so one sum of packed costs
        # adds both fields).
        self.entries: List[ClaimEntry] = []
        self.costs: List[int] = []
        # ``claims_union`` results by slot mask (see the class docstring).
        self.unions: Dict[int, int] = {}

    def select(self, values: Sequence, mask: int) -> Iterable:
        """``values[i]`` for every set bit ``i`` of ``mask``, lowest first.

        ``values`` is a per-slot or per-record-id list at least as long as
        ``mask``'s highest bit.  A sparse mask (under one set bit in ten
        positions) is peeled one top bit at a time; any other is selected
        by one C-level ``compress`` of ``values`` by the mask's binary
        digits, without materializing the positions.
        """
        if mask.bit_count() * 10 < mask.bit_length():
            found = []
            while mask:
                top = mask.bit_length() - 1
                found.append(values[top])
                mask ^= 1 << top
            found.reverse()
            return found
        return compress(values, bin(mask)[:1:-1].encode().translate(_BIT_DIGITS))

    def bits(self, mask: int) -> Iterable[int]:
        """Positions of the set bits of a slot or record-id ``mask``, lowest
        first."""
        return self.select(self.positions, mask)

    def claims_union(self, mask: int) -> int:
        """OR of ``cmask`` over the slots of ``mask``, memoized for the run.

        Every slot of ``mask`` must already hold a valid claim (callers pass
        settled or claimed slots), so the result can never change.
        """
        union = self.unions.get(mask)
        if union is None:
            union = self.unions[mask] = reduce(or_, self.select(self.cmask, mask), 0)
        return union

    def slot(self, node_id: int) -> int:
        """Run-wide slot of ``node_id``, allocating one on first sight."""
        slot = self.slot_of.get(node_id)
        if slot is None:
            slot = len(self.ids)
            if slot == len(self.positions):
                self.positions.append(slot)
            self.slot_of[node_id] = slot
            self.ids.append(node_id)
            self.grev.append(0)
            self.first.append(None)
            self.cmask.append(0)
            self.asym.append(0)
            # The id's ``estimate_payload_bits`` cost inside a vertex tuple.
            b = node_id.bit_length()
            self.vertex_bits.append((b if b else 1) + 2)
        return slot

    def intern(self, node_id: int, edge_ids: Iterable[int]) -> _ClaimRecord:
        """Record for a claim given by hashable components (build on miss)."""
        key = (node_id, tuple(edge_ids))
        record = self.by_value.get(key)
        if record is None:
            record = self._register(_ClaimRecord(node_id, key[1]))
            self.by_value[key] = record
        return record

    def resolve(self, entry) -> _ClaimRecord:
        """Record for one payload entry that missed the identity table.

        A valid entry made of exact types (a ``tuple`` of an ``int`` id and
        a ``tuple`` of ``int`` edge ids) is also keyed in ``by_id`` and
        pinned, so a Byzantine entry object broadcast to many receivers is
        parsed once, not once per receiver.  Any other entry (a list, a
        tuple subclass, a float id) is parsed on every arrival.
        """
        node_id, edge_ids = entry
        # Only *type-pure* entries (int id, tuple of ints) may touch the
        # value-keyed table: numerically equal but differently typed claims
        # (float ids) hash like the int claim and would alias its record,
        # dodging the malformed-payload check.
        if (
            isinstance(node_id, int)
            and type(edge_ids) is tuple
            and all(map(int.__instancecheck__, edge_ids))
        ):
            record = self.by_value.get(entry)
            if record is None:
                record = self._register(_ClaimRecord(node_id, edge_ids))
                self.by_value[entry] = record
            if (
                record.valid
                and type(entry) is tuple
                and type(node_id) is int
                and all(type(v) is int for v in edge_ids)
            ):
                self.by_id[id(entry)] = record
                self.pinned.append(entry)
            return record
        return self._register(_ClaimRecord(node_id, edge_ids))

    def _register(self, record: _ClaimRecord) -> _ClaimRecord:
        """The canonical record of ``record``'s value, placing it if new."""
        if not record.valid:
            return record
        existing = self.by_value.get(record.entry)
        if existing is not None:
            return existing
        self.by_value[record.entry] = record
        self.by_id[id(record.entry)] = record
        record.rid = len(self.records)
        record.rbit = 1 << record.rid
        if record.rid == len(self.positions):
            self.positions.append(record.rid)
        self.records.append(record)
        place = self.slot
        slot = place(record.node_id)
        bit = 1 << slot
        grev = self.grev
        cmask = self.cmask
        asym = self.asym
        mask = 0
        for v in record.canonical:
            j = place(v)
            mask |= 1 << j
            grev[j] |= bit
            if not cmask[j] & bit:
                # ``j``'s first claim (if any yet) does not name this node.
                asym[j] |= bit
                self.asym_slots |= 1 << j
        record.slot = slot
        record.bit = bit
        record.mask = mask
        record.vmask = bit | mask
        self.entries.append(record.entry)
        self.costs.append(record.bits | record.num_ids << 32)
        if self.claimed & bit:
            self.conflicted |= bit
        else:
            self.claimed |= bit
            self.first[slot] = record
            cmask[slot] = mask
            lone = grev[slot] & ~mask
            asym[slot] = lone
            if lone:
                self.asym_slots |= bit
            else:
                self.asym_slots &= ~bit
        if record.size > self.max_size:
            self.max_size = record.size
        return record


class LocalView:
    """A node's evolving approximation ``B̂(u, i)`` of the network.

    The view stores only what it has been told, as masks over the run's
    shared spaces: the ``known`` vertex slots, the record ids of the claim
    values it has ``seen``, and the ``settled`` slots whose complete
    incident-edge claim it has accepted.  A settled slot holds the run's
    ``first`` record for its node unless an override dict names another
    shared :class:`_ClaimRecord`; only nodes with conflicting claims in the
    run can have an override, so on a run without them the dict stays
    empty and settling a claim is a mask operation.  :meth:`_record`
    resolves a slot for every reader.  Its pending delta is four more
    masks: ``delta_records`` (record ids) and ``delta_vertices`` (vertex
    slots) hold what the view learned and its owner has not broadcast yet,
    and ``delta_nodes`` and ``delta_span`` carry the OR of the node bits
    and of the vertex masks of the ``delta_records`` claims, so the owner
    broadcasts without walking its records.  Every step that adds a
    record to ``delta_records`` adds to those two as well: :meth:`integrate` (the mask-only merge takes
    the newly settled nodes off the payload masks and their claims' union
    from :meth:`ClaimInterner.claims_union`), :meth:`rebroadcast` and
    :meth:`pend_claim`.  The owner takes the four masks when it broadcasts.
    They start as ``B̂(u, 1)``: the owner's own claim and its neighbors.

    Everything Algorithm 1 checks is derived from them lazily, once per
    change and only when a query reads it, in two independent passes: the
    BFS layers (:meth:`_derive_layers`) and the interior with its
    out-boundary (:meth:`_derive_interior`).  :meth:`expansion_check_candidates`
    yields the layer prefixes first and runs the interior pass only when
    iterated past them; a skipped interior pass costs nothing later, since
    the carried interior only depends on the settled claims.  Both passes
    read the symmetric adjacency off the run's masks: a settled vertex's
    claim from ``cmask`` unless the node has conflicting claims, the
    settled claimers of a vertex from ``asym`` for a settled vertex and
    ``grev`` otherwise, plus an exact pass over conflicted settled
    claimers.  The interior grows by a reverse-mask pass over the
    unsettled vertices.  Layer and boundary sizes are popcounts.  The
    dict/set views (``vertices``, ``adjacency()``, ``layer_prefixes()``,
    ``interior_set()``, ``edge_sets``) are built on demand for tests and
    the exhaustive check;
    ``tests/local_view_reference.py``'s ``SetBasedLocalView`` is the
    independent set-based implementation they are tested against.
    """

    def __init__(
        self,
        own_id: int,
        neighbor_ids: Iterable[int],
        *,
        interner: Optional[ClaimInterner] = None,
    ) -> None:
        self.own_id = own_id
        interner = interner if interner is not None else ClaimInterner()
        self._interner = interner
        own = interner.intern(own_id, tuple(sorted(frozenset(neighbor_ids))))
        self._own_slot = own.slot
        self._own_bit = own.bit
        self._own_rbit = own.rbit
        self._known = own.vmask
        # Settled slots, and the settled record of each of them whose record
        # is not the interner's ``first`` for the slot (see ``_record``).
        self._settled = 0
        self._rec: Dict[int, _ClaimRecord] = {}
        self._settle(own)
        # Record ids of the claims already integrated (superseded values
        # stay in: claim integration is monotone per value, see integrate).
        # Every settled claim is seen except the own claim until it first
        # arrives, which the mask-only merge relies on.
        self._seen = 0
        # The pending delta starts as B̂(u, 1): the own claim and the
        # neighbor vertices (Line 1 of Algorithm 1).
        self.delta_records = own.rbit
        self.delta_vertices = own.mask
        self.delta_nodes = own.bit
        self.delta_span = own.vmask
        # Bumped whenever the view changes; the BFS layers and the interior
        # are each tagged with the epoch they were derived at.
        self._epoch = 1
        self._layers_epoch = 0
        self._interior_epoch = 0
        self._layers: List[int] = []
        # Interior mask and the union of its members' claim masks.  Both
        # only grow while claims are only ever added, so they carry over
        # between derivations until a claim changes or is dropped.
        self._interior = 0
        self._interior_claims = 0
        self._interior_out = 0

    # -- mutation ------------------------------------------------------- #
    def integrate(
        self,
        reported_edges: Sequence[ClaimEntry] = (),
        reported_vertices: Sequence[int] = (),
        *,
        max_degree: int,
        allow_updates: bool = False,
        inbox: Sequence[TopologyDelta] = (),
    ) -> Tuple[bool, int]:
        """Merge received topology information.

        Integrates the payloads of ``inbox`` in arrival order, then the one
        payload ``(reported_edges, reported_vertices)`` if it is not empty.
        Returns ``(inconsistent, added)``, where ``added`` is the number of
        vertices this call learned.  The claims it settled and the vertices
        it learned go into the pending delta (``delta_records``,
        ``delta_nodes``, ``delta_span`` and ``delta_vertices``); no list of
        them is built.  Malformed claims
        (non-int ids, a self-loop, more than ``max_degree`` edges) and
        non-int vertex ids are flagged inconsistent and never integrated.

        A valid claim conflicting with the settled one for the same node is
        flagged inconsistent (Line 18 of Algorithm 1) unless
        ``allow_updates=True`` (dynamic-topology runs), where it replaces the
        settled claim.  Integration is monotone per claim value: each value
        is integrated at most once per view and a superseded value stays
        seen, so stale echoes of an old claim can never flip a view back.
        A node whose claim must return to an earlier value is re-spawned
        (see the engine's join path) or set with :meth:`update_claim`.

        Consecutive honest :class:`_Delta` payloads are merged by their
        masks: only the claims of ``records & ~seen`` are new, and they are
        listed in record-id and slot order.  That is exact because claims
        for different nodes do not interact.  When none of the merged
        claims is for a node the run has two valid claims for, and no valid
        claim of the run exceeds ``max_degree``, every new claim settles
        and the merge is a handful of mask operations.  Otherwise the new
        claims are sorted out one by one, and when they hold two unseen
        claims for one node the outcome depends on arrival order (the last
        one wins in dynamic runs), so those payloads take the per-entry
        path in arrival order instead.  Every other payload (a Byzantine
        node's tuple, or the positional one) always takes the per-entry
        path, in order: an entry resolves to its shared record by identity
        or by value.  A raising entry (unhashable edge container)
        propagates, keeping every claim integrated before it, like the
        reference implementation.
        """
        start = self._known
        inconsistent = False
        payloads = inbox
        if reported_edges or reported_vertices:
            payloads = (*inbox, (reported_edges, reported_vertices))
        for kind, run in groupby(payloads, type):
            if kind is _Delta:
                inconsistent |= self._merge_deltas(list(run), max_degree, allow_updates)
                continue
            for entries, vertices in run:
                inconsistent |= self._integrate_entries(
                    entries, vertices, max_degree, allow_updates
                )
        # Known vertices are never forgotten, so the new ones are the XOR.
        return inconsistent, (self._known ^ start).bit_count()

    def _merge_deltas(
        self, deltas: List[_Delta], max_degree: int, allow_updates: bool
    ) -> bool:
        """Integrate honest delta payloads by their OR-ed masks."""
        records = reduce(or_, map(_RECORDS, deltas))
        slots = reduce(or_, map(_SLOTS, deltas))
        nodes = reduce(or_, map(_NODES, deltas))
        span = reduce(or_, map(_SPAN, deltas))
        interner = self._interner
        new = records & ~self._seen
        if nodes & interner.conflicted or interner.max_size > max_degree:
            return self._merge_claims(deltas, new, slots, max_degree, allow_updates)
        # Every claim here is its node's only valid claim in the run and
        # fits the degree bound, so each new one settles: a node it claims
        # for is either unsettled or holds this very claim (only the own
        # claim is settled before it is seen).  A seen claim is settled
        # and its vertices are known, so the payloads' ``nodes`` and
        # ``span`` may cover seen claims too.  The nodes settled here are
        # exactly those of the fresh claims, and each of those claims is
        # its node's ``first``, so their vertex masks OR to the nodes and
        # the nodes' claim union.
        fresh = new
        if new & self._own_rbit and self._settled & self._own_bit:
            fresh &= ~self._own_rbit
        grown = span & ~self._known
        self._seen |= new
        if not (fresh or grown):
            return False
        if fresh:
            settling = nodes & ~self._settled
            self._settled |= nodes
            self.delta_records |= fresh
            self.delta_nodes |= settling
            self.delta_span |= settling | interner.claims_union(settling)
        self._known |= grown
        self.delta_vertices |= grown
        self._epoch += 1
        return False

    def _merge_claims(
        self,
        deltas: List[_Delta],
        new: int,
        slots: int,
        max_degree: int,
        allow_updates: bool,
    ) -> bool:
        """Integrate honest delta payloads claim by claim (``new`` unseen)."""
        claims = list(self._interner.select(self._interner.records, new))
        claim_slots = list(map(_SLOT, claims))
        if len(set(claim_slots)) < len(claim_slots):
            # Two unseen claims for one node: arrival order decides.
            inconsistent = False
            for entries, vertices in deltas:
                inconsistent |= self._integrate_entries(
                    entries, vertices, max_degree, allow_updates
                )
            return inconsistent
        record_of = self._record
        inconsistent = updated = False
        fresh = new
        kept = []
        for record in claims:
            current = record_of(record.slot)
            if record.size > max_degree or (
                current is not None and current is not record and not allow_updates
            ):
                inconsistent = True
                new &= ~record.rbit
                fresh &= ~record.rbit
            elif current is record:
                fresh &= ~record.rbit
            else:
                updated = updated or current is not None
                self._settle(record)
                kept.append(record)
        span = reduce(or_, map(_VMASK, kept), 0)
        grown = (span | slots) & ~self._known
        self._seen |= new
        self._known |= grown
        self.delta_records |= fresh
        self.delta_nodes |= reduce(or_, map(_BIT, kept), 0)
        self.delta_span |= span
        self.delta_vertices |= grown
        self._changed(updated, bool(kept) or bool(grown))
        return inconsistent

    def _integrate_entries(
        self,
        reported_edges: Sequence[ClaimEntry],
        reported_vertices: Sequence[int],
        max_degree: int,
        allow_updates: bool,
    ) -> bool:
        """Integrate one payload entry by entry, in arrival order."""
        interner = self._interner
        by_id = interner.by_id
        record_of = self._record
        seen = self._seen
        known = start = self._known
        inconsistent = updated = False
        fresh = nodes = span = 0
        try:
            for entry in reported_edges:
                # Honest forwarders re-broadcast the interned singleton
                # entries, so they resolve by identity.
                record = by_id.get(id(entry))
                if record is None:
                    record = interner.resolve(entry)
                if not record.valid:
                    inconsistent = True
                    continue
                if seen & record.rbit:
                    continue
                if record.size > max_degree:
                    inconsistent = True
                    continue
                slot = record.slot
                current = record_of(slot)
                if current is not None and current is not record:
                    if not allow_updates:
                        inconsistent = True
                        continue
                    updated = True
                seen |= record.rbit
                if current is record:
                    continue
                self._settle(record)
                fresh |= record.rbit
                nodes |= record.bit
                span |= record.vmask
                known |= record.vmask
            for node_id in reported_vertices:
                if not isinstance(node_id, int):
                    inconsistent = True
                    continue
                known |= 1 << interner.slot(node_id)
        finally:
            # A raising entry keeps every claim integrated before it.
            self._seen = seen
            self._known = known
            self.delta_records |= fresh
            self.delta_nodes |= nodes
            self.delta_span |= span
            self.delta_vertices |= known & ~start
            self._changed(updated, bool(fresh) or known != start)
        return inconsistent

    def _record(self, slot: Optional[int]) -> Optional[_ClaimRecord]:
        """The claim settled for ``slot`` (``None`` if the slot is unsettled)."""
        if slot is None or not self._settled >> slot & 1:
            return None
        return self._rec.get(slot) or self._interner.first[slot]

    def _settle(self, record: _ClaimRecord) -> None:
        """Make ``record`` its node's settled claim (the seen mask is the
        caller's)."""
        slot = record.slot
        if record is self._interner.first[slot]:
            self._rec.pop(slot, None)
        else:
            self._rec[slot] = record
        self._settled |= record.bit

    def _settled_records(self) -> List[_ClaimRecord]:
        """The settled claims, the own node's first, then in slot order."""
        records = list(map(self._record, self._interner.bits(self._settled & ~self._own_bit)))
        if self._settled & self._own_bit:
            records.insert(0, self._record(self._own_slot))
        return records

    def _changed(self, updated: bool, added: bool) -> None:
        """Invalidate derived state after claims were replaced or added."""
        if updated:
            self._claims_changed()
        elif added:
            self._epoch += 1

    def _claims_changed(self) -> None:
        """A settled claim changed or was dropped: the interior may shrink."""
        self._interior = self._interior_claims = 0
        self._epoch += 1

    def _put_claim(self, record: _ClaimRecord) -> None:
        """Force ``record`` as its node's settled claim (the dynamic ops)."""
        self._known |= record.vmask
        self._settle(record)
        self._seen |= record.rbit

    def rebroadcast(self) -> None:
        """Put the whole view into the pending delta (a bootstrap dump)."""
        records = self._settled_records()
        self.delta_records |= reduce(or_, map(_RBIT, records), 0)
        self.delta_nodes |= self._settled
        self.delta_span |= reduce(or_, map(_VMASK, records), 0)
        self.delta_vertices |= self._known

    def pend_claim(self, record: _ClaimRecord) -> None:
        """Put one claim into the pending delta (a re-announcement)."""
        self.delta_records |= record.rbit
        self.delta_nodes |= record.bit
        self.delta_span |= record.vmask

    def delete_edge(self, a: int, b: int) -> bool:
        """Remove edge ``{a, b}`` from both endpoints' settled claims.

        Called when the owner *knows* the edge is gone (an engine-level
        topology change on an incident edge).  Each shrunk claim is marked
        seen, so a later announcement of the same shrunk set deduplicates;
        the old full claims also stay seen (stale echoes of the pre-deletion
        claims are ignored -- see :meth:`integrate` on monotone-per-value
        integration).  Returns whether anything changed.
        """
        interner = self._interner
        changed = False
        for x, y in ((a, b), (b, a)):
            record = self._record(interner.slot_of.get(x))
            if record is None or y not in record.edge_set:
                continue
            self._put_claim(interner.intern(x, tuple(sorted(record.edge_set - {y}))))
            changed = True
        if changed:
            self._claims_changed()
        return changed

    def retract_claim(self, node_id: int) -> bool:
        """Unsettle ``node_id`` entirely: drop its claim and *unsee* it.

        Unlike an update, a retraction re-opens the slot -- a later
        announcement of the exact retracted value settles again.  The vertex
        itself stays known (vertices are never forgotten).  Returns whether
        a settled claim was dropped.
        """
        record = self._record(self._interner.slot_of.get(node_id))
        if record is None:
            return False
        self._rec.pop(record.slot, None)
        self._seen &= ~record.rbit
        self._settled &= ~record.bit
        self._claims_changed()
        return True

    def update_claim(self, node_id: int, edge_ids: Iterable[int]) -> bool:
        """Force-settle ``node_id``'s claim to ``edge_ids``.

        The owner's own claim must track engine-level topology changes even
        when the target value was seen before (e.g. an edge removed and later
        restored), so this bypasses the seen mask entirely.  Returns whether
        the settled claim changed.
        """
        record = self._interner.intern(node_id, tuple(sorted(edge_ids)))
        if self._record(record.slot) is record:
            self._seen |= record.rbit
            return False
        self._put_claim(record)
        self._claims_changed()
        return True

    def settled_entries(self) -> List[ClaimEntry]:
        """Interned payload entries of every settled claim, the own one first."""
        return list(map(_ENTRY, self._settled_records()))

    # -- derived structure ---------------------------------------------- #
    def _mask_ids(self, mask: int) -> List[int]:
        """Materialize the node ids of the set bits of ``mask``."""
        return list(self._interner.select(self._interner.ids, mask))

    def _conflicted_claims(self) -> List[_ClaimRecord]:
        """Settled claims of the nodes the run has seen conflicting claims for."""
        mask = self._interner.conflicted & self._settled
        if not mask:
            return []
        return list(map(self._record, self._interner.bits(mask)))

    def _derive_layers(self) -> None:
        """Recompute the BFS layers from the owner if the view changed.

        A vertex's neighbors in the view are its settled claim plus the
        settled nodes claiming it.  For a settled *plain* vertex ``j`` (its
        node made one valid claim in the run) the settled plain claimers
        are ``grev[j] & plain``, and ``grev[j] & ~cmask[j]`` is the run's
        ``asym[j]``, so ``cmask[j] | (grev[j] & plain) == cmask[j] |
        (asym[j] & plain)``: a BFS layer ORs ``cmask`` over its plain
        slots, ``asym`` over those of them in ``asym_slots`` and ``grev``
        over the rest (unsettled or conflicted).  On a run whose claims are
        all symmetric that is one lookup per settled slot.
        """
        if self._layers_epoch == self._epoch:
            return
        interner = self._interner
        grev = interner.grev
        claims_union = interner.claims_union
        asym = interner.asym
        asym_slots = interner.asym_slots
        select = interner.select
        conflicted = self._conflicted_claims()
        # Settled nodes whose only claim in the run is the one settled here:
        # ``cmask`` holds that claim, and ``grev`` names exactly those of
        # them that claim a given vertex.
        plain = self._settled & ~interner.conflicted
        # BFS from the owner: a frontier vertex reaches its own claim's
        # neighbors and every settled node claiming it.  Every vertex of a
        # settled claim is known, so the search ends once it has visited
        # every known vertex.
        known = self._known
        visited = frontier = self._own_bit
        layers = [frontier]
        while visited != known:
            own = frontier & plain
            rest = frontier ^ own
            reach = 0
            if rest:
                reach = reduce(or_, select(grev, rest))
            lone = own & asym_slots
            if lone:
                reach = reduce(or_, select(asym, lone), reach)
            reach &= plain
            if own:
                reach |= claims_union(own)
            for record in conflicted:
                if record.bit & frontier:
                    reach |= record.mask
                if record.mask & frontier:
                    reach |= record.bit
            frontier = reach & ~visited
            if not frontier:
                break
            visited |= frontier
            layers.append(frontier)
        self._layers = layers
        self._layers_epoch = self._epoch

    def _derive_interior(self) -> None:
        """Grow the interior and recompute its out-boundary if the view changed.

        The interior only grows while claims are only added, so a pass
        starts from the carried interior and may be skipped for any number
        of changes: membership depends only on the settled claims.  A plain
        candidate for the interior is blocked iff it claims an unsettled
        vertex, i.e. iff it is in ``grev`` of one, so the blocked
        candidates are one OR over the unsettled slots.  A blocked node is
        in the out-boundary iff it claims an interior vertex: either that
        vertex's claim names it back (then it is in ``interior_claims``) or
        it is in ``asym`` of a plain interior vertex or ``grev`` of a
        conflicted one.
        """
        if self._interior_epoch == self._epoch:
            return
        interner = self._interner
        grev = interner.grev
        asym = interner.asym
        asym_slots = interner.asym_slots
        select = interner.select
        settled = self._settled
        conflicted = self._conflicted_claims()
        plain = settled & ~interner.conflicted
        # Interior: settled vertices whose claim is all settled (claimed
        # vertices are known).  Its out-boundary is settled too: the claim
        # neighbors of interior vertices, plus settled vertices claiming an
        # interior vertex.
        interior = self._interior
        interior_claims = self._interior_claims
        unsettled = self._known & ~settled
        candidates = settled & ~interior
        ready = candidates & plain
        blocked = 0
        if ready and unsettled:
            blocked = reduce(or_, select(grev, unsettled)) & ready
            ready &= ~blocked
        if ready:
            interior |= ready
            interior_claims |= interner.claims_union(ready)
        pending: List[_ClaimRecord] = []
        for record in conflicted:
            if not record.bit & candidates:
                continue
            if record.mask & unsettled:
                pending.append(record)
            else:
                interior |= record.bit
                interior_claims |= record.mask
        out = interior_claims & ~interior
        waiting = blocked & ~out
        if waiting:
            claimers = 0
            lone = interior & asym_slots
            if lone:
                claimers = reduce(or_, select(asym, lone))
            odd = interior & interner.conflicted
            if odd:
                claimers = reduce(or_, select(grev, odd), claimers)
            out |= waiting & claimers
        for record in pending:
            if record.mask & interior:
                out |= record.bit
        self._interior = interior
        self._interior_claims = interior_claims
        self._interior_out = out
        self._interior_epoch = self._epoch

    # -- structure queries ---------------------------------------------- #
    @property
    def vertices(self) -> FrozenSet[int]:
        """All known vertex ids (a fresh frozenset per call)."""
        return frozenset(self._mask_ids(self._known))

    @property
    def edge_sets(self) -> Dict[int, FrozenSet[int]]:
        """Settled incident-edge sets by node id (a fresh dict per call)."""
        return {record.node_id: record.edge_set for record in self._settled_records()}

    def adjacency(self) -> Dict[int, Set[int]]:
        """Symmetric adjacency over all known vertices (from known edge sets).

        Built fresh on every call (tests and the exhaustive check only).
        """
        grev = self._interner.grev
        plain = self._settled & ~self._interner.conflicted
        conflicted = self._conflicted_claims()
        ids = self._interner.ids
        adjacency: Dict[int, Set[int]] = {}
        for slot in self._interner.bits(self._known):
            record = self._record(slot)
            mask = (record.mask if record is not None else 0) | (grev[slot] & plain)
            for claimer in conflicted:
                if claimer.mask >> slot & 1:
                    mask |= claimer.bit
            adjacency[ids[slot]] = set(self._mask_ids(mask))
        return adjacency

    def layer_prefixes(self, adj: Optional[Dict[int, Set[int]]] = None) -> List[FrozenSet[int]]:
        """BFS-layer prefixes ``B̂(u, 0) ⊆ B̂(u, 1) ⊆ ...`` from the owner.

        The ``adj`` argument is retained for backwards compatibility and
        ignored (the prefixes always describe this view's own adjacency).
        """
        self._derive_layers()
        prefixes: List[FrozenSet[int]] = []
        running = 0
        for layer in self._layers:
            running |= layer
            prefixes.append(frozenset(self._mask_ids(running)))
        return prefixes

    def layer_sizes(self) -> List[int]:
        """Sizes of the (contiguous, nonempty) BFS layers from the owner."""
        self._derive_layers()
        return list(map(int.bit_count, self._layers))

    def interior_set(self) -> Set[int]:
        """Settled vertices all of whose claimed neighbors are settled.

        Once the honest part of the network has been fully explored, every
        honest vertex is interior, so the interior set contains the honest
        region ``R`` of Lemma 5; its out-boundary is then exactly the layer of
        vertices the adversary is still expanding.
        """
        self._derive_interior()
        return set(self._mask_ids(self._interior))

    def expansion_check_candidates(self) -> Iterator[Tuple[int, int]]:
        """``(|S|, |Out(S)|)`` for every subset the practical check inspects.

        Yields every BFS-layer prefix (whose out-boundary in the view graph
        is exactly the next BFS layer), then the interior set and its
        out-boundary if the interior is not empty.  All counts are
        popcounts of the derived masks.  The interior is derived only when
        the iteration gets past the prefixes, so a caller that stops at the
        first failing prefix never pays for the interior pass.
        """
        sizes = self.layer_sizes()
        prefix = 0
        for size, out_size in zip(sizes, [*sizes[1:], 0]):
            prefix += size
            yield prefix, out_size
        self._derive_interior()
        interior = self._interior
        if interior:
            yield interior.bit_count(), self._interior_out.bit_count()

    @staticmethod
    def expansion_of(adj: Dict[int, Set[int]], subset: Set[int]) -> float:
        """``|Out(S)| / |S|`` inside the view graph."""
        if not subset:
            return math.inf
        out: Set[int] = set()
        for u in subset:
            for v in adj.get(u, ()):
                if v not in subset:
                    out.add(v)
        return len(out) / len(subset)

    def size(self) -> int:
        """Number of known vertices."""
        return self._known.bit_count()


class LocalCountingProtocol(Protocol):
    """Per-node implementation of Algorithm 1."""

    def __init__(
        self,
        ctx: NodeContext,
        params: LocalParameters,
        *,
        interner: Optional[ClaimInterner] = None,
        dynamic: bool = False,
    ) -> None:
        self.params = params
        self._interner = interner if interner is not None else ClaimInterner()
        self.view = LocalView(
            ctx.node_id, ctx.neighbor_ids.values(), interner=self._interner
        )
        # Dynamic-topology mode (churn runs): claims may be re-announced, and
        # the mute check runs against the neighbors known to have been
        # present last round (a just-added neighbor cannot have spoken yet).
        self._dynamic = dynamic
        if dynamic:
            self._known_neighbors: Set[int] = set(ctx.neighbors)
            self._pending_neighbors: List[int] = []
        self._decided = False
        self._estimate: Optional[float] = None
        self._decision_round: Optional[int] = None

    # -- Protocol interface --------------------------------------------- #
    @property
    def decided(self) -> bool:
        return self._decided

    @property
    def estimate(self) -> Optional[float]:
        return self._estimate

    @property
    def decision_round(self) -> Optional[int]:
        return self._decision_round

    @property
    def halted(self) -> bool:
        # A decided node terminates and stops broadcasting; its neighbors
        # interpret the silence as muteness and decide themselves (Line 5).
        return self._decided

    # -- helpers ---------------------------------------------------------- #
    def _delta_message(self) -> Message:
        """Broadcast the view's pending delta and clear it.

        The payload is the view's four pending masks (its ``span`` adds the
        vertex slots to the claims' span); the ``(entries, vertex_ids)``
        tuple is built only if something reads it.  ``size_bits`` and
        ``num_ids`` follow the documented accounting
        (``estimate_payload_bits`` over that tuple: each integer costs
        ``max(1, bit_length)`` bits, containers add 2 framing bits per
        element), summed from the run's per-record and per-slot costs
        instead of a payload walk; ``tests/test_perf_equivalence.py`` locks
        the equivalence down.
        """
        view = self.view
        interner = self._interner
        records, slots = view.delta_records, view.delta_vertices
        payload = _Delta(interner, records, slots, view.delta_nodes, view.delta_span | slots)
        view.delta_records = view.delta_vertices = view.delta_nodes = view.delta_span = 0
        packed = sum(interner.select(interner.costs, records))
        edge_sum = packed & 0xFFFFFFFF
        vertex_sum = sum(interner.select(interner.vertex_bits, slots))
        size_bits = (edge_sum if edge_sum else 1) + 2 + (vertex_sum if vertex_sum else 1) + 2
        num_ids = (packed >> 32) + slots.bit_count()
        return Message(kind="topology", payload=payload, size_bits=size_bits, num_ids=num_ids)

    def _decide(self, round_number: int) -> None:
        self._decided = True
        self._estimate = float(round_number)
        self._decision_round = round_number

    def _expansion_check_fails(self) -> bool:
        """Lines 9-13: does some checked subset of the view fail to expand?"""
        view = self.view
        total = view.size()
        alpha_prime = self.params.alpha_prime

        # Optional exhaustive check for tiny views (test cross-validation):
        # materializes the actual subsets, so it takes the slow path.
        if self.params.exhaustive_subset_check and total <= 16:
            adj = view.adjacency()
            candidates: List[Set[int]] = list(view.layer_prefixes())
            interior = view.interior_set()
            if interior:
                candidates.append(interior)
            vertices = list(adj.keys())
            for size in range(1, total):
                for combo in itertools.combinations(vertices, size):
                    candidates.append(set(combo))
            for subset in candidates:
                if not subset or len(subset) >= total:
                    continue
                if view.expansion_of(adj, subset) < alpha_prime:
                    return True
            return False
        # (1) BFS-layer prefixes (the sets of Lemma 3), then (2) the interior
        # set (the practical stand-in for Lemma 5's R), read off the view's
        # masks: ``|Out(S)|/|S|`` without touching a single edge.  The
        # first failure decides, so the interior is derived only when every
        # prefix expands.
        for size, out_size in view.expansion_check_candidates():
            if size < total and out_size / size < alpha_prime:
                return True
        return False

    # -- engine callbacks ------------------------------------------------ #
    def on_start(self, ctx: NodeContext) -> Outbox:
        return Broadcast(self._delta_message(), ctx.neighbors)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Outbox:
        if self._decided:
            return {}
        round_number = ctx.round

        # Lines 5-7 first: a malformed message or a mute neighbor decides
        # the round whatever the view would learn, and a decided node
        # never reads its view again, so neither case integrates.
        speakers = set()
        payloads: List[TopologyDelta] = []
        for message in inbox:
            payload = message.payload
            if message.kind != "topology" or (
                type(payload) is not _Delta
                and (
                    not isinstance(payload, tuple)
                    or len(payload) != 2
                    or not isinstance(payload[0], tuple)
                    or not isinstance(payload[1], tuple)
                )
            ):
                # An unexpected kind or payload shape from a neighbor is
                # malformed information: an inconsistency.
                self._decide(round_number)
                return {}
            speakers.add(message.sender)
            payloads.append(payload)
        if self._dynamic:
            known = self._known_neighbors
            mute_neighbor = not speakers.issuperset(known)
            if self._pending_neighbors:
                # Neighbors added by churn this round start counting toward
                # the mute check from the *next* round (their first broadcast
                # is only delivered at the end of this one).
                known.update(self._pending_neighbors)
                self._pending_neighbors.clear()
                known.intersection_update(ctx.neighbors)
        else:
            mute_neighbor = not speakers.issuperset(ctx.neighbors)
        if mute_neighbor:
            self._decide(round_number)
            return {}
        try:
            inconsistent, newly_added = self.view.integrate(
                inbox=payloads,
                max_degree=self.params.max_degree,
                allow_updates=self._dynamic,
            )
        except (TypeError, ValueError):
            # A raising entry leaves the view part-integrated, but the node
            # decides this round, so the view is never read again.
            inconsistent, newly_added = True, 0
        # Line (4) before any derivation: the view stopped growing entirely,
        # Out(B̂(u, i)) = ∅, which forces the decision at diam(G) + 1 in
        # Lemma 5.  Only then Lines 9-13.
        if (
            inconsistent
            or (round_number >= 2 and not newly_added)
            or self._expansion_check_fails()
        ):
            self._decide(round_number)
            return {}
        return Broadcast(self._delta_message(), ctx.neighbors)

    def on_topology_change(
        self,
        ctx: NodeContext,
        added_neighbors: Dict[int, int],
        removed_neighbors: Dict[int, int],
    ) -> None:
        """React to engine-level churn on incident edges (dynamic runs only).

        Removed edges are excised from the view (both endpoints' claims
        shrink); added edges update the own claim and trigger a full-view
        re-broadcast so a (re)joining neighbor can bootstrap -- every other
        receiver deduplicates the dump by record id.
        """
        if self._decided:
            return
        view = self.view
        changed = False
        for idx in removed_neighbors:
            self._known_neighbors.discard(idx)
        for rid in removed_neighbors.values():
            changed = view.delete_edge(ctx.node_id, rid) or changed
        if added_neighbors:
            self._pending_neighbors.extend(added_neighbors)
            view.update_claim(ctx.node_id, ctx.neighbor_ids.values())
            view.rebroadcast()
        elif changed:
            view.pend_claim(self._interner.intern(
                ctx.node_id, tuple(sorted(ctx.neighbor_ids.values()))
            ))


def run_local_counting(
    graph: Graph,
    *,
    byzantine: Iterable[int] = (),
    adversary: Optional[Adversary] = None,
    params: Optional[LocalParameters] = None,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    evaluation_set: Optional[Set[int]] = None,
    churn: Optional[ChurnSchedule] = None,
) -> ProtocolRun:
    """Execute Algorithm 1 on ``graph`` and summarize the outcome.

    Parameters
    ----------
    graph:
        The network topology (honest nodes only ever see their local views).
    byzantine:
        Indices of Byzantine nodes.
    adversary:
        Byzantine behaviour; defaults to silence.
    params:
        Algorithm parameters; defaults to :class:`LocalParameters` with the
        graph's maximum degree as Δ.
    seed:
        Master seed (the algorithm is deterministic; the seed only affects
        adversary randomness).
    max_rounds:
        Safety cap; defaults to ``6·ceil(log2 n) + 20``, far above the
        ``diam(G)+1`` bound of Theorem 1 for the expander workloads.
    evaluation_set:
        Nodes over which the outcome statistics are computed (``None``
        means all honest nodes, an empty set none; experiments pass the
        Lemma 1 ``Good`` set).
    churn:
        Optional mid-run topology schedule.  Enables the protocol's dynamic
        mode (claim updates, churn-aware mute check); ``None`` takes the
        exact static code paths.
    """
    if params is None:
        params = LocalParameters(max_degree=max(2, graph.max_degree()))
    network = Network(graph=graph, byzantine=frozenset(byzantine))
    if max_rounds is None:
        max_rounds = 6 * int(math.ceil(math.log2(max(graph.n, 2)))) + 20

    # One claim interner per run: every view shares the hash-consed claim
    # records, so a claim is parsed once per run instead of once per
    # (receiver, arrival).
    interner = ClaimInterner()
    dynamic = churn is not None and bool(churn)

    def factory(ctx: NodeContext) -> Protocol:
        return LocalCountingProtocol(ctx, params, interner=interner, dynamic=dynamic)

    engine = SynchronousEngine(
        network,
        factory,
        adversary=adversary,
        seed=seed,
        max_rounds=max_rounds,
        churn=churn if dynamic else None,
    )
    result = engine.run()
    return ProtocolRun(
        result=result,
        params=params,
        outcome=CountingOutcome.from_run(result, evaluation_set),
    )
