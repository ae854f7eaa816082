"""The synchronous round engine.

Execution of one round proceeds in the order required by the full-information
adversary model (Section 2):

1. every honest node's protocol is invoked with the messages delivered at the
   end of the previous round and produces its outbox (thereby fixing the
   honest random choices of the round);
2. the adversary observes all honest states and all honest outboxes and then
   produces the Byzantine outboxes;
3. all messages are delivered, each stamped with the true index and ID of the
   adjacent sender (unforgeable edge identity);
4. metrics are updated and the termination condition is evaluated.

The engine is protocol-agnostic: Algorithm 1, Algorithm 2, and every baseline
run on it unchanged.

Hot-path layout
---------------
The run loop is *array-slotted*: protocols and contexts live in dense lists
indexed by node, an **active list** of non-halted nodes shrinks as protocols
halt (halting is permanent -- see :attr:`Protocol.halted` -- so halted nodes
are never re-tested), and decisions are recorded incrementally as each
protocol runs instead of re-scanning every protocol every round.

Delivery has one representation.  ``env[v]`` holds honest sender v's output
of the previous round: one shared, sender-stamped envelope for a
full-neighborhood :class:`Broadcast` (both counting algorithms send nothing
else) or for a dict outbox that gives every neighbor the same one message
(the baselines' ``{v: [message] for v in ctx.neighbors}``), otherwise a
``{target: [envelopes]}`` map.  Byzantine envelopes wait
in per-receiver buckets.  Every inbox, honest or Byzantine, is built by one
helper that walks the receiver's sorted neighbor tuple and then appends its
Byzantine bucket, so messages arrive with honest senders ascending, each
sender's messages in outbox order, then the Byzantine senders.  A
broadcast-only round reads each inbox with one C-speed list comprehension.
Under churn a message crosses only an edge that existed when it was sent
and still exists: a cut edge leaves the walk, and an edge linked by this
round's delta is skipped.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, field
from itertools import chain
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple,
)

from repro.simulator.byzantine import Adversary, AdversaryView, ByzantineOutbox, SilentAdversary
from repro.simulator.churn import ChurnSchedule, TopologyDelta
from repro.simulator.messages import DeliveredMessage, Message
from repro.simulator.metrics import NodeMessageStats, SimulationMetrics
from repro.simulator.network import Network
from repro.simulator.node import Broadcast, NodeContext, Outbox, Protocol
from repro.simulator.rng import split_seed

__all__ = ["SynchronousEngine", "RunResult"]

#: Factory producing a fresh protocol instance for an honest node.
ProtocolFactory = Callable[[NodeContext], Protocol]


def _shared_message(outbox: Mapping[int, List[Message]]) -> Optional[Message]:
    """The one message every target of ``outbox`` gets alone, if any."""
    shared = None
    for msgs in outbox.values():
        if len(msgs) != 1:
            return None
        if shared is None:
            shared = msgs[0]
        elif msgs[0] is not shared:
            return None
    return shared


@dataclass
class RunResult:
    """Outcome of a simulation run.

    :meth:`repro.core.estimate.CountingOutcome.from_run` turns it into the
    decision statistics.  ``departed`` holds the nodes that left via churn and had not rejoined by
    the end of the run.  A departed honest node is *not* halted: its protocol
    entry in ``protocols`` is the state frozen at departure (or, after a
    rejoin, the fresh instance spawned on rejoin).
    """

    network: Network
    rounds_executed: int
    protocols: Dict[int, Protocol]
    metrics: SimulationMetrics
    completed: bool
    departed: FrozenSet[int] = field(default_factory=frozenset)


class SynchronousEngine:
    """Round-synchronous executor for one protocol over one network."""

    def __init__(
        self,
        network: Network,
        protocol_factory: ProtocolFactory,
        *,
        adversary: Optional[Adversary] = None,
        seed: int = 0,
        max_rounds: int = 100_000,
        stop_condition: Optional[Callable[[Dict[int, Protocol], int], bool]] = None,
        churn: Optional[ChurnSchedule] = None,
    ) -> None:
        """Create an engine.

        Parameters
        ----------
        network:
            The network (graph + Byzantine set) to execute on.
        protocol_factory:
            Called once per honest node with that node's :class:`NodeContext`
            to build its protocol instance.
        adversary:
            Byzantine behaviour; defaults to :class:`SilentAdversary`.
        seed:
            Master seed; per-node and adversary randomness is derived from it.
        max_rounds:
            Hard cap on the number of rounds (safety net).
        stop_condition:
            Optional predicate ``(protocols, round) -> bool``; when true the
            run stops.  The default stops when every honest node reports
            ``halted``.
        churn:
            Optional :class:`ChurnSchedule` of mid-run topology deltas.  The
            delta for round ``r`` is applied after the stop check and before
            the honest phase of round ``r``, so protocols see the changed
            topology for the whole round.  ``None`` (and the empty schedule)
            takes the exact static code paths.
        """
        self.network = network
        self.protocol_factory = protocol_factory
        self.adversary = adversary if adversary is not None else SilentAdversary()
        self.seed = seed
        self.max_rounds = max_rounds
        self.stop_condition = stop_condition
        self.churn = churn if churn else None

        graph = network.graph
        adjacency = graph.adjacency
        node_ids = graph.node_ids
        # Unified per-graph neighbor table, built once and shared by the
        # protocol contexts, outbox validation, and the adversary edge
        # filter: ``_neighbors[u]`` is the graph's own sorted neighbor tuple,
        # ``_neighbor_sets[u]`` the matching frozenset, and
        # ``_neighbor_ids[u]`` the neighbor-index -> identifier map.
        # Under churn the outer list is copied so that per-slot rewrites
        # never touch the graph's own adjacency; the static path keeps the
        # shared reference (the table is never written to).
        self._neighbors: List[Tuple[int, ...]] = (
            list(adjacency) if self.churn is not None else adjacency
        )
        self._neighbor_sets: List[FrozenSet[int]] = [
            frozenset(nbrs) for nbrs in adjacency
        ]
        self._neighbor_ids: List[Dict[int, int]] = [
            {v: node_ids[v] for v in nbrs} for nbrs in adjacency
        ]
        self._contexts: Dict[int, NodeContext] = {}
        self._protocols: Dict[int, Protocol] = {}
        for u in network.honest:
            ctx = NodeContext(
                index=u,
                node_id=node_ids[u],
                neighbors=adjacency[u],
                neighbor_ids=self._neighbor_ids[u],
                round=0,
                seed_path=(seed, "node", u),
            )
            self._contexts[u] = ctx
            self._protocols[u] = protocol_factory(ctx)
        self._adversary_rng = random.Random(split_seed(seed, "adversary"))
        self.adversary.setup(graph, network.byzantine, self._adversary_rng)
        self.metrics = SimulationMetrics()

    # ------------------------------------------------------------------ #
    @property
    def protocols(self) -> Dict[int, Protocol]:
        """Live honest protocol objects (read access, also used by adversaries)."""
        return self._protocols

    @property
    def decided_count(self) -> int:
        """Number of honest nodes whose decision has been recorded (O(1)).

        Maintained incrementally as protocols run; stop conditions can test
        "all decided" against ``len(engine.protocols)`` without scanning every
        protocol every round.
        """
        return len(self.metrics.decision_rounds)

    def _validate_outbox(self, sender: int, outbox: Outbox) -> Outbox:
        """Drop messages addressed to non-neighbors (protocol bug guard)."""
        if not outbox:
            return outbox
        valid_targets = self._neighbor_sets[sender]
        if isinstance(outbox, Broadcast):
            # The run loop passes a Broadcast built straight from
            # ``ctx.neighbors`` on unvalidated; any other is filtered here.
            targets = tuple(t for t in outbox.targets if t in valid_targets)
            return Broadcast(outbox.message, targets) if targets else {}
        cleaned: Dict[int, List[Message]] = {}
        for target, msgs in outbox.items():
            if target in valid_targets and msgs:
                cleaned[target] = list(msgs)
        return cleaned

    def run(self, max_rounds: Optional[int] = None) -> RunResult:
        """Execute the protocol until termination and return the result."""
        graph = self.network.graph
        n = graph.n
        node_ids = graph.node_ids
        limit = max_rounds if max_rounds is not None else self.max_rounds
        stop = self.stop_condition
        metrics = self.metrics
        decision_rounds = metrics.decision_rounds
        nbrs = self._neighbors
        protocols_map = self._protocols
        byzantine = self.network.byzantine
        track_adversary = bool(byzantine)

        # Dense per-node slots; the active list holds the non-halted honest
        # nodes in ascending order and shrinks as protocols halt.
        proto_list: List[Optional[Protocol]] = [None] * n
        ctx_list: List[Optional[NodeContext]] = [None] * n
        for u, protocol in protocols_map.items():
            proto_list[u] = protocol
            ctx_list[u] = self._contexts[u]
        active: List[int] = list(protocols_map)

        # Churn state.  ``departed`` holds currently-absent nodes,
        # ``pending_start`` honest joiners awaiting their start callback;
        # both stay empty (and cost nothing) in static runs.
        churn = self.churn
        churn_last = churn.last_round if churn is not None else 0
        departed: Set[int] = set()
        pending_start: Set[int] = set()

        # Honest outboxes as shown to the adversary: one persistent dict in
        # honest-node order whose entries are refreshed for active nodes
        # (halted nodes keep their {} entry); a shallow per-round snapshot is
        # handed to the adversary view.
        adv_outboxes: Dict[int, Outbox] = (
            {u: {} for u in protocols_map} if track_adversary else {}
        )

        # Delivery state of the *previous* round (see the module docstring):
        # ``env[v]`` is honest sender v's stamped output and ``byz_buckets[u]``
        # the Byzantine envelopes for receiver u.  ``linked[u]`` holds the
        # neighbors u gained in this round's churn delta: what they sent last
        # round was not addressed to u.  ``walk`` is set when some ``env``
        # entry is a per-target map or ``linked`` is not empty.
        env: List[object] = [None] * n
        byz_buckets: Dict[int, List[Message]] = {}
        linked: Dict[int, Set[int]] = {}
        walk = False

        def inbox(u: int) -> List[Message]:
            """The messages delivered to ``u`` at the end of the previous round."""
            if walk:
                skip = linked.get(u, ())
                box: List[Message] = []
                for v in nbrs[u]:
                    e = env[v]
                    if e is None or v in skip:
                        continue
                    if type(e) is DeliveredMessage:
                        box.append(e)
                    else:
                        msgs = e.get(u)
                        if msgs:
                            box += msgs
            else:
                box = [e for v in nbrs[u] if (e := env[v]) is not None]
            byz = byz_buckets.get(u)
            if byz:
                box += byz
            return box

        def run_phase(
            round_number: int, nodes: List[int], start: bool
        ) -> Tuple[List[Tuple[int, Outbox]], bool]:
            """Run one honest phase; returns (deliveries, any_halted)."""
            deliveries: List[Tuple[int, Outbox]] = []
            any_halted = False
            for u in nodes:
                protocol = proto_list[u]
                ctx = ctx_list[u]
                ctx.round = round_number
                if start:
                    outbox = protocol.on_start(ctx)
                elif pending_start and u in pending_start:
                    # A node that joined via churn this round runs its start
                    # callback in place of a regular round (it has no inbox
                    # yet); churn-free runs never populate ``pending_start``.
                    pending_start.discard(u)
                    outbox = protocol.on_start(ctx)
                else:
                    outbox = protocol.on_round(ctx, inbox(u))
                # Dispatch without ever calling ``Broadcast.__bool__``: the
                # dominant case is a full-neighborhood Broadcast built from
                # the engine's own neighbor tuple, valid by construction.
                if type(outbox) is Broadcast:
                    targets = outbox.targets
                    if targets is ctx.neighbors:
                        if targets:
                            deliveries.append((u, outbox))
                    else:
                        outbox = self._validate_outbox(u, outbox)
                        if outbox:
                            deliveries.append((u, outbox))
                elif outbox:
                    outbox = self._validate_outbox(u, outbox)
                    if outbox:
                        deliveries.append((u, outbox))
                else:
                    outbox = {}
                if track_adversary:
                    adv_outboxes[u] = outbox
                if u not in decision_rounds and protocol.decided:
                    decision_rounds[u] = round_number
                if protocol.halted:
                    any_halted = True
            return deliveries, any_halted

        def stamp(
            sender: int,
            outbox: Mapping[int, List[Message]],
            buckets: Dict[int, List[Message]],
        ) -> Iterable[List]:
            """Append ``outbox``'s envelopes to ``buckets``, one per target.

            One envelope per distinct outbox message: a message object put
            in several targets' lists is one shared, sender-stamped envelope.
            Returns the ``[envelope, copies]`` pairs for accounting.
            """
            sender_id = node_ids[sender]
            envelopes: Dict[int, List] = {}
            for target, msgs in outbox.items():
                bucket = buckets.get(target)
                if bucket is None:
                    bucket = buckets[target] = []
                for msg in msgs:
                    entry = envelopes.get(id(msg))
                    if entry is None:
                        entry = envelopes[id(msg)] = [
                            DeliveredMessage(msg, sender, sender_id),
                            0,
                        ]
                    entry[1] += 1
                    bucket.append(entry[0])
            return envelopes.values()

        def deliver(
            deliveries: List[Tuple[int, Outbox]], byz_outboxes: ByzantineOutbox
        ) -> None:
            """Stamp, store and account the outboxes of one round.

            A full-neighborhood Broadcast is one shared envelope in ``env``,
            and so is a validated dict outbox over every neighbor (its keys
            are distinct neighbors, so its length says it covers them all)
            that holds one shared message; any other honest outbox becomes
            a per-target map there, and Byzantine outboxes fill
            ``byz_buckets``.  Every envelope is
            accounted once with its delivery count; the metrics totals are
            accumulated locally and flushed once per round.  Delivered
            messages are read-only by contract.
            """
            nonlocal env, byz_buckets, walk
            env = [None] * n
            byz_buckets = {}
            walk = False
            per_node = metrics.per_node
            round_messages = 0
            round_bits = 0
            for u, outbox in chain(deliveries, byz_outboxes.items()):
                if type(outbox) is Broadcast and outbox.targets is nbrs[u]:
                    stamped = env[u] = DeliveredMessage(outbox.message, u, node_ids[u])
                    sent: Iterable = ((stamped, len(outbox.targets)),)
                elif u in byzantine:
                    sent = stamp(u, outbox, byz_buckets)
                elif (
                    type(outbox) is dict
                    and len(outbox) == len(nbrs[u])
                    and (shared := _shared_message(outbox)) is not None
                ):
                    stamped = env[u] = DeliveredMessage(shared, u, node_ids[u])
                    sent = ((stamped, len(outbox)),)
                else:
                    walk = True
                    per_target: Dict[int, List[Message]] = {}
                    env[u] = per_target
                    sent = stamp(u, outbox, per_target)
                for stamped, copies in sent:
                    bits = stamped.size_bits
                    ids = stamped.num_ids
                    round_messages += copies
                    round_bits += bits * copies
                    stats = per_node.get(u)
                    if stats is None:
                        stats = per_node[u] = NodeMessageStats()
                    stats.messages_sent += copies
                    stats.bits_sent += bits * copies
                    stats.ids_sent += ids * copies
                    if bits > stats.max_message_bits:
                        stats.max_message_bits = bits
                    if ids > stats.max_message_ids:
                        stats.max_message_ids = ids
            metrics.total_messages += round_messages
            metrics.total_bits += round_bits
            metrics.messages_per_round[-1] += round_messages

        def adversary_step(round_number: int) -> ByzantineOutbox:
            if not track_adversary:
                return {}
            byz_inboxes = {b: inbox(b) for b in byzantine}
            # Departed nodes are invisible to the adversary: no protocol
            # state, no outbox entry (``adv_outboxes`` already dropped the
            # key at departure).  Static runs never take the filtered branch.
            honest_protocols = protocols_map
            if departed:
                honest_protocols = {
                    u: p for u, p in protocols_map.items() if u not in departed
                }
            view = AdversaryView(
                round=round_number,
                graph=graph,
                byzantine=byzantine,
                honest_protocols=honest_protocols,
                honest_outboxes=dict(adv_outboxes),
                byzantine_inboxes=byz_inboxes,
                rng=self._adversary_rng,
            )
            raw = self.adversary.act(view) or {}
            # Byzantine nodes may only use their own incident edges.
            cleaned: ByzantineOutbox = {}
            neighbor_sets = self._neighbor_sets
            for b, per_target in raw.items():
                if b not in byzantine:
                    continue
                valid_targets = neighbor_sets[b]
                cleaned[b] = {
                    t: list(msgs)
                    for t, msgs in per_target.items()
                    if t in valid_targets and msgs
                }
            return cleaned

        def compact_active(nodes: List[int]) -> List[int]:
            """Drop newly halted nodes; their adversary-visible outbox
            becomes {} from the next round on (they no longer send), exactly
            as when the old engine re-tested every node every round."""
            still_active: List[int] = []
            for u in nodes:
                if proto_list[u].halted:
                    if track_adversary:
                        adv_outboxes[u] = {}
                else:
                    still_active.append(u)
            return still_active

        def apply_delta(round_number: int, delta: TopologyDelta) -> None:
            """Apply one round's topology delta to every shared table.

            Order matters: leaves first (cutting their incident edges),
            then scheduled edge removals, then joins become eligible edge
            endpoints, then edge additions, then fresh protocol slots are
            spawned for honest joiners reading the final neighbor tables.
            A node cannot leave and rejoin within the same delta (joins are
            resolved against the departed set *before* the leaves apply).
            """
            neighbor_sets = self._neighbor_sets
            neighbor_ids = self._neighbor_ids
            neighbors = self._neighbors
            added_map: Dict[int, Dict[int, int]] = {}
            removed_map: Dict[int, Dict[int, int]] = {}
            events = 0

            def check_index(u: int) -> int:
                if not 0 <= u < n:
                    raise ValueError(
                        f"churn delta for round {round_number} references node "
                        f"index {u}, outside the graph's range [0, {n})"
                    )
                return u

            def purge_in_flight(receiver: int, sender: int) -> None:
                # Drop last round's Byzantine envelopes crossing the removed
                # edge.  Honest ones need nothing: ``inbox`` walks the
                # receiver's current neighbor tuple, which no longer holds
                # ``sender``.
                bucket = byz_buckets.get(receiver)
                if bucket:
                    kept = [e for e in bucket if e.sender != sender]
                    if len(kept) != len(bucket):
                        if kept:
                            byz_buckets[receiver] = kept
                        else:
                            del byz_buckets[receiver]

            def cut_edge(a: int, b: int) -> None:
                nonlocal events
                if b not in neighbor_sets[a]:
                    return
                events += 1
                for x, y in ((a, b), (b, a)):
                    neighbor_sets[x] = neighbor_sets[x] - {y}
                    neighbors[x] = tuple(v for v in neighbors[x] if v != y)
                    neighbor_ids[x].pop(y, None)
                    ctx = ctx_list[x]
                    if ctx is not None:
                        ctx.neighbors = neighbors[x]
                    added = added_map.get(x)
                    if not (added and added.pop(y, None) is not None):
                        removed_map.setdefault(x, {})[y] = node_ids[y]
                    purge_in_flight(x, y)

            def link_edge(a: int, b: int) -> None:
                nonlocal events, walk
                if a in departed or b in departed or a == b:
                    return
                if b in neighbor_sets[a]:
                    return
                events += 1
                for x, y in ((a, b), (b, a)):
                    neighbor_sets[x] = neighbor_sets[x] | {y}
                    neighbors[x] = tuple(sorted(neighbor_sets[x]))
                    neighbor_ids[x][y] = node_ids[y]
                    ctx = ctx_list[x]
                    if ctx is not None:
                        ctx.neighbors = neighbors[x]
                    removed = removed_map.get(x)
                    if not (removed and removed.pop(y, None) is not None):
                        added_map.setdefault(x, {})[y] = node_ids[y]
                    linked.setdefault(x, set()).add(y)
                walk = True

            # Joins are resolved before the leaves apply: only a previously
            # departed node may (re)join.
            joining = [
                u
                for u in dict.fromkeys(check_index(u) for u in delta.join_nodes)
                if u in departed
            ]

            for u in delta.leave_nodes:
                check_index(u)
                if u in departed:
                    continue
                for v in tuple(neighbors[u]):
                    cut_edge(u, v)
                departed.add(u)
                events += 1
                added_map.pop(u, None)
                removed_map.pop(u, None)
                if proto_list[u] is not None:
                    try:
                        active.remove(u)
                    except ValueError:
                        pass  # already halted
                    pending_start.discard(u)
                    if track_adversary:
                        # Departed, not halted: the adversary no longer sees
                        # an entry for this node at all (a halted node keeps
                        # its {} entry).
                        adv_outboxes.pop(u, None)
                # Cutting every incident edge above already dropped the
                # node's in-flight messages in both directions.

            for a, b in delta.remove_edges:
                cut_edge(check_index(a), check_index(b))

            for u in joining:
                departed.discard(u)
                events += 1

            for a, b in delta.add_edges:
                link_edge(check_index(a), check_index(b))

            for u in joining:
                if u in byzantine:
                    continue
                ctx = NodeContext(
                    index=u,
                    node_id=node_ids[u],
                    neighbors=neighbors[u],
                    neighbor_ids=neighbor_ids[u],
                    round=round_number,
                    seed_path=(self.seed, "node", u, "join", round_number),
                )
                protocol = self.protocol_factory(ctx)
                ctx_list[u] = ctx
                proto_list[u] = protocol
                self._contexts[u] = ctx
                protocols_map[u] = protocol
                insort(active, u)
                decision_rounds.pop(u, None)
                pending_start.add(u)
                if track_adversary:
                    adv_outboxes[u] = {}
                # Joiners get on_start, not a topology-change notification.
                added_map.pop(u, None)
                removed_map.pop(u, None)

            for u in sorted(set(added_map) | set(removed_map)):
                protocol = proto_list[u]
                if (
                    protocol is None
                    or u in departed
                    or u in pending_start
                    or protocol.halted
                ):
                    continue
                protocol.on_topology_change(
                    ctx_list[u], added_map.get(u, {}), removed_map.get(u, {})
                )

            metrics.record_churn(round_number, events)

        def execute_round(round_number: int, start: bool) -> None:
            """The honest phase, the adversary phase and delivery of one round."""
            nonlocal active
            metrics.start_round()
            deliveries, any_halted = run_phase(round_number, active, start)
            byz_outboxes = adversary_step(round_number)
            if linked:
                linked.clear()
            deliver(deliveries, byz_outboxes)
            if any_halted:
                active = compact_active(active)

        def stopped() -> bool:
            # The default stop waits for any still-scheduled churn: a join
            # can repopulate an empty active list (``churn_last`` is 0 for
            # static runs, leaving the condition unchanged).
            if stop is None:
                return not active and executed >= churn_last
            return stop(protocols_map, executed)

        # Round 0: on_start for every honest node.
        execute_round(0, True)

        # ``executed`` is the last fully executed round (round 0 ran above);
        # the stop condition is always evaluated with it, whether the run ends
        # by stopping early, by exhausting the round budget, or immediately
        # when ``limit == 0``.
        completed = False
        executed = 0
        for round_number in range(1, limit + 1):
            if stopped():
                completed = True
                break
            if churn is not None:
                delta = churn.delta_for_round(round_number)
                if delta is not None:
                    apply_delta(round_number, delta)
            execute_round(round_number, False)
            executed = round_number
        else:
            completed = stopped()

        return RunResult(
            network=self.network,
            rounds_executed=metrics.rounds_executed,
            protocols=protocols_map,
            metrics=metrics,
            completed=completed,
            departed=frozenset(departed),
        )
