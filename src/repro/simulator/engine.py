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

Delivery is *inverted* for the dominant all-broadcast case: instead of
appending one envelope per edge into per-target dict buckets, the engine
stores each sender's single shared envelope in a dense per-sender array and
each receiver materializes its inbox with one pass over its (sorted) neighbor
tuple.  Targeted sends -- Byzantine outboxes, or rounds in which some honest
node produced a non-broadcast outbox -- fall back to the classic per-target
delivery, preserving exact delivery order (ascending honest senders first,
then Byzantine senders).
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

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
        if isinstance(outbox, Broadcast):
            # The common fast path: a broadcast built straight from
            # ``ctx.neighbors`` is valid by construction (the tuple is the
            # engine's own); anything else is filtered per target.
            if outbox.targets is self._contexts[sender].neighbors:
                return outbox
            valid_targets = self._neighbor_sets[sender]
            targets = tuple(t for t in outbox.targets if t in valid_targets)
            return Broadcast(outbox.message, targets) if targets else {}
        valid_targets = self._neighbor_sets[sender]
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
        record_broadcast = metrics.record_broadcast
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

        # Delivery state of the *previous* round.  ``env[v]`` holds v's
        # shared broadcast envelope (inverted delivery), ``extra`` the
        # targeted envelopes appended after the broadcasts; ``slow`` replaces
        # both with classic per-target buckets whenever some honest outbox
        # was not a full-neighborhood broadcast.
        env: List[Optional[DeliveredMessage]] = [None] * n
        extra: Dict[int, List[Message]] = {}
        slow: Optional[Dict[int, List[Message]]] = None

        def run_phase(round_number: int, nodes: List[int], start: bool) -> Tuple[
            List[Tuple[int, Outbox]], bool, bool
        ]:
            """Run one honest phase; returns (deliveries, fast, any_halted)."""
            deliveries: List[Tuple[int, Outbox]] = []
            fast = True
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
                    if slow is not None:
                        inbox = slow.get(u, [])
                    else:
                        inbox = [e for v in nbrs[u] if (e := env[v]) is not None]
                        ex = extra.get(u)
                        if ex:
                            inbox += ex
                    outbox = protocol.on_round(ctx, inbox)
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
                            fast = False
                            deliveries.append((u, outbox))
                elif outbox:
                    outbox = self._validate_outbox(u, outbox)
                    if outbox:
                        fast = False
                        deliveries.append((u, outbox))
                else:
                    outbox = {}
                if track_adversary:
                    adv_outboxes[u] = outbox
                if u not in decision_rounds and protocol.decided:
                    decision_rounds[u] = round_number
                if protocol.halted:
                    any_halted = True
            return deliveries, fast, any_halted

        def deliver_fast(
            deliveries: List[Tuple[int, Outbox]]
        ) -> List[Optional[DeliveredMessage]]:
            """Inverted delivery: one shared envelope per broadcasting sender.

            Receivers materialize their inboxes with one pass over their
            neighbor tuples, so a broadcast round costs one envelope and one
            accounting update per *sender* here plus one C-speed list
            comprehension per *receiver*, instead of per-edge dict bucket
            updates.  The metrics totals are accumulated locally and flushed
            once per round (``record_broadcast``, inlined and batched).
            """
            new_env: List[Optional[DeliveredMessage]] = [None] * n
            if not deliveries:
                return new_env
            per_node = metrics.per_node
            round_messages = 0
            round_bits = 0
            for u, outbox in deliveries:
                message = outbox.message
                stamped = DeliveredMessage(message, u, node_ids[u])
                new_env[u] = stamped
                copies = len(outbox.targets)
                bits = message.size_bits
                ids = message.num_ids
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
            return new_env

        def deliver_targeted(
            sender: int,
            outbox: Mapping[int, List[Message]],
            buckets: Dict[int, List[Message]],
        ) -> None:
            """Classic per-target delivery of one outbox into ``buckets``.

            One envelope per distinct outbox message: a message object put
            in several targets' lists is delivered as a single shared,
            sender-stamped envelope instead of one clone per edge, and is
            accounted once with its delivery count.  Delivered messages are
            read-only by contract.
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
            for stamped, copies in envelopes.values():
                record_broadcast(sender, stamped, copies)

        def deliver_slow(
            deliveries: List[Tuple[int, Outbox]], byz_outboxes: ByzantineOutbox
        ) -> Dict[int, List[Message]]:
            """Classic delivery for rounds with non-broadcast honest outboxes.

            A Broadcast is one shared envelope for all its targets; every
            other outbox goes through :func:`deliver_targeted`.
            """
            inboxes: Dict[int, List[Message]] = {}
            for sender, outbox in deliveries:
                if isinstance(outbox, Broadcast):
                    targets = outbox.targets
                    if not targets:
                        continue
                    stamped = DeliveredMessage(outbox.message, sender, node_ids[sender])
                    for target in targets:
                        bucket = inboxes.get(target)
                        if bucket is None:
                            bucket = inboxes[target] = []
                        bucket.append(stamped)
                    record_broadcast(sender, stamped, len(targets))
                else:
                    deliver_targeted(sender, outbox, inboxes)
            for sender, outbox in byz_outboxes.items():
                deliver_targeted(sender, outbox, inboxes)
            return inboxes

        def adversary_step(round_number: int) -> ByzantineOutbox:
            if not track_adversary:
                return {}
            # Byzantine inboxes are materialized from the previous round's
            # delivery state exactly like honest inboxes.
            byz_inboxes: Dict[int, List[Message]] = {}
            for b in byzantine:
                if slow is not None:
                    byz_inboxes[b] = slow.get(b, [])
                else:
                    inbox = [e for v in nbrs[b] if (e := env[v]) is not None]
                    ex = extra.get(b)
                    if ex:
                        inbox += ex
                    byz_inboxes[b] = inbox
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
                # Drop last round's not-yet-consumed envelopes crossing the
                # removed edge.  Inverted (fast) delivery drops the broadcast
                # automatically once ``sender`` leaves ``nbrs[receiver]``;
                # only the targeted buckets need explicit filtering.
                buckets = slow if slow is not None else extra
                bucket = buckets.get(receiver)
                if bucket:
                    kept = [e for e in bucket if e.sender != sender]
                    if len(kept) != len(bucket):
                        if kept:
                            buckets[receiver] = kept
                        else:
                            del buckets[receiver]

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
                nonlocal events
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
                # Drop the node's own in-flight broadcast and its inbox.
                env[u] = None
                if slow is not None:
                    slow.pop(u, None)
                else:
                    extra.pop(u, None)

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
            nonlocal env, extra, slow, active
            metrics.start_round()
            deliveries, fast, any_halted = run_phase(round_number, active, start)
            byz_outboxes = adversary_step(round_number)
            if fast:
                env = deliver_fast(deliveries)
                extra = {}
                slow = None
                for b, per_target in byz_outboxes.items():
                    deliver_targeted(b, per_target, extra)
            else:
                slow = deliver_slow(deliveries, byz_outboxes)
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
