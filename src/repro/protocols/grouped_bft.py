"""Grouped Byzantine agreement: consistent-hash groups + OM(m) cascades.

The NBFT-style construction scales Byzantine agreement by splitting the node
universe into consistent-hash groups (:mod:`repro.protocols.grouping`), each
of which runs classic interactive-consistency agreement on its *leader's*
input value, and then aggregating the per-group results network-wide:

1. **OM cascade** (rounds ``1 .. (m+1)·hops``): each group leader broadcasts
   its input bit; group members relay it with the path-tuple bookkeeping of
   the Lamport-Shostak-Pease OM(m) algorithm (``m = f``): a member that
   accepts a value under path ``p`` re-announces it under ``p + (self,)``
   until paths reach length ``m + 1``.  Honest nodes -- members or not --
   flood every well-formed cascade message once, so the cascade crosses a
   sparse graph within ``hops`` rounds per level instead of assuming a
   clique.
2. **Per-group decision**: after the cascade budget each member runs the
   standard recursive-majority resolution over its path tree (missing
   branches default to 0, the "retreat" convention) to obtain the group's
   agreed value.  With honest group size ``> 3f`` and direct connectivity
   this is exactly OM(m)'s guarantee; with flood-relays the envelope is
   weaker, which the zoo's cross-protocol grid measures rather than assumes.
3. **Aggregation** (the final ``hops + 1`` rounds): every member announces
   ``(group, self, agreed value)``; all nodes flood the announcements, take
   a per-group majority over the reporters, then decide the majority bit
   over the non-empty groups.

All nodes decide simultaneously at the fixed final round, so the run length
is deterministic: ``(m + 2)·hops + 1`` rounds.

The membership map is computed from the graph's node-id universe by the run
wrapper and handed to every instance -- the standard "known membership"
assumption of committee-based BFT, and the one real global input this family
needs beyond the paper's model.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.estimate import CountingOutcome, ProtocolRun
from repro.graphs.graph import Graph
from repro.protocols.common import binary_decision_metrics
from repro.protocols.grouping import GroupAssignment, assign_groups
from repro.simulator.byzantine import Adversary
from repro.simulator.churn import ChurnSchedule
from repro.simulator.engine import SynchronousEngine
from repro.simulator.messages import Message
from repro.simulator.network import Network
from repro.simulator.node import NodeContext, Outbox, Protocol, broadcast
from repro.simulator.rng import coin_stream

__all__ = ["GroupedBftProtocol", "run_grouped_bft", "spec_validate_grouped_bft"]


def _om_message(group: int, path: Tuple[int, ...], value: int) -> Message:
    return Message.make(
        "gbft", payload=("om", group, path, value), num_ids=len(path)
    )


def _agg_message(group: int, reporter: int, value: int) -> Message:
    return Message.make("gbft", payload=("agg", group, reporter, value), num_ids=1)


class GroupedBftProtocol(Protocol):
    """One node of the grouped OM(m) agreement."""

    def __init__(
        self,
        ctx: NodeContext,
        *,
        assignment: GroupAssignment,
        f: int,
        hops: int,
        initial: Any,
        seed: int,
    ) -> None:
        self.assignment = assignment
        self.m = f
        self.hops = hops
        self.node_id = ctx.node_id
        self.group = assignment.group_of[ctx.node_id]
        self.members: Tuple[int, ...] = assignment.members[self.group]
        self.leader_id = assignment.leaders[self.group]
        self.om_deadline = (self.m + 1) * hops
        self.decide_round = self.om_deadline + hops + 1
        if initial == "coin":
            self.value = coin_stream(seed, "gbft-input", ctx.node_id).randrange(2)
        elif initial == "id-parity":
            self.value = ctx.node_id & 1
        else:
            self.value = int(initial)
        #: Accepted cascade values of the own group, keyed by path tuple.
        self.tree: Dict[Tuple[int, ...], int] = {}
        #: Flood-relay dedup across all groups.
        self._seen: Set[Tuple[Any, ...]] = set()
        #: Aggregation reports: (group, reporter id) -> value.
        self.reports: Dict[Tuple[int, int], int] = {}
        self.group_value: Optional[int] = None
        self._decided = False
        self._estimate: Optional[float] = None
        self._decision_round: Optional[int] = None

    # ------------------------------------------------------------------ #
    @property
    def decided(self) -> bool:
        return self._decided

    @property
    def estimate(self) -> Optional[float]:
        return self._estimate

    @property
    def decision_round(self) -> Optional[int]:
        return self._decision_round

    # ------------------------------------------------------------------ #
    def on_start(self, ctx: NodeContext) -> Outbox:
        if ctx.node_id != self.leader_id:
            return {}
        path = (ctx.node_id,)
        self.tree[path] = self.value
        message = _om_message(self.group, path, self.value)
        self._seen.add(("om", self.group, path, self.value))
        return broadcast(ctx.neighbors, message)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Outbox:
        outgoing: List[Message] = []
        for message in inbox:
            outgoing.extend(self._handle(ctx, message))
        if ctx.round == self.om_deadline:
            outgoing.append(self._announce_group_value(ctx))
        if ctx.round >= self.decide_round and not self._decided:
            self._decide(ctx)
        if not outgoing:
            return {}
        return {v: list(outgoing) for v in ctx.neighbors}

    # ------------------------------------------------------------------ #
    def _handle(self, ctx: NodeContext, message: Message) -> List[Message]:
        """Validate, record, and (once) relay one received cascade message."""
        if message.kind != "gbft" or not isinstance(message.payload, tuple):
            return []
        payload = message.payload
        if len(payload) != 4:
            return []
        tag, group, middle, value = payload
        if value not in (0, 1) or not isinstance(group, int):
            return []
        if not 0 <= group < self.assignment.num_groups:
            return []
        if tag == "om":
            return self._handle_om(ctx, group, middle, value)
        if tag == "agg":
            return self._handle_agg(ctx, group, middle, value)
        return []

    def _handle_om(
        self, ctx: NodeContext, group: int, path: Any, value: int
    ) -> List[Message]:
        members = self.assignment.members[group]
        leader = self.assignment.leaders[group]
        if not isinstance(path, tuple) or not 1 <= len(path) <= self.m + 1:
            return []
        if len(set(path)) != len(path) or path[0] != leader:
            return []
        if any(p not in members for p in path):
            return []
        key = ("om", group, path, value)
        if key in self._seen or ctx.round > self.om_deadline:
            return []
        self._seen.add(key)
        relays = [_om_message(group, path, value)]
        if group == self.group and ctx.node_id not in path:
            # Record the first value heard under this path and, below the
            # cascade depth, re-announce it under the extended path.
            if path not in self.tree:
                self.tree[path] = value
                if len(path) <= self.m:
                    extended = path + (ctx.node_id,)
                    extended_key = ("om", group, extended, value)
                    if extended_key not in self._seen:
                        self._seen.add(extended_key)
                        relays.append(_om_message(group, extended, value))
        return relays

    def _handle_agg(
        self, ctx: NodeContext, group: int, reporter: Any, value: int
    ) -> List[Message]:
        if reporter not in self.assignment.members[group]:
            return []
        key = ("agg", group, reporter, value)
        if key in self._seen:
            return []
        self._seen.add(key)
        self.reports.setdefault((group, reporter), value)
        return [_agg_message(group, reporter, value)]

    # ------------------------------------------------------------------ #
    def _resolve(self, path: Tuple[int, ...]) -> int:
        """OM(m) recursive majority over the accepted path tree.

        Missing values default to 0 (the deterministic "retreat" value), and
        ties resolve to 0, matching the classic algorithm's conventions.
        """
        if len(path) == self.m + 1:
            return self.tree.get(path, 0)
        votes = [self.tree.get(path, 0)]
        for q in self.members:
            # The resolving node never stores paths through itself (it *is*
            # the relay on those); including them would vote the default.
            if q not in path and q != self.node_id:
                votes.append(self._resolve(path + (q,)))
        return 1 if sum(votes) * 2 > len(votes) else 0

    def _announce_group_value(self, ctx: NodeContext) -> Message:
        if ctx.node_id == self.leader_id:
            self.group_value = self.value
        else:
            self.group_value = self._resolve((self.leader_id,))
        self.reports[(self.group, ctx.node_id)] = self.group_value
        message = _agg_message(self.group, ctx.node_id, self.group_value)
        self._seen.add(("agg", self.group, ctx.node_id, self.group_value))
        return message

    def _decide(self, ctx: NodeContext) -> None:
        group_votes: List[int] = []
        for group in self.assignment.nonempty_groups():
            votes = [
                value
                for (g, _reporter), value in sorted(self.reports.items())
                if g == group
            ]
            if not votes:
                continue
            group_votes.append(1 if sum(votes) * 2 > len(votes) else 0)
        bit = 1 if group_votes and sum(group_votes) * 2 > len(group_votes) else 0
        self._decided = True
        self._estimate = float(bit)
        self._decision_round = ctx.round


def spec_validate_grouped_bft(params: Mapping[str, Any], n: Optional[int]) -> None:
    """Compile-time envelope check of the ``grouped-bft`` registry entry.

    Raises ``ValueError`` whose message starts with the offending parameter
    name; :meth:`repro.scenarios.spec.Scenario.validate` prefixes the spec
    path.
    """
    f = params.get("f", 1)
    if not isinstance(f, int) or f < 0:
        raise ValueError(f"f: must be a non-negative integer, got {f!r}")
    if n is not None and n <= 3 * f:
        raise ValueError(
            f"f: the OM(m) honest envelope needs n > 3f (n={n}, f={f})"
        )
    groups = params.get("groups")
    if groups is not None:
        if not isinstance(groups, int) or groups < 1:
            raise ValueError(f"groups: must be a positive integer, got {groups!r}")
        if n is not None and groups * (3 * f + 1) > n:
            raise ValueError(
                f"groups: {groups} groups of honest size > 3f need "
                f"n >= groups·(3f+1) = {groups * (3 * f + 1)}, got n={n}"
            )
    hops = params.get("hops")
    if hops is not None and (not isinstance(hops, int) or hops < 1):
        raise ValueError(f"hops: must be a positive integer, got {hops!r}")
    max_rounds = params.get("max_rounds")
    if max_rounds is not None and (not isinstance(max_rounds, int) or max_rounds < 1):
        raise ValueError(f"max_rounds: must be a positive integer, got {max_rounds!r}")
    initial = params.get("initial", "coin")
    if initial not in ("coin", "id-parity", 0, 1):
        raise ValueError(
            f"initial: must be 'coin', 'id-parity', 0, or 1, got {initial!r}"
        )


def run_grouped_bft(
    graph: Graph,
    *,
    byzantine: Iterable[int] = (),
    adversary: Optional[Adversary] = None,
    seed: int = 0,
    f: int = 1,
    groups: Optional[int] = None,
    hops: Optional[int] = None,
    initial: Any = "coin",
    max_rounds: Optional[int] = None,
    evaluation_set: Optional[Set[int]] = None,
    churn: Optional[ChurnSchedule] = None,
) -> ProtocolRun:
    """Execute grouped OM(f) agreement on ``graph`` and summarize the outcome.

    ``groups`` defaults to ``max(1, n // (4·(3f + 1)))`` -- expected group
    sizes comfortably above the ``3f + 1`` OM envelope.  ``hops`` (the
    per-cascade-level flood budget) defaults to 1 on complete graphs and
    ``ceil(log2 n) + 2`` otherwise, an upper bound on the diameter of every
    expander family shipped in :mod:`repro.graphs`.
    """
    if graph.n <= 3 * f:
        raise ValueError(
            f"grouped-bft needs n > 3f (n={graph.n}, f={f})"
        )
    if groups is None:
        groups = max(1, graph.n // (4 * (3 * f + 1)))
    if hops is None:
        complete = all(len(graph.adjacency[u]) == graph.n - 1 for u in range(graph.n))
        hops = 1 if complete else int(math.ceil(math.log2(max(graph.n, 2)))) + 2
    assignment = assign_groups(graph.node_ids, groups)
    decide_round = (f + 2) * hops + 1
    if max_rounds is None:
        max_rounds = decide_round + 2

    def factory(ctx: NodeContext) -> Protocol:
        return GroupedBftProtocol(
            ctx,
            assignment=assignment,
            f=f,
            hops=hops,
            initial=initial,
            seed=seed,
        )

    network = Network(graph=graph, byzantine=frozenset(byzantine))
    engine = SynchronousEngine(
        network,
        factory,
        adversary=adversary,
        seed=seed,
        max_rounds=max_rounds,
        churn=churn,
    )
    result = engine.run()
    outcome = CountingOutcome.from_run(result, evaluation_set)
    sizes = [len(ids) for ids in assignment.members if ids]
    extra = binary_decision_metrics(outcome)
    extra.update(
        {
            "groups": len(sizes),
            "min_group_size": min(sizes) if sizes else 0,
            "max_group_size": max(sizes) if sizes else 0,
        }
    )
    params: Dict[str, Any] = {
        "f": f,
        "groups": groups,
        "hops": hops,
        "initial": initial,
        "max_rounds": max_rounds,
    }
    return ProtocolRun(result=result, params=params, outcome=outcome, extra_metrics=extra)
