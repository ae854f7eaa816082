"""A naive synchronous round engine: the oracle for ``SynchronousEngine``.

:class:`ReferenceEngine` implements the model of Section 2 and the engine's
documented contract with the plainest data structures.  A message waits on
its edge in one dict keyed by ``(sender, receiver)``, every round rescans
every node, and nothing is cached or shared between receivers.  It takes the
same constructor arguments as :class:`repro.simulator.engine.SynchronousEngine`
and must agree with it on everything a protocol, an adversary or the metrics
can observe (see ``tests/test_engine_reference.py``).

The contract, round by round:

- round 0 runs ``on_start`` on every honest node.  Round r >= 1 checks the
  stop condition, applies the churn delta for r, then runs the honest phase,
  the adversary phase (only when there are Byzantine nodes) and delivery;
- a node runs while it is present and has not reported ``halted`` after a
  round it ran in.  A joiner runs ``on_start`` in its join round;
- a message crosses the edge it was sent on at the end of the round.  Cutting
  the edge before the receiver's next round loses it, and an edge added by
  churn carries only what is sent after it exists;
- an inbox lists the honest senders ascending, each sender's messages in
  outbox order, then the Byzantine senders in the adversary's order;
- a churn delta applies leaves, then edge removals, then joins, then edge
  additions, then spawns the honest joiners, then notifies every other
  present, running node whose incident edges were touched, in index order.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.simulator.byzantine import AdversaryView, SilentAdversary
from repro.simulator.engine import RunResult
from repro.simulator.messages import DeliveredMessage
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.node import NodeContext
from repro.simulator.rng import split_seed

__all__ = ["ReferenceEngine"]


class ReferenceEngine:
    """Per-edge delivery, full scans, no caches."""

    def __init__(self, network, protocol_factory, *, adversary=None, seed=0,
                 max_rounds=100_000, stop_condition=None, churn=None):
        self.network = network
        self.protocol_factory = protocol_factory
        self.adversary = adversary if adversary is not None else SilentAdversary()
        self.seed = seed
        self.max_rounds = max_rounds
        self.stop_condition = stop_condition
        self.churn = churn
        graph = network.graph
        self.ids = graph.node_ids
        self.edges = [set(nbrs) for nbrs in graph.adjacency]
        self.neighbor_ids = [{v: self.ids[v] for v in nbrs} for nbrs in graph.adjacency]
        self.contexts: Dict[int, NodeContext] = {}
        self.protocols: Dict = {}
        for u in network.honest:
            self._spawn(u, 0, (seed, "node", u))
        self.adversary_rng = random.Random(split_seed(seed, "adversary"))
        self.adversary.setup(graph, network.byzantine, self.adversary_rng)
        self.metrics = SimulationMetrics()
        self.departed: set = set()
        self.halted: set = set()
        self.starting: set = set()
        self.in_flight: Dict[Tuple[int, int], List[DeliveredMessage]] = {}

    @property
    def decided_count(self) -> int:
        return len(self.metrics.decision_rounds)

    def _spawn(self, u, round_number, seed_path):
        ctx = NodeContext(index=u, node_id=self.ids[u], neighbors=tuple(sorted(self.edges[u])),
                          neighbor_ids=self.neighbor_ids[u], round=round_number,
                          seed_path=seed_path)
        self.contexts[u] = ctx
        self.protocols[u] = self.protocol_factory(ctx)

    def _running(self) -> List[int]:
        return [u for u in sorted(self.protocols)
                if u not in self.departed and u not in self.halted]

    def _inbox(self, u) -> List[DeliveredMessage]:
        return [m for (_, t), msgs in self.in_flight.items() if t == u for m in msgs]

    def _stopped(self, executed) -> bool:
        if self.stop_condition is not None:
            return self.stop_condition(self.protocols, executed)
        last = self.churn.last_round if self.churn else 0
        return not self._running() and executed >= last

    def run(self, max_rounds=None) -> RunResult:
        limit = self.max_rounds if max_rounds is None else max_rounds
        self._round(0)
        executed, completed = 0, False
        for r in range(1, limit + 1):
            if self._stopped(executed):
                completed = True
                break
            delta = self.churn.delta_for_round(r) if self.churn else None
            if delta:
                self._apply(r, delta)
            self._round(r)
            executed = r
        else:
            completed = self._stopped(executed)
        return RunResult(network=self.network, rounds_executed=self.metrics.rounds_executed,
                         protocols=self.protocols, metrics=self.metrics, completed=completed,
                         departed=frozenset(self.departed))

    def _round(self, r) -> None:
        metrics, byzantine = self.metrics, self.network.byzantine
        metrics.start_round()
        inboxes = {u: self._inbox(u) for u in range(self.network.n)}
        sends = []
        ran = self._running()
        for u in ran:
            ctx, protocol = self.contexts[u], self.protocols[u]
            ctx.round = r
            if r == 0 or u in self.starting:
                self.starting.discard(u)
                outbox = protocol.on_start(ctx)
            else:
                outbox = protocol.on_round(ctx, inboxes[u])
            sends.append((u, {t: list(msgs) for t, msgs in (outbox or {}).items()
                              if t in self.edges[u] and msgs}))
            if u not in metrics.decision_rounds and protocol.decided:
                metrics.decision_rounds[u] = r
        if byzantine:
            shown = dict(sends)
            view = AdversaryView(
                round=r, graph=self.network.graph, byzantine=byzantine,
                honest_protocols={u: p for u, p in self.protocols.items()
                                  if u not in self.departed},
                honest_outboxes={u: shown.get(u, {}) for u in self.protocols
                                 if u not in self.departed},
                byzantine_inboxes={b: inboxes[b] for b in byzantine},
                rng=self.adversary_rng,
            )
            raw = self.adversary.act(view) or {}
            sends += [(b, out) for b, out in raw.items() if b in byzantine]
        self.in_flight = {}
        for u, outbox in sends:
            for t, msgs in outbox.items():
                if t in self.edges[u]:
                    for m in msgs:
                        self.in_flight.setdefault((u, t), []).append(
                            DeliveredMessage(m, u, self.ids[u]))
                        metrics.record_send(u, m)
        self.halted.update(u for u in ran if self.protocols[u].halted)

    def _apply(self, r, delta) -> None:
        changes: Dict[int, Dict[int, str]] = {}
        events = 0

        def touch(x, y, kind):
            net = changes.setdefault(x, {})
            if net.get(y) not in (None, kind):
                del net[y]  # a cut and a re-link of one edge cancel out
            else:
                net[y] = kind

        def cut(a, b):
            nonlocal events
            if b in self.edges[a]:
                events += 1
                for x, y in ((a, b), (b, a)):
                    self.edges[x].discard(y)
                    del self.neighbor_ids[x][y]
                    self.in_flight.pop((y, x), None)
                    touch(x, y, "removed")

        def link(a, b):
            nonlocal events
            if a != b and not {a, b} & self.departed and b not in self.edges[a]:
                events += 1
                for x, y in ((a, b), (b, a)):
                    self.edges[x].add(y)
                    self.neighbor_ids[x][y] = self.ids[y]
                    touch(x, y, "added")

        joining = [u for u in dict.fromkeys(delta.join_nodes) if u in self.departed]
        for u in delta.leave_nodes:
            if u not in self.departed:
                for v in sorted(self.edges[u]):
                    cut(u, v)
                self.departed.add(u)
                self.starting.discard(u)
                events += 1
        for a, b in delta.remove_edges:
            cut(a, b)
        for u in joining:
            self.departed.discard(u)
            events += 1
        for a, b in delta.add_edges:
            link(a, b)
        for u in changes:
            if u in self.contexts:
                self.contexts[u].neighbors = tuple(sorted(self.edges[u]))
        for u in joining:
            if u not in self.network.byzantine:
                self._spawn(u, r, (self.seed, "node", u, "join", r))
                self.halted.discard(u)
                self.starting.add(u)
                self.metrics.decision_rounds.pop(u, None)
        for u in sorted(changes):
            if u in self.protocols and u not in self.departed | self.starting | self.halted:
                net = changes[u]
                self.protocols[u].on_topology_change(
                    self.contexts[u],
                    {y: self.ids[y] for y, kind in net.items() if kind == "added"},
                    {y: self.ids[y] for y, kind in net.items() if kind == "removed"})
        self.metrics.record_churn(r, events)
