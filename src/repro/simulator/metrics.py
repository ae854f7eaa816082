"""Run metrics: per-round and per-node message statistics.

These feed experiments E2 and E10 (message-size claims) and the round
complexity analyses of E1/E12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.simulator.messages import Message

__all__ = ["NodeMessageStats", "SimulationMetrics"]


@dataclass
class NodeMessageStats:
    """Aggregate statistics of the messages *sent* by one node."""

    messages_sent: int = 0
    bits_sent: int = 0
    ids_sent: int = 0
    max_message_bits: int = 0
    max_message_ids: int = 0

    def record(self, message: Message) -> None:
        """Account one sent message."""
        self.record_many(message, 1)

    def record_many(self, message: Message, copies: int) -> None:
        """Account ``copies`` identical sent messages (a broadcast)."""
        bits = message.size_bits
        ids = message.num_ids
        self.messages_sent += copies
        self.bits_sent += bits * copies
        self.ids_sent += ids * copies
        if bits > self.max_message_bits:
            self.max_message_bits = bits
        if ids > self.max_message_ids:
            self.max_message_ids = ids

    def sent_only_small_messages(
        self, n: int, *, c_bits: float = 64.0, max_ids: Optional[int] = None
    ) -> bool:
        """True if every message this node sent was small (see ``Message.is_small``)."""
        log_n = math.log2(max(n, 2))
        id_budget = max_ids if max_ids is not None else max(8, int(math.ceil(2 * log_n)))
        return (
            self.max_message_bits <= c_bits * log_n
            and self.max_message_ids <= id_budget
        )


@dataclass
class SimulationMetrics:
    """Metrics collected by the engine across a run."""

    rounds_executed: int = 0
    total_messages: int = 0
    total_bits: int = 0
    messages_per_round: List[int] = field(default_factory=list)
    per_node: Dict[int, NodeMessageStats] = field(default_factory=dict)
    decision_rounds: Dict[int, int] = field(default_factory=dict)
    # Churn accounting (all zero/empty for static runs): total topology
    # events applied, the rounds at which deltas fired, and the last such
    # round -- the anchor for the reconvergence metrics at the scenario tier.
    churn_events: int = 0
    churn_rounds: List[int] = field(default_factory=list)
    last_churn_round: Optional[int] = None

    def node_stats(self, node: int) -> NodeMessageStats:
        """Per-node stats record, created lazily."""
        if node not in self.per_node:
            self.per_node[node] = NodeMessageStats()
        return self.per_node[node]

    def record_send(self, node: int, message: Message, copies: int = 1) -> None:
        """Account ``copies`` deliveries of one message sent by ``node`` in
        the current round (the engine's delivery step does the same
        accounting inline, batched per round).

        Raises
        ------
        RuntimeError
            If no round has been opened with :meth:`start_round` yet.  The
            per-round counter would otherwise silently drop the message and
            ``messages_per_round`` could under-report (experiments use its
            last entry to detect quiescence).
        """
        if not self.messages_per_round:
            raise RuntimeError(
                "record_send called before start_round(); open a round first "
                "so the per-round message count cannot under-report"
            )
        self.total_messages += copies
        self.total_bits += message.size_bits * copies
        self.messages_per_round[-1] += copies
        self.node_stats(node).record_many(message, copies)

    def start_round(self) -> None:
        """Open the accounting bucket of a new round."""
        self.messages_per_round.append(0)
        self.rounds_executed += 1

    def record_churn(self, round_number: int, events: int) -> None:
        """Account ``events`` topology changes applied before ``round_number``."""
        if events <= 0:
            return
        self.churn_events += events
        if not self.churn_rounds or self.churn_rounds[-1] != round_number:
            self.churn_rounds.append(round_number)
        self.last_churn_round = round_number

    def record_decision(self, node: int, round_number: int) -> None:
        """Record the first round at which ``node`` reported a decision."""
        self.decision_rounds.setdefault(node, round_number)

    def small_message_fraction(
        self,
        n: int,
        nodes: Optional[List[int]] = None,
        *,
        c_bits: float = 64.0,
        max_ids: Optional[int] = None,
    ) -> float:
        """Fraction of the given nodes that sent *only* small messages.

        Nodes that never sent a message count as small-message senders.
        """
        candidates = nodes if nodes is not None else sorted(self.per_node)
        if not candidates:
            return 1.0
        small = 0
        for node in candidates:
            stats = self.per_node.get(node)
            if stats is None or stats.sent_only_small_messages(
                n, c_bits=c_bits, max_ids=max_ids
            ):
                small += 1
        return small / len(candidates)

    def max_message_bits_over(self, nodes: Optional[List[int]] = None) -> int:
        """Largest single-message payload (bits) sent by any of the given nodes."""
        candidates = nodes if nodes is not None else sorted(self.per_node)
        best = 0
        for node in candidates:
            stats = self.per_node.get(node)
            if stats is not None:
                best = max(best, stats.max_message_bits)
        return best
