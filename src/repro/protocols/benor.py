"""BenOr-style randomized binary consensus on the synchronous engine.

The classic Ben-Or protocol proceeds in phases of two message exchanges:

* **R1 (report)** -- every node broadcasts its current value; a node that
  sees a strict majority for some value ``w`` among its phase-``p`` reports
  *proposes* ``w``, otherwise it proposes "?".
* **R2 (propose)** -- proposals are exchanged; a node seeing at least
  ``2f + 1`` proposals for ``w`` **decides** ``w``, a node seeing at least
  ``f + 1`` *adopts* ``w``, and a node seeing neither flips its private coin
  for the next phase.

This port adapts the thresholds to the network setting the engine models:
each node only exchanges messages with its graph neighborhood, so the
participant count is the closed neighborhood ``deg(u) + 1`` rather than a
global ``n``.  On a complete graph this is exactly Ben-Or (agreement with
probability 1 for ``n > 2f``); on sparse graphs it degrades into a *local*
consensus whose agreement rate is an experimental observable -- which is the
point of running it on the zoo's shared graph grid.

Determinism: the coin of node ``u`` is its own ``random.Random`` stream
derived via :func:`repro.simulator.rng.coin_stream` from the run's master
seed and the node *identifier* -- independent of scheduling, engine backend,
and process boundaries, so a (seed, graph) pair reproduces bit-identically on
the serial, pool, and distributed backends.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.estimate import CountingOutcome, ProtocolRun
from repro.graphs.graph import Graph
from repro.protocols.common import binary_decision_metrics
from repro.simulator.byzantine import Adversary
from repro.simulator.churn import ChurnSchedule
from repro.simulator.engine import SynchronousEngine
from repro.simulator.messages import Message
from repro.simulator.network import Network
from repro.simulator.node import NodeContext, Outbox, Protocol, broadcast
from repro.simulator.rng import coin_stream

__all__ = ["BenOrProtocol", "run_benor", "spec_validate_benor"]

_R1 = "R1"
_R2 = "R2"
#: Wire encoding of the "no majority seen" proposal.
_ABSTAIN = "?"
#: Stands in for a table message no honest node has sent: its payload is
#: an object no inbox carries.
_UNSENT = Message("benor", payload=object())


class BenOrProtocol(Protocol):
    """One node of the phased randomized binary consensus."""

    def __init__(
        self,
        ctx: NodeContext,
        *,
        f: int,
        initial: Any,
        max_phases: int,
        seed: int,
        messages: Dict[Tuple[str, int, Any], Message],
    ) -> None:
        self.f = f
        self.max_phases = max_phases
        # One read-only Message per distinct (tag, phase, value), shared by
        # every node of the run: the run passes each node the same dict,
        # which holds at most 2 tags x max_phases x 3 values entries and
        # dies with the run.
        self._messages = messages
        self._coin = coin_stream(seed, "benor-coin", ctx.node_id)
        if initial == "coin":
            self.value = self._coin.randrange(2)
        elif initial == "id-parity":
            self.value = ctx.node_id & 1
        else:
            self.value = int(initial)
        self._proposal: Optional[int] = None
        self._decided = False
        self._estimate: Optional[float] = None
        self._decision_round: Optional[int] = None
        self.decided_phase: Optional[int] = None

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

    @property
    def halted(self) -> bool:
        # A decided node keeps echoing its value so undecided neighbors can
        # still reach their thresholds; the run wrapper's stop condition ends
        # the run once every honest node has decided.
        return False

    # ------------------------------------------------------------------ #
    def _message(self, tag: str, phase: int, value: Any) -> Message:
        key = (tag, phase, value)
        message = self._messages.get(key)
        if message is None:
            message = self._messages[key] = Message.make("benor", payload=key)
        return message

    def on_start(self, ctx: NodeContext) -> Outbox:
        return broadcast(ctx.neighbors, self._message(_R1, 1, self.value))

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Outbox:
        phase = (ctx.round + 1) // 2
        if phase > self.max_phases:
            return {}
        if ctx.round % 2 == 1:
            return self._process_reports(ctx, inbox, phase)
        return self._process_proposals(ctx, inbox, phase)

    def _tally(
        self, inbox: List[Message], tag: str, phase: int
    ) -> Dict[int, int]:
        """Count valid phase-``phase`` values of kind ``tag`` in the inbox.

        Honest senders share one payload object per ``(tag, phase, value)``
        for the whole run (the ``_messages`` table), valid by construction,
        so those count by identity; any other payload is validated as sent.
        """
        zero = self._messages.get((tag, phase, 0), _UNSENT).payload
        one = self._messages.get((tag, phase, 1), _UNSENT).payload
        zeros = ones = 0
        counts = {0: 0, 1: 0}
        for message in inbox:
            if message.kind != "benor":
                continue
            payload = message.payload
            if payload is zero:
                zeros += 1
            elif payload is one:
                ones += 1
            elif (
                isinstance(payload, tuple)
                and len(payload) == 3
                and payload[0] == tag
                and payload[1] == phase
                and payload[2] in (0, 1)
            ):
                counts[payload[2]] += 1
        counts[0] += zeros
        counts[1] += ones
        return counts

    def _process_reports(
        self, ctx: NodeContext, inbox: List[Message], phase: int
    ) -> Outbox:
        counts = self._tally(inbox, _R1, phase)
        counts[self.value] += 1  # own report
        participants = ctx.degree + 1
        if counts[1] * 2 > participants:
            self._proposal = 1
        elif counts[0] * 2 > participants:
            self._proposal = 0
        else:
            self._proposal = None
        wire = self._proposal if self._proposal is not None else _ABSTAIN
        return broadcast(ctx.neighbors, self._message(_R2, phase, wire))

    def _process_proposals(
        self, ctx: NodeContext, inbox: List[Message], phase: int
    ) -> Outbox:
        counts = self._tally(inbox, _R2, phase)
        if self._proposal is not None:
            counts[self._proposal] += 1  # own proposal
        best = 1 if counts[1] >= counts[0] else 0
        if not self._decided:
            if counts[best] >= 2 * self.f + 1:
                self.value = best
                self._decided = True
                self._estimate = float(best)
                self._decision_round = ctx.round
                self.decided_phase = phase
            elif counts[best] >= self.f + 1:
                self.value = best
            else:
                self.value = self._coin.randrange(2)
        if phase >= self.max_phases:
            return {}
        return broadcast(ctx.neighbors, self._message(_R1, phase + 1, self.value))


def spec_validate_benor(params: Mapping[str, Any], n: Optional[int]) -> None:
    """Compile-time envelope check of the ``benor`` registry entry.

    Raises ``ValueError`` whose message starts with the offending parameter
    name; :meth:`repro.scenarios.spec.Scenario.validate` prefixes the spec
    path.
    """
    f = params.get("f", 1)
    if not isinstance(f, int) or f < 0:
        raise ValueError(f"f: must be a non-negative integer, got {f!r}")
    if n is not None and n <= 2 * f:
        raise ValueError(
            f"f: BenOr needs n > 2f to terminate (n={n}, f={f})"
        )
    max_phases = params.get("max_phases")
    if max_phases is not None and (not isinstance(max_phases, int) or max_phases < 1):
        raise ValueError(f"max_phases: must be a positive integer, got {max_phases!r}")
    max_rounds = params.get("max_rounds")
    if max_rounds is not None and (not isinstance(max_rounds, int) or max_rounds < 1):
        raise ValueError(f"max_rounds: must be a positive integer, got {max_rounds!r}")
    initial = params.get("initial", "coin")
    if initial not in ("coin", "id-parity", 0, 1):
        raise ValueError(
            f"initial: must be 'coin', 'id-parity', 0, or 1, got {initial!r}"
        )


def run_benor(
    graph: Graph,
    *,
    byzantine: Iterable[int] = (),
    adversary: Optional[Adversary] = None,
    seed: int = 0,
    f: int = 1,
    initial: Any = "coin",
    max_phases: Optional[int] = None,
    max_rounds: Optional[int] = None,
    evaluation_set: Optional[Set[int]] = None,
    churn: Optional[ChurnSchedule] = None,
) -> ProtocolRun:
    """Execute BenOr-style consensus on ``graph`` and summarize the outcome.

    ``max_phases`` defaults to ``6·ceil(log2 n) + 16`` -- far beyond the
    expected constant number of phases on benign runs, so undecided nodes at
    the budget indicate genuine (adversarial or topological) divergence.
    """
    network = Network(graph=graph, byzantine=frozenset(byzantine))
    if max_phases is None:
        max_phases = 6 * int(math.ceil(math.log2(max(graph.n, 2)))) + 16
    if max_rounds is None:
        max_rounds = 2 * max_phases + 2

    effective_phases = max_phases
    messages: Dict[Tuple[str, int, Any], Message] = {}

    def factory(ctx: NodeContext) -> Protocol:
        return BenOrProtocol(
            ctx,
            f=f,
            initial=initial,
            max_phases=effective_phases,
            seed=seed,
            messages=messages,
        )

    engine = SynchronousEngine(
        network,
        factory,
        adversary=adversary,
        seed=seed,
        max_rounds=max_rounds,
        churn=churn,
    )
    # Stop once every honest node has decided, read off the engine's
    # decision counter: BenOr never halts and decisions are irrevocable, and
    # the engine drops a rejoiner's decision entry, so the count is exact.
    num_honest = len(engine.protocols)
    engine.stop_condition = lambda _protocols, _round: engine.decided_count == num_honest
    result = engine.run()
    outcome = CountingOutcome.from_run(result, evaluation_set)
    decided_phases = [
        p.decided_phase
        for p in result.protocols.values()
        if isinstance(p, BenOrProtocol) and p.decided_phase is not None
    ]
    extra = binary_decision_metrics(outcome)
    extra["phases_to_decide"] = max(decided_phases) if decided_phases else None
    params: Dict[str, Any] = {
        "f": f,
        "initial": initial,
        "max_phases": max_phases,
        "max_rounds": max_rounds,
    }
    return ProtocolRun(result=result, params=params, outcome=outcome, extra_metrics=extra)
