"""Algorithm 2: Byzantine counting with small messages (Section 5).

The algorithm proceeds in *phases* ``i = c, c+1, ...`` where ``i`` is the
current candidate estimate of ``log n``.  Each phase consists of
``⌊e^((1-γ)i)⌋ + 1`` *iterations* and each iteration of phase ``i`` takes
``2i + 5`` rounds:

* **Beacon window (rounds 1 .. i+2 of the iteration).**  At the first round,
  every participating node becomes *active* with probability ``c₁·i / dⁱ``
  (``d`` = its degree) and, if active, emits a beacon message.  Beacons are
  flooded for the remainder of the window; every forwarder appends the id of
  the neighbor it received the beacon from to the path field.  Each node
  records in ``shortestPath`` the first beacon whose far-away path prefix does
  not intersect its phase blacklist.
* **Decision point (round i+3).**  A node that is still undecided and whose
  ``shortestPath`` is empty decides on ``i``.  Every node then blacklists the
  far prefix of the path it accepted.
* **Continue window (rounds i+3 .. 2i+5).**  Undecided nodes broadcast a
  continue message which is flooded for ``i+3`` rounds; decided nodes that do
  not hear a continue message stop participating (they may re-enter later if
  a continue message reaches them, Lines 43-44).

Theorem 2: on ``H(n, d)`` random regular graphs with up to ``B(n) = n^(1/2-ξ)``
adversarially placed Byzantine nodes, at least ``(1-β)n`` nodes decide a
constant-factor estimate of ``log n`` within ``O(B(n)·log² n)`` rounds, and
most good nodes only ever send messages of ``O(log n)`` bits plus a constant
number of ids.

Implementation notes
--------------------
* All nodes share a synchronized clock (Section 2), so the phase/iteration/
  round-within-iteration position is a deterministic function of the global
  round number, provided by :class:`PhaseSchedule`.
* Nodes that stopped participating still *passively forward* beacon and
  continue messages (they generate neither); this matches the pseudocode's
  "forwarded by correct nodes" and guarantees quiescence in the benign case
  (Corollary 1) because eventually nothing new is generated.
* The trusted-suffix length ``⌊(1-ε)i⌋`` can round to zero at simulable
  scales; :class:`~repro.core.parameters.CongestParameters.min_suffix` keeps
  it at least 1 by default (see the parameter documentation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.simulator.byzantine import Adversary
from repro.core.beacon import (
    BEACON_KIND,
    CONTINUE_KIND,
    BeaconPayload,
    forward_beacon_message,
    make_beacon_message,
    make_continue_message,
    parse_beacon,
)
from repro.core.blacklist import PhaseBlacklist
from repro.core.estimate import CountingOutcome, ProtocolRun
from repro.core.parameters import CongestParameters
from repro.graphs.graph import Graph
from repro.simulator.churn import ChurnSchedule
from repro.simulator.engine import SynchronousEngine
from repro.simulator.messages import Message
from repro.simulator.network import Network
from repro.simulator.node import Broadcast, NodeContext, Outbox, Protocol

__all__ = [
    "PhaseSchedule",
    "SchedulePosition",
    "CongestCountingProtocol",
    "run_congest_counting",
]


@dataclass(frozen=True)
class SchedulePosition:
    """Where a global round falls in the phase/iteration/step structure."""

    phase: int
    iteration: int  # 1-based within the phase
    step: int  # 1-based within the iteration (1 .. 2*phase + 5)

    @property
    def is_iteration_start(self) -> bool:
        """First round of an iteration (beacon generation happens here)."""
        return self.step == 1


class PhaseSchedule:
    """Deterministic mapping from global round numbers to schedule positions.

    Rounds are numbered from 1 (round 0 is the engine's start round in which
    Algorithm 2 sends nothing).  Phase ``c`` starts at round 1.
    """

    def __init__(self, params: CongestParameters) -> None:
        self.params = params
        self._phase_starts: List[Tuple[int, int]] = []  # (phase, first_round)
        self._next_round = 1
        self._next_phase = params.first_phase
        # (phase, start, end, rounds_per_iteration) of the most recent lookup:
        # consecutive rounds almost always fall in the same phase, so this
        # makes `locate` O(1) on the per-round hot path.
        self._current_span: Optional[Tuple[int, int, int, int]] = None
        # All protocol instances of a run share one schedule and ask about the
        # same round in sequence, so the last (round, position) pair is a
        # near-perfect cache.
        self._last_position: Optional[Tuple[int, SchedulePosition]] = None

    def _append_next_phase(self) -> None:
        """Append one phase to the table (the only place the table grows)."""
        self._phase_starts.append((self._next_phase, self._next_round))
        self._next_round += self.params.phase_length(self._next_phase)
        self._next_phase += 1

    def _extend_through(self, round_number: int) -> None:
        """Ensure the phase table covers ``round_number``.

        Extends *geometrically*: every extension at least doubles the covered
        round horizon, so a sequence of monotonically growing lookups costs
        amortized O(1) per phase instead of re-entering the loop once per
        phase (deep phases previously paid quadratic schedule growth).
        """
        if self._phase_starts:
            covered = self._phase_end(self._phase_starts[-1])
            if covered >= round_number:
                return
            target = max(round_number, 2 * covered)
        else:
            target = round_number
        while not self._phase_starts or self._phase_end(self._phase_starts[-1]) < target:
            self._append_next_phase()

    def _phase_end(self, entry: Tuple[int, int]) -> int:
        phase, start = entry
        return start + self.params.phase_length(phase) - 1

    def locate(self, round_number: int) -> SchedulePosition:
        """Return the position of ``round_number`` (which must be >= 1)."""
        last = self._last_position
        if last is not None and last[0] == round_number:
            return last[1]
        if round_number < 1:
            raise ValueError("Algorithm 2 rounds are numbered from 1")
        span = self._current_span
        if span is None or not (span[1] <= round_number <= span[2]):
            span = self._locate_span(round_number)
        phase, start, _end, rpi = span
        offset = round_number - start
        iteration = offset // rpi + 1
        step = offset % rpi + 1
        position = SchedulePosition(phase=phase, iteration=iteration, step=step)
        self._last_position = (round_number, position)
        return position

    def _locate_span(self, round_number: int) -> Tuple[int, int, int, int]:
        self._extend_through(round_number)
        # The phases list is short (tens of entries); linear scan is fine.
        for phase, start in reversed(self._phase_starts):
            if round_number >= start:
                span = (
                    phase,
                    start,
                    self._phase_end((phase, start)),
                    self.params.rounds_per_iteration(phase),
                )
                self._current_span = span
                return span
        raise AssertionError("unreachable: schedule did not cover the round")

    def phase_start_round(self, phase: int) -> int:
        """First global round of ``phase`` (O(1) from the phase table)."""
        first = self.params.first_phase
        if phase < first:
            raise ValueError("phase precedes the first phase")
        while self._next_phase <= phase:
            self._append_next_phase()
        return self._phase_starts[phase - first][1]

    def end_of_phase_round(self, phase: int) -> int:
        """Last global round of ``phase``."""
        return self.phase_start_round(phase) + self.params.phase_length(phase) - 1


class CongestCountingProtocol(Protocol):
    """Per-node implementation of Algorithm 2."""

    def __init__(self, ctx: NodeContext, params: CongestParameters, schedule: PhaseSchedule) -> None:
        self.params = params
        self.schedule = schedule
        self._decided = False
        self._estimate: Optional[float] = None
        self._decision_round: Optional[int] = None
        self._participating = True
        self._blacklist = PhaseBlacklist()
        self._current_phase: Optional[int] = None
        # Per-iteration state, reset at every iteration start instead of
        # reallocated: the continue message is identical every time it is
        # sent (the engine never mutates outbox messages), and the per-phase
        # schedule constants below are derived once per phase in
        # ``_start_phase`` rather than once per round.
        self._shortest_path: Optional[Tuple[int, ...]] = None
        self._continue_seen = False
        self._continue_message = make_continue_message()
        self._rounds_per_iteration = 0
        self._beacon_window_end = 0
        self._forward_step_limit = 0
        self._continue_forward_limit = 0
        self._trusted_suffix = 0

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
        # Never report "halted" to the engine: even a node that decided and
        # exited the for-loop keeps forwarding passively and may re-enter upon
        # receiving a continue message (Lines 43-44), so it must keep being
        # scheduled.  Termination is detected by the runner's stop condition
        # (all decided, or full quiescence for the Corollary 1 benign case).
        return False

    @property
    def participating(self) -> bool:
        """Whether the node is currently inside the for-loop."""
        return self._participating

    @property
    def blacklist_size(self) -> int:
        """Number of ids currently blacklisted (diagnostics for experiment E8)."""
        return len(self._blacklist)

    # -- internals -------------------------------------------------------- #
    def _decide(self, phase: int, round_number: int) -> None:
        if not self._decided:
            self._decided = True
            self._estimate = float(phase)
            self._decision_round = round_number

    def _start_phase(self, phase: int) -> None:
        self._current_phase = phase
        self._blacklist.reset()
        params = self.params
        self._rounds_per_iteration = params.rounds_per_iteration(phase)
        self._beacon_window_end = phase + 2
        self._forward_step_limit = phase + 1
        self._continue_forward_limit = 2 * phase + 4
        self._trusted_suffix = params.trusted_suffix_length(phase)

    def _start_iteration(self, ctx: NodeContext, phase: int) -> Outbox:
        """Line 4-11: reset iteration state and possibly emit a beacon."""
        self._shortest_path = None
        self._continue_seen = False
        if not self._participating:
            return {}
        probability = self.params.activation_probability(phase, degree=max(ctx.degree, 2))
        if ctx.rng.random() < probability:
            # Line 7: the active node's own shortest path is just itself.
            # The beacon is trusted by construction (engine-provided int id),
            # so receivers reuse the pre-cached parse verdict.
            self._shortest_path = (ctx.node_id,)
            beacon = make_beacon_message(origin=ctx.node_id, path=(), trusted=True)
            return Broadcast(beacon, ctx.neighbors)
        return {}

    def _handle_beacons(
        self, ctx: NodeContext, inbox: List[Message], position: SchedulePosition
    ) -> Outbox:
        """Lines 13-26: process received beacons during the beacon window."""
        beacons: List[Message] = []
        for message in inbox:
            # Inlined fast path of ``parse_beacon``: shared delivery
            # envelopes and honest-forwarding verdict propagation mean almost
            # every payload already carries a cached verdict.  A valid parse
            # returns the payload object itself, so collecting the messages
            # alone suffices.
            if message.kind != BEACON_KIND:
                continue
            payload = message.payload
            if type(payload) is BeaconPayload:
                ok = payload._beacon_ok
                if ok:
                    beacons.append(message)
                    continue
                if ok is not None:
                    continue
            if parse_beacon(message) is not None:
                beacons.append(message)
        if not beacons:
            return {}
        # Line 14: discard all but one arbitrarily chosen message.
        message = beacons[ctx.rng.randrange(len(beacons))] if len(beacons) > 1 else beacons[0]
        payload = message.payload
        # Line 16: append the *actual* sender's id (unforgeable edge identity).
        extended = payload.extended(message.sender_id)

        outbox: Outbox = {}
        # Line 17-19: forward while still within the first i rounds.
        if position.step <= self._forward_step_limit:
            outbox = Broadcast(forward_beacon_message(extended), ctx.neighbors)

        # Lines 20-25: accept into shortestPath if the far prefix is clean.
        if self.params.blacklist_enabled:
            blocked = self._blacklist.blocks_path(extended.path, self._trusted_suffix)
        else:
            blocked = False
        if not blocked and self._shortest_path is None:
            self._shortest_path = extended.path
        return outbox

    def _decision_point(self, ctx: NodeContext, position: SchedulePosition) -> Outbox:
        """Lines 28-35: decide if no beacon was accepted; blacklist; send continue."""
        phase = position.phase
        if self._participating and self._shortest_path is None and not self._decided:
            self._decide(phase, ctx.round)
        if self.params.blacklist_enabled and self._shortest_path is not None:
            self._blacklist.add_path(self._shortest_path, self._trusted_suffix)
        if self._participating and not self._decided:
            return Broadcast(self._continue_message, ctx.neighbors)
        return {}

    def _handle_continues(
        self, ctx: NodeContext, inbox: List[Message], position: SchedulePosition
    ) -> Outbox:
        """Lines 36-40: forward continue messages and remember having seen one."""
        for message in inbox:
            if message.kind == CONTINUE_KIND:
                break
        else:
            return {}
        self._continue_seen = True
        # Forward (one copy, Line 37) while the window still has room for the
        # message to be useful.
        if position.step <= self._continue_forward_limit:
            return Broadcast(self._continue_message, ctx.neighbors)
        return {}

    def _end_of_iteration(self) -> None:
        """Lines 38-44: exit or re-enter the for-loop based on continue messages."""
        if self._decided and self._participating and not self._continue_seen:
            self._participating = False
        elif not self._participating and self._continue_seen:
            # Line 43-44: re-enter with the current phase value (the phase is
            # taken from the synchronized schedule, so no extra state needed).
            self._participating = True

    # -- engine callbacks ------------------------------------------------ #
    def on_start(self, ctx: NodeContext) -> Outbox:
        # Round 0 carries no algorithm actions; phase c starts at round 1.
        return {}

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Outbox:
        # Inlined ``locate`` cache hit: all protocol instances of a run share
        # one schedule and ask about the same round in sequence.
        schedule = self.schedule
        round_number = ctx.round
        last = schedule._last_position
        if last is not None and last[0] == round_number:
            position = last[1]
        else:
            position = schedule.locate(round_number)
        phase = position.phase
        if self._current_phase != phase:
            self._start_phase(phase)

        outbox: Outbox = {}
        step = position.step
        if step == 1:
            outbox = self._start_iteration(ctx, phase)
            # Beacons cannot have been received yet this iteration, but stray
            # continue messages from the previous iteration's last round are
            # impossible because forwarding stops one round earlier.
        elif step <= self._beacon_window_end:
            if inbox:
                outbox = self._handle_beacons(ctx, inbox, position)
        elif step == self._beacon_window_end + 1:
            outbox = self._decision_point(ctx, position)
        elif inbox:
            outbox = self._handle_continues(ctx, inbox, position)

        if step == self._rounds_per_iteration:
            self._end_of_iteration()
        return outbox


def run_congest_counting(
    graph: Graph,
    *,
    byzantine: Iterable[int] = (),
    adversary: Optional[Adversary] = None,
    params: Optional[CongestParameters] = None,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    stop_when_all_decided: bool = True,
    evaluation_set: Optional[Set[int]] = None,
    churn: Optional[ChurnSchedule] = None,
) -> ProtocolRun:
    """Execute Algorithm 2 on ``graph`` and summarize the outcome.

    Parameters
    ----------
    graph:
        The network topology (typically an ``H(n, d)`` random regular graph).
    byzantine:
        Indices of Byzantine nodes.
    adversary:
        Byzantine behaviour; defaults to silence.
    params:
        Algorithm parameters; defaults to :class:`CongestParameters` with
        ``d`` set to the graph's maximum degree.
    seed:
        Master seed for all node and adversary randomness.
    max_rounds:
        Safety cap; defaults to ``params.round_budget(n)``.
    stop_when_all_decided:
        If true (default) the run stops as soon as every honest node has
        decided -- the decisions are irrevocable so nothing further can
        change.  Set to false to observe the quiescence of Corollary 1.
    evaluation_set:
        Nodes over which outcome statistics are computed (``None`` means
        all honest nodes, an empty set none; experiments may pass
        ``GoodTL``).
    churn:
        Optional mid-run topology schedule, applied at the *engine* level
        (edge cuts, departures, fresh protocol slots for joiners).  The
        protocol itself does not adapt -- Algorithm 2's phase structure
        assumes a static graph, so churn measures its degradation: runs with
        departures or cut phases may exhaust ``max_rounds`` undecided.
    """
    if params is None:
        params = CongestParameters(d=max(3, graph.max_degree()))
    network = Network(graph=graph, byzantine=frozenset(byzantine))
    if max_rounds is None:
        max_rounds = params.round_budget(graph.n)
    schedule = PhaseSchedule(params)

    def factory(ctx: NodeContext) -> Protocol:
        return CongestCountingProtocol(ctx, params, schedule)

    engine = SynchronousEngine(
        network,
        factory,
        adversary=adversary,
        seed=seed,
        max_rounds=max_rounds,
        churn=churn,
    )

    # Both stop conditions read the engine's incrementally maintained
    # decision counter instead of scanning every protocol's ``decided`` flag
    # each round (decisions are irrevocable, so the counter is exact).
    num_honest = len(engine.protocols)
    if stop_when_all_decided:
        def stop_condition(protocols: Dict[int, Protocol], _round: int) -> bool:
            return engine.decided_count == num_honest
    else:
        # Corollary 1 mode: stop only when everyone has decided, exited the
        # for-loop, and the network has gone quiescent (no messages at all in
        # the previous round).  The participation scan only runs once all
        # decisions are in.
        def stop_condition(protocols: Dict[int, Protocol], _round: int) -> bool:
            if engine.decided_count < num_honest:
                return False
            all_done = all(not p.participating for p in protocols.values())
            last_round_messages = (
                engine.metrics.messages_per_round[-1]
                if engine.metrics.messages_per_round
                else 1
            )
            return all_done and last_round_messages == 0

    engine.stop_condition = stop_condition
    result = engine.run()
    return ProtocolRun(
        result=result,
        params=params,
        outcome=CountingOutcome.from_run(result, evaluation_set),
    )
