"""Shared message helpers and the one engine-run path of the baseline estimators."""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, Optional, Set

from repro.core.estimate import CountingOutcome, ProtocolRun
from repro.graphs.graph import Graph
from repro.simulator.byzantine import Adversary
from repro.simulator.churn import ChurnSchedule
from repro.simulator.engine import SynchronousEngine
from repro.simulator.messages import Message
from repro.simulator.network import Network
from repro.simulator.node import NodeContext, Protocol

__all__ = [
    "BaselineProtocol",
    "default_budget",
    "run_baseline",
    "value_payload",
    "parse_value",
]


class BaselineProtocol(Protocol):
    """Decision state of the baselines.

    A baseline decides once, by setting ``_decided``, ``_estimate`` and
    ``_decision_round`` (which the base class's ``decision_round`` reads).
    """

    _decided = False
    _estimate: Optional[float] = None
    _decision_round: Optional[int] = None

    @property
    def decided(self) -> bool:
        return self._decided

    @property
    def estimate(self) -> Optional[float]:
        return self._estimate


def value_payload(kind_tag: str, value: float) -> Message:
    """A small message carrying one numeric protocol value."""
    return Message(kind="estimate", payload=(kind_tag, float(value)), size_bits=64, num_ids=0)


def parse_value(message: Message, kind_tag: str) -> Optional[float]:
    """Extract a numeric value from an ``estimate`` message.

    Honest senders use ``(kind_tag, value)`` tuples.  Byzantine senders (the
    :class:`~repro.adversary.strategies.ValueFakingAdversary`) send bare
    floats; these are interpreted as a claimed value of whatever protocol the
    receiver runs -- which is exactly the attack the baseline has no defence
    against.
    """
    if message.kind != "estimate":
        return None
    payload = message.payload
    if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == kind_tag:
        try:
            return float(payload[1])
        except (TypeError, ValueError):
            return None
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        return float(payload)
    return None


def default_budget(graph: Graph) -> int:
    """The per-phase round budget ``2·ceil(log2 n) + 6``.

    Enough for a maximum to flood any expander; it is information the real
    counting protocols cannot assume, which is part of why they are harder
    to build.
    """
    return 2 * int(math.ceil(math.log2(max(graph.n, 2)))) + 6


def run_baseline(
    graph: Graph,
    factory: Callable[[NodeContext], Protocol],
    *,
    byzantine: Iterable[int],
    adversary: Optional[Adversary],
    seed: int,
    max_rounds: int,
    evaluation_set: Optional[Set[int]],
    churn: Optional[ChurnSchedule],
    params: Dict[str, Any],
) -> ProtocolRun:
    """Run one baseline protocol and summarize it into a :class:`ProtocolRun`.

    A node's ``estimate`` is its estimate of ``ln n``; ``None`` means it
    produced none (e.g. the flood never reached it).
    """
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
    return ProtocolRun(
        result=result,
        params=params,
        outcome=CountingOutcome.from_run(result, evaluation_set),
    )
