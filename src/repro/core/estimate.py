"""Decision records and outcome statistics.

Definition 2 (Byzantine counting) asks that every honest node irrevocably
decide an estimate ``L_u`` of ``log n`` within ``T`` rounds and that a large
set ``S`` of honest nodes have ``c1·log n <= L_u <= c2·log n`` for fixed
constants ``c1, c2``.  :meth:`CountingOutcome.from_run` turns a raw
simulation run into exactly these quantities so that every experiment and
test states its acceptance criteria in the paper's own terms, and
:class:`ProtocolRun` is what every protocol's run function returns.

All logarithms here are natural logarithms (the paper's phase counts and
``⌈log n⌉`` bounds are stated in natural logarithms; see Lemma 11).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.simulator.engine import RunResult

__all__ = ["DecisionRecord", "CountingOutcome", "ProtocolRun", "approximation_band"]


def approximation_band(
    n: int, *, lower_factor: float, upper_factor: float
) -> Tuple[float, float]:
    """The acceptance interval ``[lower_factor·ln n, upper_factor·ln n]``."""
    log_n = math.log(max(n, 2))
    return lower_factor * log_n, upper_factor * log_n


@dataclass(frozen=True)
class DecisionRecord:
    """Decision state of a single honest node at the end of a run."""

    node: int
    decided: bool
    estimate: Optional[float]
    decision_round: Optional[int]

    def within(self, low: float, high: float) -> bool:
        """Whether the node decided an estimate inside ``[low, high]``."""
        return self.decided and self.estimate is not None and low <= self.estimate <= high


@dataclass
class CountingOutcome:
    """Aggregate outcome of one Byzantine-counting run.

    Attributes
    ----------
    n:
        True (hidden) network size.
    records:
        One :class:`DecisionRecord` per honest node.
    evaluation_set:
        The subset of honest nodes against which the theorem's guarantee is
        evaluated (``Good`` for Theorem 1, ``GoodTL``-style sets or all honest
        nodes for Theorem 2).  ``None`` (the default) means all honest
        nodes; an empty set stays empty, so a run whose evaluation set
        holds no honest node scores no node (``decided_fraction`` 0.0, no
        median).
    rounds_executed:
        Number of rounds the simulation ran.
    total_messages, total_bits:
        Communication volume of the run.
    small_message_fraction:
        Fraction of honest nodes that sent only small messages (Theorem 2's
        message-size claim); ``None`` when not tracked.
    """

    n: int
    records: Dict[int, DecisionRecord]
    evaluation_set: Optional[Set[int]] = None
    rounds_executed: int = 0
    total_messages: int = 0
    total_bits: int = 0
    small_message_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if self.evaluation_set is None:
            self.evaluation_set = set(self.records)
        else:
            self.evaluation_set = set(self.evaluation_set) & set(self.records)

    @classmethod
    def from_run(
        cls, result: RunResult, evaluation_set: Optional[Set[int]] = None
    ) -> "CountingOutcome":
        """Summarize an engine run: one :class:`DecisionRecord` per honest
        node, plus the run's round and communication totals."""
        n = result.network.n
        protocols = result.protocols
        metrics = result.metrics
        return cls(
            n=n,
            records={
                u: DecisionRecord(
                    node=u,
                    decided=p.decided,
                    estimate=p.estimate,
                    decision_round=p.decision_round,
                )
                for u, p in protocols.items()
            },
            evaluation_set=evaluation_set,
            rounds_executed=result.rounds_executed,
            total_messages=metrics.total_messages,
            total_bits=metrics.total_bits,
            small_message_fraction=metrics.small_message_fraction(n, list(protocols)),
        )

    # ------------------------------------------------------------------ #
    @property
    def log_n(self) -> float:
        """Natural logarithm of the true network size."""
        return math.log(max(self.n, 2))

    def _eval_records(self) -> List[DecisionRecord]:
        return [self.records[u] for u in sorted(self.evaluation_set)]

    @staticmethod
    def counts_as_decided(record: DecisionRecord) -> bool:
        """The one meaning of "decided": the node decided a finite estimate.

        A node that decided ``inf`` (support estimation under ``deflate``)
        or no value has no answer to score, so every statistic here leaves
        it out: the decided fraction, the estimates and their medians,
        ranges and histograms, and the latest decision round.
        """
        return (
            record.decided
            and record.estimate is not None
            and math.isfinite(record.estimate)
        )

    def _decided_records(self, over_evaluation_set: bool) -> List[DecisionRecord]:
        records = self._eval_records() if over_evaluation_set else self.records.values()
        return [r for r in records if self.counts_as_decided(r)]

    def decided_fraction(self, *, over_evaluation_set: bool = True) -> float:
        """Fraction of (evaluation-set or all honest) nodes that decided."""
        total = len(self.evaluation_set) if over_evaluation_set else len(self.records)
        if not total:
            return 0.0
        return len(self._decided_records(over_evaluation_set)) / total

    def estimates(self, *, over_evaluation_set: bool = True) -> List[float]:
        """Decided estimates (evaluation set by default)."""
        return [r.estimate for r in self._decided_records(over_evaluation_set)]

    def fraction_within_band(
        self, lower_factor: float, upper_factor: float, *, over_evaluation_set: bool = True
    ) -> float:
        """Fraction of nodes whose estimate lies in ``[lower·ln n, upper·ln n]``.

        This is Definition 2's success criterion with explicit constants.
        """
        low, high = approximation_band(
            self.n, lower_factor=lower_factor, upper_factor=upper_factor
        )
        records = self._eval_records() if over_evaluation_set else list(self.records.values())
        if not records:
            return 0.0
        return sum(1 for r in records if r.within(low, high)) / len(records)

    def approximation_ratios(self, *, over_evaluation_set: bool = True) -> List[float]:
        """Per-node ratios ``L_u / ln n`` for decided nodes."""
        return [e / self.log_n for e in self.estimates(over_evaluation_set=over_evaluation_set)]

    def median_estimate(self, *, over_evaluation_set: bool = True) -> Optional[float]:
        """Median decided estimate, or ``None`` if nothing decided."""
        values = self.estimates(over_evaluation_set=over_evaluation_set)
        return statistics.median(values) if values else None

    def estimate_range(self, *, over_evaluation_set: bool = True) -> Tuple[Optional[float], Optional[float]]:
        """(min, max) decided estimate."""
        values = self.estimates(over_evaluation_set=over_evaluation_set)
        if not values:
            return None, None
        return min(values), max(values)

    def max_decision_round(self, *, over_evaluation_set: bool = True) -> Optional[int]:
        """The latest decision round among decided nodes -- the ``T`` of Definition 2."""
        rounds = [
            r.decision_round
            for r in self._decided_records(over_evaluation_set)
            if r.decision_round is not None
        ]
        return max(rounds) if rounds else None

    def estimate_histogram(self, *, over_evaluation_set: bool = True) -> Dict[float, int]:
        """Histogram of decided estimates (value -> count)."""
        hist: Dict[float, int] = {}
        for value in self.estimates(over_evaluation_set=over_evaluation_set):
            hist[value] = hist.get(value, 0) + 1
        return dict(sorted(hist.items()))

    def satisfies_definition2(
        self,
        *,
        lower_factor: float,
        upper_factor: float,
        min_fraction: float,
    ) -> bool:
        """Check Definition 2: every eval node decided, and a ``min_fraction``
        of them decided inside the approximation band."""
        if self.decided_fraction() < 1.0 - 1e-12:
            return False
        return self.fraction_within_band(lower_factor, upper_factor) >= min_fraction

    def summary(self) -> Dict[str, object]:
        """Dictionary summary used by the experiment tables."""
        low, high = self.estimate_range()
        return {
            "n": self.n,
            "log_n": round(self.log_n, 3),
            "eval_nodes": len(self.evaluation_set),
            "decided_fraction": round(self.decided_fraction(), 4),
            "median_estimate": self.median_estimate(),
            "min_estimate": low,
            "max_estimate": high,
            "max_decision_round": self.max_decision_round(),
            "rounds_executed": self.rounds_executed,
            "total_messages": self.total_messages,
            "small_message_fraction": self.small_message_fraction,
        }


@dataclass
class ProtocolRun:
    """One protocol execution, whatever the protocol.

    ``result`` is the engine's raw :class:`RunResult`, ``params`` the
    effective parameters (a parameter object for the paper's algorithms, a
    dict for the zoo and the baselines), ``outcome`` the run's
    :class:`CountingOutcome` and ``extra_metrics`` the protocol-specific
    values the scenario metrics add after the uniform keys (empty for the
    paper's algorithms and the baselines).  For binary-consensus families
    the "estimate" is the decided value (0.0 or 1.0), so the band metrics
    mean nothing for them, but decision fractions, rounds and communication
    volume come from the same code as for the paper's protocols.
    """

    result: RunResult
    params: Any
    outcome: CountingOutcome
    extra_metrics: Dict[str, Any] = field(default_factory=dict)
