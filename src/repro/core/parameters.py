"""Algorithm parameters and the derived quantities of Equations (2)-(4).

The paper leaves several constants symbolic ("for a sufficiently large
constant c₁", "any fixed constant α′ < α"); this module makes every one of
them an explicit, documented field with defaults chosen so the analysis'
inequalities are meaningful at simulable scales (n up to a few thousand).
Experiments report sensitivity to these choices (benchmark E8/E9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["LocalParameters", "CongestParameters", "byzantine_budget"]


def byzantine_budget(n: int, exponent: float) -> int:
    """Number of Byzantine nodes ``floor(n ** exponent)`` (e.g. ``n^(1-γ)`` or ``n^(1/2-ξ)``)."""
    if n <= 0:
        return 0
    if exponent <= 0:
        return 0
    return int(math.floor(n ** exponent))


@dataclass(frozen=True)
class LocalParameters:
    """Parameters of the deterministic LOCAL algorithm (Algorithm 1 / Theorem 1).

    Attributes
    ----------
    gamma:
        Byzantine-tolerance exponent: up to ``n^(1-gamma)`` Byzantine nodes.
        Any arbitrarily small positive constant; Theorem 1's approximation
        factor is ``(gamma/2) * log Δ``.
    max_degree:
        The known degree bound Δ.  Nodes reject any received topology claim
        with a larger degree (Line 17 of Algorithm 1).
    alpha_prime:
        The expansion threshold α′ of the per-round expansion check (Line 11).
        Must be strictly below the true vertex expansion α of the network for
        the guarantees to hold; the default 0.25 is below the expansion of
        every expander family shipped in :mod:`repro.graphs`.
    exhaustive_subset_check:
        If true, Line 9's check enumerates *every* subset of the local view
        (exponential; only usable on tiny graphs, provided for test
        cross-validation).  The default checks the family of sets the proofs
        actually use: every BFS-layer prefix of the view and the full view.
    """

    gamma: float = 0.5
    max_degree: int = 8
    alpha_prime: float = 0.25
    exhaustive_subset_check: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.max_degree < 2:
            raise ValueError("max_degree must be at least 2")
        if self.alpha_prime <= 0.0:
            raise ValueError("alpha_prime must be positive")

    def byzantine_bound(self, n: int) -> int:
        """Maximum tolerated Byzantine nodes, ``n^(1-gamma)``."""
        return byzantine_budget(n, 1.0 - self.gamma)

    def lower_decision_bound(self, n: int) -> int:
        """Lemma 3's lower bound ``floor((gamma/2) log_Δ n)`` on Good nodes' decisions."""
        if n < 2:
            return 0
        return int(math.floor((self.gamma / 2.0) * math.log(n, self.max_degree)))


@dataclass(frozen=True)
class CongestParameters:
    """Parameters of the randomized small-message algorithm (Algorithm 2 / Theorem 2).

    The analysis (Section 5.1) is parameterized by γ, δ, η with the constraint
    of Equation (2), ``γ >= 1/2 - δ + η``; the maximum Byzantine tolerance is
    reached with δ, η close to 0 and γ close to 1/2, giving ``B(n) = n^(1/2-ξ)``.

    Attributes
    ----------
    gamma:
        Byzantine-tolerance exponent (number of Byzantine nodes ``n^(1-gamma)``).
        The only global constant nodes are assumed to know (Algorithm 2's
        caption).
    delta, eta:
        The analysis constants of Equation (2); used to derive ε and ρ.
    d:
        The nominal degree of the ``H(n, d)`` network, used in the activation
        probability ``c₁·i / dⁱ`` and in ε.  (Each node could equally use its
        own degree; the graphs are d-regular up to a vanishing fraction.)
    c1:
        The activation constant of Line 5 ("sufficiently large constant c₁").
    first_phase:
        The starting phase ``c`` of Line 1 (``c >= 2 log 2 / ((2-δ)η)``).
    blacklist_enabled:
        Ablation switch for experiment E8; the paper's algorithm always has it
        on.
    min_suffix:
        Floor applied to the trusted-suffix length ``⌊(1-ε)i⌋``.  The paper's
        asymptotic analysis has ``(1-ε)i >= 1`` because i = Ω(log n); at
        simulable scales the floor keeps the mechanism non-degenerate.  Set to
        0 to disable.
    """

    gamma: float = 0.5
    delta: float = 0.1
    eta: float = 0.05
    d: int = 8
    c1: float = 4.0
    first_phase: int = 2
    blacklist_enabled: bool = True
    min_suffix: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if not 0.0 < self.delta <= 0.5:
            raise ValueError("delta must lie in (0, 1/2]")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.gamma < 0.5 - self.delta + self.eta - 1e-12:
            raise ValueError(
                "Equation (2) violated: gamma must be >= 1/2 - delta + eta "
                f"(got gamma={self.gamma}, delta={self.delta}, eta={self.eta})"
            )
        if self.d < 3:
            raise ValueError("d must be at least 3")
        if self.c1 <= 0:
            raise ValueError("c1 must be positive")
        if self.first_phase < 1:
            raise ValueError("first_phase must be at least 1")
        if self.min_suffix < 0:
            raise ValueError("min_suffix must be non-negative")

    # ------------------------------------------------------------------ #
    # Derived quantities (Equations (3) and (4))
    # ------------------------------------------------------------------ #
    @property
    def epsilon(self) -> float:
        """Equation (3): ε = 1 - (1-δ)·γ / ln d.

        Derived so that ``d^((1-ε)i) = e^((1-δ)γ i)`` as used in Lemma 8.
        """
        return 1.0 - (1.0 - self.delta) * self.gamma / math.log(self.d)

    def trusted_suffix_length(self, phase: int) -> int:
        """``⌊(1-ε)·i⌋`` -- the path suffix a node blindly trusts in phase ``i``."""
        raw = int(math.floor((1.0 - self.epsilon) * phase))
        return max(self.min_suffix, raw)

    def rho(self, n: int) -> int:
        """Equation (4): ρ = ⌊min((1-δ)γ log_d n, log_d(n)/10)⌋ - 2.

        The phase up to which the early-phase analysis (Lemmas 6-10) applies.
        May be negative at small n; callers should clamp as appropriate.
        """
        if n < 2:
            return -2
        log_d_n = math.log(n, self.d)
        return int(math.floor(min((1.0 - self.delta) * self.gamma * log_d_n, log_d_n / 10.0))) - 2

    def byzantine_bound(self, n: int) -> int:
        """Maximum tolerated Byzantine nodes, ``n^(1-gamma)``."""
        return byzantine_budget(n, 1.0 - self.gamma)

    # ------------------------------------------------------------------ #
    # Schedule quantities (Algorithm 2, Lines 1-3)
    # ------------------------------------------------------------------ #
    def iterations_in_phase(self, phase: int) -> int:
        """``⌊e^((1-γ)i)⌋ + 1`` iterations in phase ``i`` (Line 3)."""
        return int(math.floor(math.exp((1.0 - self.gamma) * phase))) + 1

    def rounds_per_iteration(self, phase: int) -> int:
        """``2i + 5`` rounds per iteration of phase ``i`` (Line 3)."""
        return 2 * phase + 5

    def beacon_window(self, phase: int) -> int:
        """Length of the beacon-dissemination window: ``i + 2`` rounds."""
        return phase + 2

    def continue_window(self, phase: int) -> int:
        """Length of the continue-message window: ``i + 3`` rounds."""
        return phase + 3

    def activation_probability(self, phase: int, degree: Optional[int] = None) -> float:
        """Line 5: a node becomes active with probability ``c₁·i / dⁱ`` (capped at 1)."""
        d = degree if degree is not None else self.d
        return min(1.0, self.c1 * phase / float(d) ** phase)

    def phase_length(self, phase: int) -> int:
        """Total rounds of phase ``i``."""
        return self.iterations_in_phase(phase) * self.rounds_per_iteration(phase)

    def rounds_through_phase(self, last_phase: int) -> int:
        """Total rounds from the start of phase ``c`` through the end of ``last_phase``."""
        return sum(
            self.phase_length(i) for i in range(self.first_phase, last_phase + 1)
        )

    def expected_decision_phase(self, n: int) -> int:
        """Back-of-envelope phase by which global beacon generation dies out.

        The expected number of active good nodes in phase ``i`` is
        ``n · c₁·i / dⁱ``; the first phase where this drops below 1 is the
        natural decision phase in the benign case.  Used only to size
        simulation budgets, never by the protocol itself.
        """
        phase = self.first_phase
        while phase < 80:
            expected_active = n * self.activation_probability(phase)
            if expected_active < 0.5:
                return phase
            phase += 1
        return phase

    def round_budget(self, n: int, *, slack_phases: int = 3) -> int:
        """A safe max-round budget for a run on an ``n``-node network.

        Covers every phase through ``max(⌈ln n⌉, expected decision phase) +
        slack_phases`` -- the analysis (Lemma 11) guarantees decisions by
        phase ``⌈ln n⌉`` whp, and the slack absorbs Byzantine stretching up to
        the blacklist exhaustion point.
        """
        last = max(int(math.ceil(math.log(max(n, 2)))), self.expected_decision_phase(n))
        return self.rounds_through_phase(last + slack_phases) + 10
