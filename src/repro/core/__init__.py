"""The paper's primary contribution: the two Byzantine counting algorithms.

* :mod:`repro.core.local_counting` -- Algorithm 1, the deterministic
  time-optimal LOCAL-model algorithm of Theorem 1.
* :mod:`repro.core.congest_counting` -- Algorithm 2, the randomized
  small-message algorithm of Theorem 2 (beacons, path fields, blacklisting,
  continue messages).
* :mod:`repro.core.parameters` -- the parameter sets (γ, ξ, δ, η, ε, c, c₁, α′)
  and the derived quantities of Equations (2)-(4).
* :mod:`repro.core.estimate` -- decision records and outcome statistics used
  to state the theorems' guarantees quantitatively, and the one run type
  every protocol returns.
"""

from repro.core.parameters import LocalParameters, CongestParameters, byzantine_budget
from repro.core.estimate import (
    CountingOutcome,
    DecisionRecord,
    ProtocolRun,
    approximation_band,
)
from repro.core.local_counting import LocalCountingProtocol, run_local_counting
from repro.core.congest_counting import (
    CongestCountingProtocol,
    PhaseSchedule,
    run_congest_counting,
)
from repro.core.beacon import BeaconPayload, make_beacon_message, make_continue_message

__all__ = [
    "LocalParameters",
    "CongestParameters",
    "byzantine_budget",
    "DecisionRecord",
    "CountingOutcome",
    "ProtocolRun",
    "approximation_band",
    "LocalCountingProtocol",
    "run_local_counting",
    "CongestCountingProtocol",
    "PhaseSchedule",
    "run_congest_counting",
    "BeaconPayload",
    "make_beacon_message",
    "make_continue_message",
]
