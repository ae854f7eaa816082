"""The protocol zoo: consensus families beyond the paper's two algorithms.

The paper's Algorithm 1 (LOCAL counting) and Algorithm 2 (CONGEST counting)
ride the :class:`~repro.simulator.engine.SynchronousEngine` through the
:class:`~repro.simulator.node.Protocol` seam.  This package pressure-tests
that seam with protocol families that have nothing to do with counting:

* :mod:`repro.protocols.benor` -- BenOr-style randomized binary consensus
  (R1/R2 phases, majority thresholds, deterministic per-node coin streams);
* :mod:`repro.protocols.grouped_bft` -- consistent-hash node grouping with
  per-group OM(m)-style Byzantine agreement and cross-group aggregation.

Every family ships a run function returning the
:class:`~repro.core.estimate.ProtocolRun` that the paper's algorithms and
the Section 1.2 baselines (:mod:`repro.baselines`) return too, so the
generic scenario metrics extraction, suite reducers, and experiment tables
work unchanged; protocol-specific metrics (agreement reached, decided-value
distribution, phases-to-decide) ride along in ``.extra_metrics``.
Registration into the ``PROTOCOLS`` registry happens in
:mod:`repro.scenarios.protocols`.
"""

from repro.protocols.common import binary_decision_metrics
from repro.protocols.grouping import GroupAssignment, assign_groups, ring_hash
from repro.protocols.benor import BenOrProtocol, run_benor, spec_validate_benor
from repro.protocols.grouped_bft import (
    GroupedBftProtocol,
    run_grouped_bft,
    spec_validate_grouped_bft,
)

__all__ = [
    "binary_decision_metrics",
    "GroupAssignment",
    "assign_groups",
    "ring_hash",
    "BenOrProtocol",
    "run_benor",
    "spec_validate_benor",
    "GroupedBftProtocol",
    "run_grouped_bft",
    "spec_validate_grouped_bft",
]
