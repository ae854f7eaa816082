"""Non-Byzantine-resilient size-estimation baselines (Section 1.2).

The paper motivates its algorithms by observing that the classical network
size estimators all collapse as soon as a single Byzantine node is present:

* :mod:`repro.baselines.geometric` -- every node draws a geometric random
  variable and the network propagates the maximum (``max ≈ log2 n``); a
  Byzantine node can fake an arbitrarily large value.
* :mod:`repro.baselines.support_estimation` -- every node draws exponential
  variables and the network propagates coordinate-wise minima
  (``n ≈ (k-1)/Σ min``); a Byzantine node can fake minima near zero.
* :mod:`repro.baselines.spanning_tree` -- build a BFS tree from the maximum-id
  node and converge-cast subtree counts; a Byzantine node can report an
  arbitrary subtree count (or hijack leadership with a fake id).
* :mod:`repro.baselines.flooding` -- the maximum-id node floods a token and
  nodes estimate ``log n`` from the flood's arrival times (≈ diameter for an
  expander); a Byzantine node can replay or fabricate tokens and hop counts.

Each module has one run function, ``run_<name>_baseline``, that returns the
:class:`~repro.core.estimate.ProtocolRun` every protocol returns (with empty
``extra_metrics``) through :func:`repro.baselines.common.run_baseline`.
Experiment E7 calls them with zero, one, and several Byzantine nodes to
regenerate the motivating claim, and :mod:`repro.scenarios.protocols`
registers the same functions as the ``flooding``, ``geometric``,
``spanning-tree`` and ``support-estimation`` scenario protocols.
"""

from repro.baselines.geometric import GeometricMaxProtocol, run_geometric_baseline
from repro.baselines.support_estimation import (
    SupportEstimationProtocol,
    run_support_estimation_baseline,
)
from repro.baselines.spanning_tree import SpanningTreeProtocol, run_spanning_tree_baseline
from repro.baselines.flooding import FloodingDiameterProtocol, run_flooding_baseline

__all__ = [
    "GeometricMaxProtocol",
    "run_geometric_baseline",
    "SupportEstimationProtocol",
    "run_support_estimation_baseline",
    "SpanningTreeProtocol",
    "run_spanning_tree_baseline",
    "FloodingDiameterProtocol",
    "run_flooding_baseline",
]
