"""The Sweep Hub: a standing multi-tenant sweep service.

The distributed backend's broker (PR 5) is per-sweep and ephemeral -- one
queue, one consumer, torn down when the sweep drains.  This package makes
it a *service*:

- :class:`~repro.runner.hub.service.SweepHub` -- a persistent broker
  (hub-mode :class:`~repro.runner.distributed.broker.Broker`) owning one
  shared worker fleet and accepting any number of concurrent sweep
  submissions over the same line-delimited-JSON TCP port the workers use,
  with priorities and fair-share dispatch across sweeps.
- :class:`~repro.runner.hub.client.HubSubmission` /
  :func:`~repro.runner.hub.client.query_hub_status` -- the client side;
  ``DistributedBackend(connect=...)`` (and ``--connect`` on every runner
  CLI) rides it, so ``sweep``, ``scenario run``, and ``bench`` can submit
  to a standing hub instead of spawning a private broker.
- :class:`~repro.runner.hub.resultsdb.ResultsDB` -- run-history queries
  (``runs list/show/diff``, ``sweeps``) over the artifact files and sweep
  journals, which stay the source of truth.
- :class:`~repro.runner.hub.dashboard.DashboardServer` -- a stdlib
  ``http.server`` HTML view of the queue, fleet, run history, and bench
  trajectory.
- :class:`~repro.runner.hub.supervisor.HubSupervisor` plus
  ``SweepHub(state_dir=...)`` -- the high-availability layer: crash-safe
  hub-side submission journaling (one
  :class:`~repro.runner.journal.SweepJournal` per sweep) with restart
  re-adoption (``hub serve --state DIR``), and the supervision
  loop that watches queue depth / fleet liveness, emits scale signals,
  and optionally autoscales a loopback worker pool
  (``hub serve --autoscale MIN:MAX``).

Entry points: ``repro hub serve`` (daemon), ``repro hub status``,
``repro hub dash``, plus ``--connect HOST:PORT`` on the runner commands.
See RUNNER.md's "Sweep Hub" section for the protocol and a quickstart.
"""

from repro.runner.hub.client import HubSubmission, query_hub_status, submit_to_hub
from repro.runner.hub.dashboard import DashboardServer
from repro.runner.hub.resultsdb import ResultsDB
from repro.runner.hub.service import SweepHub
from repro.runner.hub.supervisor import HubSupervisor

__all__ = [
    "DashboardServer",
    "HubSubmission",
    "HubSupervisor",
    "ResultsDB",
    "SweepHub",
    "query_hub_status",
    "submit_to_hub",
]
