"""The Sweep Hub: a standing multi-tenant sweep service.

The broker core (:mod:`repro.runner.distributed.broker`) leases tasks to
a worker fleet.  This package makes it a *service*:

- :class:`~repro.runner.hub.service.SweepHub` -- a persistent
  :class:`~repro.runner.distributed.broker.Broker` owning one
  shared worker fleet and accepting any number of concurrent sweep
  submissions over the same line-delimited-JSON TCP port the workers use,
  with priorities and fair-share dispatch across sweeps.
- :class:`~repro.runner.hub.client.HubSubmission` /
  :func:`~repro.runner.hub.client.query_hub_status` -- the client side;
  the distributed backend rides it, submitting either to a standing hub
  (``DistributedBackend(connect=...)``, ``--connect`` on every runner
  CLI) or to a hub of its own, started in-process for one sweep.
- :class:`~repro.runner.hub.resultsdb.ResultsDB` -- run-history queries
  (``runs list/show/diff``, ``sweeps``) over the artifact files and sweep
  journals, which stay the source of truth.
- ``SweepHub(state_dir=...)`` -- crash-safe hub-side submission
  journaling (one :class:`~repro.runner.journal.SweepJournal` per sweep)
  with restart re-adoption (``hub serve --state DIR``), plus admission
  control (``hub serve --max-pending N``).

The hub spawns no workers: its fleet is whatever dials in with
``repro-byzantine-counting worker --connect HOST:PORT`` -- or, for the
backend's own hub, the loopback workers the backend forks into it.

Entry points: ``repro hub serve`` (daemon), ``repro hub status``, plus
``--connect HOST:PORT`` on the runner commands.
See RUNNER.md's "Sweep Hub" section for the protocol and a quickstart.
"""

from repro.runner.hub.client import HubSubmission, query_hub_status
from repro.runner.hub.resultsdb import ResultsDB
from repro.runner.hub.service import SweepHub

__all__ = [
    "HubSubmission",
    "ResultsDB",
    "SweepHub",
    "query_hub_status",
]
