"""Distributed sweep execution: broker / worker over line-delimited JSON TCP.

The subsystem behind ``SweepRunner(backend="distributed")`` (see RUNNER.md,
"Distributed backend"):

- :mod:`~repro.runner.distributed.protocol` -- the wire format (one JSON
  object per line; tasks cross as the same canonical ``{task, params}``
  documents that key the artifact cache).
- :mod:`~repro.runner.distributed.broker` -- the lease-based task queue:
  heartbeats, lease expiry, bounded retries, dispatch-time dedupe against
  the shared artifact cache, persistence through ``ArtifactStore``.
- :mod:`~repro.runner.distributed.worker` -- the daemon behind
  ``repro-byzantine-counting worker --connect HOST:PORT --workers N``.
- :mod:`~repro.runner.distributed.backend` -- the ``ExecutionBackend``
  that submits the runner's work to a :mod:`~repro.runner.hub` service
  built on the broker core (:class:`SweepQueue` is the per-sweep unit it
  multiplexes): a standing hub in ``connect`` mode, else a hub of its own
  for one sweep, plus optional forked loopback workers.
"""

from repro.runner.distributed.backend import DistributedBackend, spawn_loopback_worker
from repro.runner.distributed.broker import Broker, BrokerError, SweepQueue
from repro.runner.distributed.protocol import (
    PROTOCOL_VERSION,
    format_address,
    parse_address,
)
from repro.runner.distributed.worker import WorkerDaemon

__all__ = [
    "Broker",
    "BrokerError",
    "DistributedBackend",
    "PROTOCOL_VERSION",
    "SweepQueue",
    "WorkerDaemon",
    "format_address",
    "parse_address",
    "spawn_loopback_worker",
]
