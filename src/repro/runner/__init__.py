"""Parallel sweep-runner subsystem.

Experiments express their sweeps as lists of JSON-serializable
:class:`SweepConfig` objects; :class:`SweepRunner` executes those lists
through a pluggable :class:`ExecutionBackend` -- in-process (``serial``), a
``multiprocessing`` pool (``pool``), or a lease-based broker/worker cluster
(``distributed``, one machine or many) -- caches every result as a JSON
artifact keyed by the config's content hash, and hands the rows back in
config order for aggregation into an
:class:`~repro.experiments.common.ExperimentResult`.  See RUNNER.md for the
architecture, the artifact/cache layout, and the distributed wire protocol.
"""

from repro.runner.artifacts import MISSING, ArtifactStore
from repro.runner.backends import (
    ExecutionBackend,
    PoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.runner.config import SweepConfig, canonical_json
from repro.runner.distributed import (
    Broker,
    BrokerError,
    DistributedBackend,
    SweepQueue,
    WorkerDaemon,
)
from repro.runner.distributed.broker import InjectedBrokerCrash
from repro.runner.faults import Backoff, FaultInjector, FaultPlan, InjectedFault
from repro.runner.hub import ResultsDB, SweepHub
from repro.runner.journal import SweepJournal
from repro.runner.registry import registered_tasks, resolve_task, run_task, sweep_task
from repro.runner.sweep import SweepRunner

__all__ = [
    "ArtifactStore",
    "Backoff",
    "Broker",
    "BrokerError",
    "DistributedBackend",
    "ExecutionBackend",
    "FaultInjector",
    "FaultPlan",
    "InjectedBrokerCrash",
    "InjectedFault",
    "MISSING",
    "PoolBackend",
    "ResultsDB",
    "SerialBackend",
    "SweepConfig",
    "SweepHub",
    "SweepJournal",
    "SweepQueue",
    "SweepRunner",
    "WorkerDaemon",
    "canonical_json",
    "registered_tasks",
    "resolve_backend",
    "resolve_task",
    "run_task",
    "sweep_task",
]
