"""The parallel sweep runner.

``SweepRunner`` fans a list of :class:`~repro.runner.config.SweepConfig` out
over an :class:`~repro.runner.backends.ExecutionBackend` -- in-process
(``serial``), a ``multiprocessing`` pool (``pool``), or a broker/worker
cluster (``distributed``, see :mod:`repro.runner.distributed`) -- persists
each result as a JSON artifact keyed by the config's content hash, and
returns the results **in config order** regardless of completion order.

Determinism contract
--------------------
Every task derives all randomness from the seeds inside its params, so a
config's result is a pure function of the config.  The runner additionally
normalizes every result through a JSON round-trip before returning it, so a
row obtained fresh from a worker is the same Python object tree as the same
row re-read from the artifact cache -- ``workers=1``, ``workers>1``,
distributed workers, and cached re-runs all aggregate into byte-identical
tables.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple, Union

from repro.runner.artifacts import MISSING, ArtifactStore
from repro.runner.backends import (
    ExecutionBackend,
    TaskMeta,
    WorkItem,
    resolve_backend,
)
from repro.runner.config import SweepConfig, canonical_key
from repro.runner.journal import SweepJournal
from repro.runner.registry import resolve_task

__all__ = ["SweepRunner"]


def _keyed(config: SweepConfig) -> Tuple[str, str]:
    """``config``'s canonical JSON and the artifact key hashed from it."""
    canonical = config.canonical()
    return canonical, canonical_key(canonical)


def _interned_dict(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    return {sys.intern(key): value for key, value in pairs}


def _canonical_result(value: Any) -> Any:
    """Normalize a task result through a JSON round-trip.

    This is what makes cached and freshly computed results indistinguishable;
    it also fails fast (``TypeError``) if a task returns something that could
    not have been persisted.  Dict keys are interned: a sweep's results
    repeat the same few dozen keys, and sharing one string per key keeps a
    long result list from holding a private copy of every key per row.
    """
    return json.loads(
        json.dumps(value, allow_nan=True), object_pairs_hook=_interned_dict
    )


class _ProgressLine:
    """The sweep-level ``k/N tasks, ETA`` line, shared by every backend.

    ``k`` counts *all* finished configs -- cache prefills, broker dedupe
    hits, and fresh executions alike -- so ``k/N`` is honest when the
    artifact cache short-circuits part of the sweep; the ETA is estimated
    from executed tasks only (cache hits are effectively free).
    """

    def __init__(
        self, *, total: int, cached: int, enabled: bool, stream: Optional[TextIO] = None
    ) -> None:
        self.total = total
        self.done = cached
        self.cached = cached
        self.enabled = enabled and total > 0
        self.stream = stream if stream is not None else sys.stderr
        self._executed = 0
        self._started = time.perf_counter()
        self._wrote = False

    def step(self, *, cached: bool = False) -> None:
        self.done += 1
        if cached:
            self.cached += 1
        else:
            self._executed += 1
        if not self.enabled:
            return
        remaining = self.total - self.done
        if self._executed:
            elapsed = time.perf_counter() - self._started
            eta = f"{elapsed / self._executed * remaining:6.1f}s"
        else:
            eta = "   ?  "
        suffix = f" ({self.cached} cached)" if self.cached else ""
        self.stream.write(
            f"\r[sweep] {self.done}/{self.total} tasks{suffix}, ETA {eta}"
        )
        self.stream.flush()
        self._wrote = True

    def finish(self) -> None:
        if self._wrote:
            self.stream.write("\n")
            self.stream.flush()


class SweepRunner:
    """Execute a list of sweep configs, optionally in parallel and cached.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) runs every config
        in-process -- the serial path used by the test suite and by drivers
        invoked without an explicit runner.  Ignored when an explicit
        ``backend`` instance is given.
    artifact_dir:
        Root of the JSON artifact cache.  ``None`` disables persistence;
        results are then recomputed on every call.
    force:
        When true, ignore existing artifacts (but still overwrite them with
        the fresh results).
    progress:
        ``None`` (default) shows the sweep-level progress line on stderr for
        parallel backends when stderr is a terminal; ``True`` forces it on
        (including for ``workers=1`` long sweeps); ``False`` forces it off.
    backend:
        ``None`` derives the backend from ``workers`` (the historical
        behaviour); a name (``"serial"``/``"pool"``/``"distributed"``) or a
        configured :class:`~repro.runner.backends.ExecutionBackend` instance
        selects one explicitly.
    resume:
        Continue an interrupted sweep: announce what the sweep journal in
        ``artifact_dir`` recorded, then re-execute only the configs whose
        artifacts are missing (the artifact cache, not the journal, decides
        -- so resume is correct even when the sweep died between a persist
        and the matching journal update).  Requires ``artifact_dir`` and is
        incompatible with ``force``.  Without ``resume`` the journal is
        still maintained; the flag only changes the announcement and the
        recorded resume count -- a plain re-run recovers identically.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        artifact_dir: Optional[Union[str, Path]] = None,
        force: bool = False,
        progress: Optional[bool] = None,
        backend: Union[None, str, ExecutionBackend] = None,
        resume: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if resume and artifact_dir is None:
            raise ValueError("resume requires an artifact_dir (nothing to resume from)")
        if resume and force:
            raise ValueError(
                "resume and force are contradictory: resume reuses completed "
                "artifacts, force discards them"
            )
        self.workers = workers
        self.store = ArtifactStore(artifact_dir) if artifact_dir is not None else None
        self.force = force
        self.progress = progress
        self.backend = resolve_backend(backend, workers=workers)
        self.resume = resume
        #: Cache hits / task executions of the most recent :meth:`run` call.
        #: Broker-side dedupe hits (distributed backend) count as cached.
        self.last_cached = 0
        self.last_executed = 0
        #: Per-config execution metadata of the most recent :meth:`run` call,
        #: in config order (``None`` for cache hits, which did not execute).
        self.last_metas: List[Optional[TaskMeta]] = []
        #: Journal path of the most recent :meth:`run` call (``None`` when
        #: persistence is disabled).
        self.last_journal_path: Optional[Path] = None
        #: Broker structured events of the most recent :meth:`run` call
        #: (empty for backends without an event log).
        self.last_events: List[Any] = []

    # ------------------------------------------------------------------ #
    def run(self, configs: Sequence[SweepConfig]) -> List[Any]:
        """Execute ``configs`` and return their results in config order."""
        results: List[Any] = [None] * len(configs)
        metas: List[Optional[TaskMeta]] = [None] * len(configs)
        pending: List[WorkItem] = []
        prefilled: List[int] = []
        # One canonical JSON per config: the content hash of each keys its
        # cache probe, journal record and persist, and the journal's
        # identity hashes them all.
        keyed = [_keyed(config) for config in configs] if self.store else []
        probe = self.store is not None and not self.force
        for index, config in enumerate(configs):
            cached = self.store.load(config, keyed[index][1]) if probe else MISSING
            if cached is not MISSING:
                results[index] = _canonical_result(cached)
                prefilled.append(index)
            else:
                # Resolving here (in the parent) both validates the task name
                # early and captures the registering module for workers that
                # start from a fresh interpreter.
                module = getattr(resolve_task(config.task), "__module__", None)
                pending.append((index, config.task, dict(config.params), module))
        self.last_cached = len(configs) - len(pending)
        self.last_executed = len(pending)

        journal = self._begin_journal(configs, keyed, prefilled)
        progress = _ProgressLine(
            total=len(configs),
            cached=self.last_cached,
            enabled=self._progress_enabled(len(pending)),
        )
        executed = 0
        try:
            for index, value, meta in self.backend.execute(
                pending, store=self.store, force=self.force
            ):
                value = _canonical_result(value)
                if meta is not None:
                    executed += 1
                    if self.store is not None and not self.backend.persists:
                        self.store.store(
                            configs[index], value, meta=meta, key=keyed[index][1]
                        )
                results[index] = value
                metas[index] = meta
                if journal is not None:
                    journal.mark_done(index, cached=meta is None)
                progress.step(cached=meta is None)
        except BaseException as exc:
            if journal is not None:
                journal.fail(repr(exc))
            raise
        finally:
            progress.finish()
        self.last_events = list(getattr(self.backend, "last_events", []))
        if journal is not None:
            stats = getattr(self.backend, "last_stats", None) or None
            journal.finish(
                stats=stats,
                events=self.last_events or None,
                # Non-zero: ``events`` is truncated at the broker's cap.
                events_dropped=(stats or {}).get("events_dropped"),
                faults=getattr(self.backend, "last_faults", None) or None,
            )
        # Broker-side dedupe may have served part of ``pending`` from the
        # shared artifact cache mid-sweep; recount so the cached/executed
        # split stays honest.
        self.last_cached = len(configs) - executed
        self.last_executed = executed
        self.last_metas = metas
        return results

    def _begin_journal(
        self,
        configs: Sequence[SweepConfig],
        keyed: Sequence[Tuple[str, str]],
        prefilled: Sequence[int],
    ) -> Optional[SweepJournal]:
        """Open the sweep's crash-safe manifest (no-op without persistence)."""
        if self.store is None or not configs:
            self.last_journal_path = None
            return None
        journal = SweepJournal.for_sweep(
            self.store.root, [canonical for canonical, _key in keyed]
        )
        prior = journal.begin(
            [
                {"index": index, "task": config.task, "key": key}
                for index, (config, (_canonical, key)) in enumerate(zip(configs, keyed))
            ],
            counter="resumed",
            restart=self.resume,
            stats=None,
            events=None,
            events_dropped=None,
            faults=None,
        )
        journal.mark_done(*prefilled, cached=True)
        self.last_journal_path = journal.path
        if self.resume:
            if prior is not None and not prior.get("complete"):
                recovered = len(prior.get("done", ()))
                detail = f"journal recorded {recovered}/{prior.get('total')} done"
            elif prior is not None:
                detail = "previous run completed cleanly"
            else:
                detail = "no journal found, starting fresh"
            sys.stderr.write(
                f"[sweep] resuming sweep {journal.identity}: {detail}; "
                f"{len(prefilled)}/{len(configs)} task(s) already cached\n"
            )
            sys.stderr.flush()
        return journal

    def _progress_enabled(self, pending_count: int) -> bool:
        if self.progress is not None:
            return self.progress
        return (
            self.backend.parallel
            and pending_count > 1
            and hasattr(sys.stderr, "isatty")
            and sys.stderr.isatty()
        )

    # ------------------------------------------------------------------ #
    def run_experiment(self, name: str, **kwargs: Any):
        """Run experiment driver ``name`` ("e1".."e12") through this runner."""
        from repro.experiments import ALL_EXPERIMENTS

        key = name.lower()
        if key not in ALL_EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {name!r}; options: {sorted(ALL_EXPERIMENTS)}"
            )
        return ALL_EXPERIMENTS[key].run_experiment(runner=self, **kwargs)
