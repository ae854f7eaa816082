"""Crash-safe sweep journals: the record behind ``--resume`` and hub restart.

A :class:`SweepJournal` manages one JSON document at one path.  Two callers
keep them, under two file names:

- the sweep runner writes ``sweep-<id>.journal.json`` at the root of the
  artifact directory (:data:`RUNNER_FILE`); ``--resume``, ``sweeps`` and
  ``runs`` read it back;
- the hub writes ``hub-<identity>.state.json`` under ``hub serve --state
  DIR`` (:data:`HUB_FILE`) for every sweep it registers, and on restart
  re-adopts the interrupted ones (:func:`incomplete_journals`).

Both documents record the sweep's identity (a content hash over the full,
ordered config list -- changing any task or param yields a different
sweep), one record per task, and the done/cached indices as results land,
then flip ``complete`` (or record an ``error``) at the end.  The caller
supplies its own keys: the runner its ``sweep_id``, ``resumed`` counter,
per-task artifact ``key`` and, on a clean finish, the broker's event log,
stats and injected-fault counts; the hub its ``identity``, submission
``name``/``priority``/``force``, ``adopted`` counter and per-task
``params``/``module``.

The document itself is written only when the sweep begins and when it
ends, through :func:`~repro.runner.artifacts.atomic_write_text` (the writer
the artifact store uses), so a killed process (or a power cut) leaves
either the previous document or the new one, never a truncated one.  Each
completion in between appends one JSON line (``{"done": [...], "cached":
bool, "updated": ts}``) to a sidecar log next to the document
(``<journal>.log``), so an N-task sweep costs O(N) bytes of journal I/O
instead of N rewrites of an O(N) document.  Every reader goes through one
loader that folds the log into ``done``/``cached``/``updated``; a torn
trailing line (a write cut short) is ignored.  :meth:`SweepJournal.finish`
and :meth:`SweepJournal.fail` write the folded document and delete the
log, and :meth:`SweepJournal.begin` empties it before writing the fresh
document.
The journal is *advisory*: the artifact cache remains the source of truth
for results, so ``--resume`` and re-adoption re-execute exactly the configs
whose artifacts are missing or corrupt, and a journal that lags a few
completions (or is lost outright) costs re-checks, never correctness.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.runner.artifacts import atomic_write_text

__all__ = [
    "HUB_FILE",
    "RUNNER_FILE",
    "SweepJournal",
    "incomplete_journals",
    "read_journal",
    "sweep_identity",
]

JOURNAL_VERSION = 1
#: File name of the sweep runner's journal (at an artifact root) and of
#: the hub's per-sweep state file (under ``--state DIR``); ``{}`` is the
#: sweep's identity, ``*`` in its place globs every journal of that kind.
RUNNER_FILE = "sweep-{}.journal.json"
HUB_FILE = "hub-{}.state.json"


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def sweep_identity(canonicals: Sequence[str]) -> str:
    """Content hash of an ordered config list (the sweep's identity), given
    each config's canonical JSON (:meth:`SweepConfig.canonical
    <repro.runner.config.SweepConfig.canonical>`).

    Order matters: the journal's ``done`` entries are config-list indices,
    so a permuted list is a different sweep.
    """
    digest = hashlib.sha256()
    for canonical in canonicals:
        digest.update(canonical.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def _log_path(path: Path) -> Path:
    """The completion log kept next to the journal document at ``path``."""
    return path.with_name(path.name + ".log")


def read_journal(path: Path) -> Optional[Dict[str, Any]]:
    """A journal document with its completion log folded in, or ``None``
    when the document is unreadable, corrupt or foreign.

    A log line that does not parse as a completion record -- a torn last
    line, most likely -- is skipped; folding is idempotent, so a log the
    document already absorbed (a crash between the final write and the
    log's removal) changes nothing.
    """
    try:
        with path.open("r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    if (
        not isinstance(document, dict)
        or document.get("version") != JOURNAL_VERSION
        or not isinstance(document.get("tasks"), list)
        or not isinstance(document.get("done"), list)
    ):
        return None
    try:
        lines = _log_path(path).read_text(encoding="utf-8").splitlines()
    except OSError:
        return document
    done = set(document["done"])
    cached = set(document.get("cached") or ())
    for line in lines:
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        indices = entry.get("done") if isinstance(entry, dict) else None
        if not isinstance(indices, list) or not all(type(i) is int for i in indices):
            continue
        done.update(indices)
        if entry.get("cached"):
            cached.update(indices)
        document["updated"] = entry.get("updated", document.get("updated"))
    document["done"] = sorted(done)
    document["cached"] = sorted(cached)
    return document


def incomplete_journals(
    directory: Union[str, Path], pattern: str
) -> List[Dict[str, Any]]:
    """Documents of interrupted sweeps under ``directory`` matching ``pattern``.

    Complete and failed sweeps are skipped (a sweep that exhausted its
    retry budget would only fail again); unreadable or foreign files are
    warned about (once each, on stderr) and skipped -- a corrupt journal
    must not wedge a restart.
    """
    found: List[Dict[str, Any]] = []
    for path in sorted(Path(directory).glob(pattern)):
        document = read_journal(path)
        if document is None:
            sys.stderr.write(
                f"[journal] warning: skipping unreadable state file {path}\n"
            )
            continue
        if document.get("complete") or document.get("error"):
            continue
        found.append(document)
    return found


class SweepJournal:
    """One sweep's crash-safe progress document.

    ``id_key`` names the document's identity field (``sweep_id`` or
    ``identity``); a document at ``path`` whose field holds another value
    reads as absent.  Thread-safe: the hub begins a journal under its
    broker lock and marks completions from worker threads; one lock
    serializes the in-memory document, the log appends and the document
    writes.
    """

    def __init__(self, path: Union[str, Path], id_key: str, identity: str) -> None:
        self.path = Path(path)
        self.log_path = _log_path(self.path)
        self.id_key = id_key
        self.identity = identity
        self._lock = threading.Lock()
        self._doc: Optional[Dict[str, Any]] = None

    @classmethod
    def for_sweep(
        cls, directory: Union[str, Path], canonicals: Sequence[str]
    ) -> "SweepJournal":
        """The sweep runner's journal, under an artifact root, of the
        configs whose canonical JSON strings are ``canonicals``."""
        sweep_id = sweep_identity(canonicals)
        path = Path(directory) / RUNNER_FILE.format(sweep_id)
        return cls(path, "sweep_id", sweep_id)

    def load(self) -> Optional[Dict[str, Any]]:
        """The persisted document, or ``None`` when absent/corrupt/foreign.

        A corrupt journal is treated exactly like a missing one (the
        artifact cache is the source of truth); a version or identity
        mismatch likewise.
        """
        document = read_journal(self.path)
        if document is None or document.get(self.id_key) != self.identity:
            return None
        return document

    def begin(
        self,
        tasks: Sequence[Dict[str, Any]],
        *,
        counter: str,
        restart: bool = False,
        **fields: Any,
    ) -> Optional[Dict[str, Any]]:
        """Start (or restart) the document; returns the prior one, if any.

        ``tasks`` are the per-task records and ``fields`` the caller's
        extra keys.  ``counter`` names the restart counter: one more than
        the prior document's when ``restart`` is set, else 0.  The
        completion state always restarts empty -- the caller re-marks
        tasks as the cache prefill and the backend report them -- so the
        journal never claims completions the artifact store cannot back.
        """
        with self._lock:
            prior = self.load()
            # Empty the log before the fresh document lands: a crash in
            # between must not fold the prior run's completions into it.
            self._drop_log()
            now = _utc_now()
            self._doc = {
                "version": JOURNAL_VERSION,
                self.id_key: self.identity,
                "created": prior.get("created", now) if prior else now,
                "updated": now,
                "total": len(tasks),
                "tasks": list(tasks),
                "done": [],
                "cached": [],
                "complete": False,
                "error": None,
                counter: prior.get(counter, 0) + 1 if restart and prior else 0,
                **fields,
            }
            self._write_locked()
        return prior

    def mark_done(self, *indices: int, cached: bool = False) -> None:
        """Record completed tasks (by position in the task list): one line
        appended to the completion log; the document is not rewritten."""
        if not indices:
            return
        with self._lock:
            doc = self._require_doc()
            doc["done"].extend(indices)
            if cached:
                doc["cached"].extend(indices)
            doc["updated"] = _utc_now()
            line = json.dumps(
                {"done": list(indices), "cached": cached, "updated": doc["updated"]}
            )
            with self.log_path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")

    def finish(self, **fields: Any) -> None:
        """Mark the sweep complete, attaching the caller's final ``fields``."""
        with self._lock:
            doc = self._require_doc()
            doc["complete"] = True
            doc.update(fields)
            self._close_locked()

    def fail(self, error: str) -> None:
        """Record why the sweep died; the document stays incomplete and is
        not re-adopted."""
        with self._lock:
            self._require_doc()["error"] = str(error)
            self._close_locked()

    # ------------------------------------------------------------------ #
    def _require_doc(self) -> Dict[str, Any]:
        if self._doc is None:
            raise RuntimeError("SweepJournal.begin() must run before updates")
        return self._doc

    def _drop_log(self) -> None:
        try:
            self.log_path.unlink()
        except FileNotFoundError:
            pass

    def _close_locked(self) -> None:
        """Write the document with every completion folded in, then drop
        the log it absorbed."""
        self._write_locked()
        self._drop_log()

    def _write_locked(self) -> None:
        doc = self._require_doc()
        doc["done"] = sorted(set(doc["done"]))
        doc["cached"] = sorted(set(doc["cached"]))
        doc["updated"] = _utc_now()
        atomic_write_text(self.path, json.dumps(doc, sort_keys=True))
