"""A queryable results database over artifacts and sweep journals.

``ResultsDB`` is deliberately *not* a new store: the content-addressed
artifact files (:class:`~repro.runner.artifacts.ArtifactStore`) remain the
single source of truth for results, and the crash-safe journals the sweep
runner keeps at the artifact root (``sweep-<id>.journal.json``, one
:class:`~repro.runner.journal.SweepJournal` each) remain the record of
sweep runs.  What this module adds is the read side: an index built on demand by
walking both, answering "what ran, when, under which sweep, with what
result" without any schema to migrate or lock in.  Every record is a plain
JSON-safe dict assembled from the on-disk documents at query time -- delete
the database concept and nothing is lost.

The same records feed the ``repro runs list/show/diff`` and ``repro
sweeps`` CLIs and ``repro hub status``.
"""

from __future__ import annotations

import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Union

from repro.runner.artifacts import ArtifactStore, decode
from repro.runner.journal import RUNNER_FILE, read_journal

__all__ = ["ResultsDB"]

_JOURNAL_GLOB = RUNNER_FILE.format("*")


def _mtime_utc(path: Path) -> Optional[str]:
    try:
        stamp = path.stat().st_mtime
    except OSError:
        return None
    return datetime.fromtimestamp(stamp, timezone.utc).isoformat(timespec="seconds")


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    try:
        document = decode(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


class ResultsDB:
    """Run-history queries over one artifact root.

    Parameters
    ----------
    root:
        The artifact directory: task subdirectories of ``<key>.json``
        artifacts plus ``sweep-<id>.journal.json`` manifests at the top
        level -- exactly what every runner invocation with
        ``--artifact-dir`` (local, distributed, or hub-submitted) already
        leaves behind.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.store = ArtifactStore(self.root)
        #: Paths of unreadable/corrupt files encountered so far.  Each is
        #: warned about once on stderr (a half-written or damaged file
        #: must not wedge queries, but swallowing it silently would make
        #: a truncated listing look complete); consumers surface
        #: ``skipped_count`` in their output.
        self.skipped: Set[str] = set()

    @property
    def skipped_count(self) -> int:
        """Unreadable files skipped (or listed payload-less) so far."""
        return len(self.skipped)

    def _read_json_tracked(
        self, path: Path, reader: Callable[[Path], Optional[Dict[str, Any]]] = _read_json
    ) -> Optional[Dict[str, Any]]:
        document = reader(path)
        if document is None:
            key = str(path)
            if key not in self.skipped:
                self.skipped.add(key)
                sys.stderr.write(
                    f"[resultsdb] warning: skipping unreadable file {path}\n"
                )
        return document

    # ------------------------------------------------------------------ #
    # Sweeps (journal-derived)
    # ------------------------------------------------------------------ #
    def sweep_records(self) -> List[Dict[str, Any]]:
        """One record per journal, newest update last (by file content)."""
        records = []
        if not self.root.is_dir():
            return records
        for path in sorted(self.root.glob(_JOURNAL_GLOB)):
            document = self._read_json_tracked(path, read_journal)
            if document is None:
                continue
            done = document.get("done") or []
            total = document.get("total") or 0
            complete = bool(document.get("complete"))
            error = document.get("error")
            if complete:
                status = "done"
            elif error:
                status = "error"
            else:
                status = "resumable"
            records.append(
                {
                    "sweep": document.get("sweep_id"),
                    "path": str(path),
                    "status": status,
                    "done": len(done),
                    "total": total,
                    "cached": len(document.get("cached") or []),
                    "complete": complete,
                    "resumed": document.get("resumed", 0),
                    "error": error,
                    "created": document.get("created"),
                    "updated": document.get("updated"),
                    "stats": document.get("stats"),
                    "events_dropped": document.get("events_dropped"),
                    "tasks": document.get("tasks") or [],
                }
            )
        records.sort(key=lambda record: (record["updated"] or "", record["path"]))
        return records

    def _sweeps_by_key(self) -> Dict[str, List[str]]:
        """Artifact key -> sweep ids whose journals reference it."""
        owners: Dict[str, List[str]] = {}
        for record in self.sweep_records():
            sweep_id = record["sweep"]
            for task in record["tasks"]:
                key = task.get("key")
                if key and sweep_id not in owners.setdefault(key, []):
                    owners[key].append(sweep_id)
        return owners

    # ------------------------------------------------------------------ #
    # Runs (artifact-derived)
    # ------------------------------------------------------------------ #
    def run_records(
        self,
        *,
        task: Optional[str] = None,
        sweep: Optional[str] = None,
        with_result: bool = True,
    ) -> List[Dict[str, Any]]:
        """One record per stored artifact, sorted by path.

        ``task`` restricts to one task directory; ``sweep`` to artifacts
        referenced by that sweep's journal.  ``with_result=False`` skips
        result/meta payloads for cheap listings.
        """
        owners = self._sweeps_by_key()
        records = []
        for path in self.store.stored_configs(task):
            key = path.stem
            sweeps = owners.get(key, [])
            if sweep is not None and sweep not in sweeps:
                continue
            record: Dict[str, Any] = {
                "task": path.parent.name,
                "key": key,
                "path": str(path),
                "updated": _mtime_utc(path),
                "sweeps": sweeps,
            }
            if with_result:
                # A corrupt artifact stays in the listing (the file exists
                # and its key/sweep linkage is real) but its payload fields
                # come back None; the path is warned about and counted.
                document = self._read_json_tracked(path) or {}
                config = document.get("config") or {}
                record["params"] = config.get("params")
                record["result"] = document.get("result")
                record["meta"] = document.get("meta")
            records.append(record)
        return records

    def find(self, ref: str, *, task: Optional[str] = None) -> Dict[str, Any]:
        """The unique run whose key starts with ``ref``.

        ``ref`` may also be ``task/keyprefix``.  Raises ``KeyError`` when
        the prefix matches zero or several runs.
        """
        if "/" in ref and task is None:
            task, _, ref = ref.partition("/")
        matches = [
            record
            for record in self.run_records(task=task)
            if record["key"].startswith(ref)
        ]
        if not matches:
            raise KeyError(f"no stored run matches {ref!r}")
        if len(matches) > 1:
            names = ", ".join(
                f"{record['task']}/{record['key'][:12]}" for record in matches[:6]
            )
            raise KeyError(f"run reference {ref!r} is ambiguous: {names}, ...")
        return matches[0]

    def diff(self, ref_a: str, ref_b: str) -> Dict[str, Any]:
        """Field-by-field comparison of two stored runs.

        Returns ``{"a", "b", "params", "result"}`` where ``params`` and
        ``result`` map each differing field to ``[value_a, value_b]``
        (``None`` standing in for an absent field).
        """
        record_a = self.find(ref_a)
        record_b = self.find(ref_b)
        return {
            "a": {"task": record_a["task"], "key": record_a["key"]},
            "b": {"task": record_b["task"], "key": record_b["key"]},
            "params": _field_diff(record_a.get("params"), record_b.get("params")),
            "result": _field_diff(record_a.get("result"), record_b.get("result")),
        }


def _field_diff(a: Any, b: Any) -> Dict[str, List[Any]]:
    """Differing fields of two JSON objects (whole-value when not dicts)."""
    if not isinstance(a, dict) or not isinstance(b, dict):
        return {} if a == b else {"value": [a, b]}
    out: Dict[str, List[Any]] = {}
    for field in sorted(set(a) | set(b)):
        if a.get(field) != b.get(field):
            out[field] = [a.get(field), b.get(field)]
    return out
