"""On-disk artifact store for sweep results.

Layout (see RUNNER.md)::

    <root>/
        <task name>/
            <config hash>.json    # {"config": {...}, "result": ...}

Each artifact records the full config alongside the result so a cache
directory is self-describing; the filename is the config's content hash, so a
re-run with identical parameters finds its artifact without any index.
Writes go through a uniquely named temp file + ``os.replace``, so a crashed
run never leaves a truncated artifact behind **and** any number of
concurrent writers -- pool workers, distributed workers on several hosts
sharing the directory, overlapping sweeps -- can target the same artifact
safely: each writes its own temp file and the last atomic rename wins,
while readers only ever observe complete documents.

Artifacts are RFC 8259 JSON, which has no NaN or Infinity: a document holding
a non-finite float stores it tagged, as ``{"__float__": "inf"}`` (or
``"-inf"``, ``"nan"``), and :func:`decode` turns the tags back into floats.
Artifacts written before the tagging, with bare ``Infinity`` tokens, still
load.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, List, Optional, Set, Union

from repro.runner.config import SweepConfig

__all__ = ["ArtifactStore", "MISSING", "atomic_write_text", "decode"]

#: Sentinel returned by :meth:`ArtifactStore.load` on a cache miss (``None``
#: is a legitimate task result).
MISSING = object()

#: The process umask, captured once at import (reading it requires setting
#: it; doing that per-write would race other threads).  ``mkstemp`` creates
#: temp files 0600 regardless of umask; artifacts and journals must instead
#: get the ordinary umask-derived mode, or readers running as a different
#: user on a shared artifact dir would see every lookup fail as a cache
#: miss and every journal as unreadable.
_UMASK = os.umask(0)
os.umask(_UMASK)

#: Key of a tagged non-finite float, and how it appears in a document's text.
_FLOAT_TAG = "__float__"
_FLOAT_TAG_TEXT = json.dumps(_FLOAT_TAG)


def _tag_non_finite(value: Any) -> Any:
    """``value`` with every non-finite float replaced by its tagged form."""
    if isinstance(value, float) and not math.isfinite(value):
        return {_FLOAT_TAG: repr(value)}
    if isinstance(value, dict):
        return {key: _tag_non_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_tag_non_finite(item) for item in value]
    return value


def _untag(obj: dict) -> Any:
    if len(obj) == 1 and _FLOAT_TAG in obj:
        return float(obj[_FLOAT_TAG])
    return obj


def _encode(document: Any) -> str:
    """``document`` as RFC 8259 JSON text, non-finite floats tagged."""
    try:
        return json.dumps(document, allow_nan=False)
    except ValueError:
        return json.dumps(_tag_non_finite(document), allow_nan=False)


def decode(text: str) -> Any:
    """Parse an artifact's text, turning tagged floats back into floats.

    The tags are only looked for when the text holds one, so a document
    without non-finite floats parses exactly as plain JSON.
    """
    if _FLOAT_TAG_TEXT in text:
        return json.loads(text, object_hook=_untag)
    return json.loads(text)


def atomic_write_text(path: Path, text: str) -> None:
    """Crash-safe rewrite of ``path``: temp file + chmod + ``os.replace``.

    The discipline every durable document in this codebase follows
    (artifacts, sweep journals, hub state files): a reader observes either
    the previous document or the new one, never a truncated hybrid.  The
    temp file is uniquely named in the target's directory (never a shared
    ``<name>.tmp``, which two writers would corrupt by interleaving), so
    any number of concurrent writers can target one path and the last
    rename wins.  It gets the umask-derived mode an ordinary ``open``
    would, so other users of a shared directory can read the result.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp_name, 0o666 & ~_UMASK)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ArtifactStore:
    """Content-addressed JSON artifacts under a root directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        # Paths already warned about this process, so a corrupt artifact
        # consulted by both load() and load_meta() nags once, not per call.
        self._warned: Set[Path] = set()

    def path_for(self, config: SweepConfig, key: Optional[str] = None) -> Path:
        """Artifact path of ``config`` (exists only after :meth:`store`).

        ``key`` is ``config.key()`` when the caller already holds it; the
        content hash is then not computed again.
        """
        return self.root / config.task / f"{key or config.key()}.json"

    def _warn_corrupt(self, path: Path, reason: str) -> None:
        """A present-but-unusable artifact is a silent data-loss hazard --
        say so (once per path) before treating it as a cache miss."""
        if path in self._warned:
            return
        self._warned.add(path)
        sys.stderr.write(
            f"[artifacts] ignoring corrupt artifact {path}: {reason}; "
            "treating as a cache miss\n"
        )
        sys.stderr.flush()

    def load(self, config: SweepConfig, key: Optional[str] = None) -> Any:
        """The cached result of ``config`` (its ``key``, if given), or
        :data:`MISSING`.

        Unreadable or corrupt artifacts count as misses -- the runner
        recomputes and overwrites them -- but a file that *exists* and
        cannot be used (truncated write survivor, hand-edited JSON, wrong
        shape) is reported on stderr rather than silently re-executed.
        """
        path = self.path_for(config, key)
        try:
            document = decode(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return MISSING
        except (OSError, ValueError) as exc:
            self._warn_corrupt(path, f"{type(exc).__name__}: {exc}")
            return MISSING
        if not isinstance(document, dict) or "result" not in document:
            self._warn_corrupt(path, "document is not an artifact object")
            return MISSING
        return document["result"]

    def store(
        self,
        config: SweepConfig,
        result: Any,
        *,
        meta: Optional[dict] = None,
        key: Optional[str] = None,
    ) -> Path:
        """Persist ``result`` for ``config`` (its ``key``, if given) and
        return the artifact path.

        ``meta`` (execution metadata such as per-task wall-clock seconds and
        the worker pid) is stored alongside the result but never affects the
        config hash or the value :meth:`load` returns -- cached re-reads stay
        indistinguishable from fresh computations.  That includes **key
        order**: the document is serialized preserving the result's own dict
        order (not ``sort_keys``), because JSON objects round-trip their
        order through ``json.load`` and downstream table rendering derives
        column order from it -- a cache hit that alphabetized the keys would
        render a different table than the fresh run that produced it.

        The write is atomic and safe under concurrent writers
        (:func:`atomic_write_text`).
        """
        path = self.path_for(config, key)
        document = {
            "config": {"task": config.task, "params": config.params},
            "result": result,
        }
        if meta is not None:
            document["meta"] = meta
        atomic_write_text(path, _encode(document))
        return path

    def load_meta(self, config: SweepConfig) -> Optional[dict]:
        """Execution metadata stored with ``config``'s artifact, if any.

        Corrupt artifacts behave like :meth:`load`: warned about once,
        then treated as absent.
        """
        path = self.path_for(config)
        try:
            document = decode(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            self._warn_corrupt(path, f"{type(exc).__name__}: {exc}")
            return None
        if not isinstance(document, dict):
            self._warn_corrupt(path, "document is not an artifact object")
            return None
        meta = document.get("meta")
        return meta if isinstance(meta, dict) else None

    def stored_configs(self, task: Optional[str] = None) -> List[Path]:
        """All artifact paths (optionally restricted to one task)."""
        if not self.root.is_dir():
            return []
        pattern = f"{task}/*.json" if task else "*/*.json"
        return sorted(self.root.glob(pattern))
