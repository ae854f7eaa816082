#!/usr/bin/env python3
"""Exact work counts of the pinned smoke bench rows, and their golden check.

    python benchmarks/counts.py            # count, diff against the baseline
    python benchmarks/counts.py record     # count and rewrite the baseline
    python benchmarks/counts.py show [ROW ...]  # count here, print the document

(``make counts-record`` runs ``record``.)  Each row of ``SMOKE_SCENARIOS``
(``e12-local-n128``, ``e3-congest-n64``, ``e2-congest-n64``) runs through a
serial :class:`~repro.runner.SweepRunner` twice in a fresh interpreter of
its own; the second run is counted under ``sys.settrace`` with ``f_trace_opcodes``.  A
row records:

- ``rounds``, ``messages`` and ``bits`` of its bench result;
- ``calls``: how often ``LocalView.integrate`` and
  ``CongestCountingProtocol._handle_beacons`` ran;
- ``opcodes``: executed bytecodes per layer.  A frame belongs to the layer
  of its ``repro`` module (``MODULE_LAYERS``); a frame of any other code
  (the standard library, a test's monkeypatch) counts toward the layer of
  the nearest ``repro`` frame that called it.

These counts are a pure function of the code and the interpreter: they do
not move with the host's load, with ``PYTHONHASHSEED`` or from run to run,
so the check compares them exactly.  Work done in C (big-int masks, ``dict``
and ``set`` internals) is invisible to them; a change that only moves C work
shows up in ``perfbench`` timings, not here.  Opcode counts differ between
interpreter versions, so a baseline recorded on another version fails the
check with both versions named; re-record it on the new one.
"""

from __future__ import annotations

import gc
import json
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "counts_smoke.json"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
from repro.core.congest_counting import CongestCountingProtocol  # noqa: E402
from repro.core.local_counting import LocalView  # noqa: E402
from repro.runner.bench import SMOKE_SCENARIOS, BenchScenario  # noqa: E402
from repro.runner.sweep import SweepRunner  # noqa: E402

#: Layer of each ``repro`` module prefix; the longest matching prefix wins.
MODULE_LAYERS: Dict[str, str] = {
    "repro.graphs": "graphs",
    "repro.scenarios.graphs": "graphs",
    "repro.adversary": "adversary",
    "repro.simulator.byzantine": "adversary",
    "repro.scenarios.behaviours": "adversary",
    "repro.scenarios.placements": "adversary",
    "repro.simulator": "engine",
    "repro.core.local_counting": "local_view",
    "repro.core.congest_counting": "congest",
    "repro.core.beacon": "congest",
    "repro.core.blacklist": "congest",
    "repro.simulator.churn": "churn",
    "repro.scenarios.churn": "churn",
    # Cell assembly: the scenario path, protocol parameters and outcomes,
    # and every other package a cell may pass through.
    "repro": "scenarios",
    "repro.runner": "runner",
}

LAYERS = tuple(dict.fromkeys(MODULE_LAYERS.values()))

#: Counted functions, by the name a document records them under.
CALLS = {
    "LocalView.integrate": LocalView.integrate.__code__,
    "CongestCountingProtocol._handle_beacons": CongestCountingProtocol._handle_beacons.__code__,
}

REPRO_DIR = Path(repro.__file__).resolve().parent


def layer_of_module(module: str) -> str:
    """The layer of a ``repro`` module name."""
    parts = module.split(".")
    while ".".join(parts) not in MODULE_LAYERS:
        parts.pop()
    return MODULE_LAYERS[".".join(parts)]


class _Counter:
    """A ``sys.settrace`` hook counting opcodes per layer and calls by code."""

    def __init__(self) -> None:
        self.opcodes = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(CALLS, 0)
        self._call_names = {code: name for name, code in CALLS.items()}
        self._file_layers: Dict[str, Optional[str]] = {}
        self._tracers = {layer: self._tracer(layer) for layer in LAYERS}

    def _tracer(self, layer: str):
        opcodes = self.opcodes

        def trace(frame, event, arg):
            if event == "opcode":
                opcodes[layer] += 1
            return trace

        return trace

    def _file_layer(self, filename: str) -> Optional[str]:
        try:
            return self._file_layers[filename]
        except KeyError:
            pass
        path = Path(filename).resolve()
        layer = None
        if path.suffix == ".py" and REPRO_DIR in path.parents:
            parts = path.relative_to(REPRO_DIR.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            layer = layer_of_module(".".join(parts))
        self._file_layers[filename] = layer
        return layer

    def __call__(self, frame, event, arg):
        code = frame.f_code
        name = self._call_names.get(code)
        if name is not None:
            self.calls[name] += 1
        layer = self._file_layer(code.co_filename)
        caller = frame.f_back
        while layer is None and caller is not None:
            layer = self._file_layer(caller.f_code.co_filename)
            caller = caller.f_back
        if layer is None:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._tracers[layer]


def _run(scenario: BenchScenario) -> Dict[str, Any]:
    (result,) = SweepRunner().run([scenario.config()])
    return result


def count_row(scenario: BenchScenario) -> Dict[str, Any]:
    """Run ``scenario`` twice in this interpreter and count the second run."""
    _run(scenario)
    counter = _Counter()
    gc.collect()
    gc.disable()
    sys.settrace(counter)
    try:
        result = _run(scenario)
    finally:
        sys.settrace(None)
        gc.enable()
    return {
        "rounds": result["rounds"],
        "messages": result["messages"],
        "bits": result["bits"],
        "calls": counter.calls,
        "opcodes": counter.opcodes,
    }


def count(scenarios: Sequence[BenchScenario] = SMOKE_SCENARIOS) -> Dict[str, Any]:
    """The counts document of ``scenarios``, counted in this interpreter."""
    return {
        "python": platform.python_version(),
        "rows": {scenario.name: count_row(scenario) for scenario in scenarios},
    }


class FreshCounts:
    """The named smoke rows (all by default) being counted side by side,
    each in a fresh interpreter started with ``env`` (this one's by
    default); :meth:`document` waits for their counts."""

    def __init__(
        self, names: Optional[Sequence[str]] = None, *, env: Optional[Dict[str, str]] = None
    ) -> None:
        script = str(Path(__file__).resolve())
        self.children = [
            subprocess.Popen([sys.executable, script, "show", name], env=env,
                             stdout=subprocess.PIPE, text=True)
            for name in names or [scenario.name for scenario in SMOKE_SCENARIOS]
        ]
        self._documents: List[Dict[str, Any]] = []

    def close(self) -> None:
        """Kill and reap every row still being counted."""
        for child in self.children:
            if child.returncode is None:
                child.kill()
                child.communicate()

    def document(self) -> Dict[str, Any]:
        """Wait for every row and return their counts document."""
        for child in self.children[len(self._documents):]:
            stdout, _ = child.communicate()
            if child.returncode:
                raise subprocess.CalledProcessError(child.returncode, child.args, stdout)
            self._documents.append(json.loads(stdout))
        rows = {name: row for document in self._documents
                for name, row in document["rows"].items()}
        return {"python": self._documents[0]["python"], "rows": rows}


def _flatten(row: Dict[str, Any]) -> Dict[str, int]:
    flat = {}
    for key, value in row.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{inner}": item for inner, item in value.items()})
        else:
            flat[key] = value
    return flat


def differences(baseline: Dict[str, Any], current: Dict[str, Any]) -> List[str]:
    """Every way ``current`` departs from ``baseline``, one line each.

    An interpreter version mismatch is the only line, since every opcode
    count moves with the version.  Otherwise each row and counter that
    moved is named with both values and the delta; rows present on one
    side only are named too.  An empty list means the counts are equal.
    """
    if baseline["python"] != current["python"]:
        return [f"interpreter version: baseline recorded on Python {baseline['python']}, "
                f"counted on Python {current['python']}; re-record the baseline"]
    lines = []
    old_rows, new_rows = baseline["rows"], current["rows"]
    for name in old_rows.keys() | new_rows.keys():
        if name not in new_rows or name not in old_rows:
            side = "baseline" if name in old_rows else "current count"
            lines.append(f"{name}: only in the {side}")
            continue
        old, new = _flatten(old_rows[name]), _flatten(new_rows[name])
        for key in old.keys() | new.keys():
            before, after = old.get(key), new.get(key)
            if before == after:
                continue
            delta = ""
            if before is not None and after is not None:
                share = f", {(after - before) / before:+.2%}" if before else ""
                delta = f" ({after - before:+d}{share})"
            lines.append(f"{name} {key}: {before} -> {after}{delta}")
    return sorted(lines)


def load_baseline() -> Dict[str, Any]:
    return json.loads(BASELINE.read_text(encoding="utf-8"))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    command = args.pop(0) if args else "check"
    if command == "show":
        by_name = {scenario.name: scenario for scenario in SMOKE_SCENARIOS}
        chosen = [by_name[name] for name in args] if args else SMOKE_SCENARIOS
        print(json.dumps(count(chosen), indent=2))
        return 0
    if command not in ("check", "record") or args:
        sys.stderr.write(f"usage: {Path(__file__).name} [check | record | show [ROW ...]]\n")
        return 2
    current = FreshCounts().document()
    previous = load_baseline() if BASELINE.exists() else None
    lines = differences(previous, current) if previous is not None else ["no baseline"]
    for line in lines:
        print(line)
    if command == "record":
        BASELINE.write_text(json.dumps(current, indent=2) + "\n", encoding="utf-8")
        print(f"[counts] wrote {BASELINE.relative_to(ROOT)}")
        return 0
    print("[counts] ok: equal to the baseline" if not lines else
          f"[counts] FAIL: {len(lines)} difference(s) from {BASELINE.relative_to(ROOT)}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
