#!/usr/bin/env python3
"""Compare two sets of benchmark runs of one workload.

    python3 perfbench/compare.py BASE.jsonl CANDIDATE.jsonl

Each file holds the last output line of ``run.py`` runs, one per line.
End-to-end metrics (``--trace 0`` runs) are compared by their medians
against the bounds in ``BENCHMARK.json``; per-layer metrics (``--trace 1``
runs) are ranked by how much their time grew, which names the layer a
slowdown came from.  Exits 1 if an end-to-end metric got worse by more than
its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

from layers import METRICS, TOTAL_TIME

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> List[Dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def medians(runs: Sequence[Mapping]) -> Dict[str, float]:
    names = {name for run in runs for name in run["metrics"]}
    return {
        name: statistics.median(
            run["metrics"][name]["value"] for run in runs if name in run["metrics"]
        )
        for name in names
    }


def worsening(base: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is, as a share of ``base`` (negative: better)."""
    change = (candidate - base) / base
    return -change if better == "higher" else change


def regressions(
    base: Mapping[str, float], candidate: Mapping[str, float], spec: Mapping
) -> List[Tuple[str, float, float]]:
    """``(metric, worsening, bound)`` for every end-to-end metric beyond its bound."""
    out = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name in base and name in candidate and base[name]:
            worse = worsening(base[name], candidate[name], metric["better"])
            if worse > metric["bound"]:
                out.append((name, worse, metric["bound"]))
    return out


def layer_growth(
    base: Mapping[str, float], candidate: Mapping[str, float]
) -> List[Tuple[str, float]]:
    """Span self-time metrics ranked by how many seconds they grew.

    Totals that contain other layers (``engine.run_s``, the runner's sum of
    cell times) are left out: they grow with whichever layer they contain.
    """
    own_time = {
        m.name for m in METRICS if m.spans and m.name.endswith("_s")
    } - TOTAL_TIME
    grown = [
        (name, candidate[name] - base[name])
        for name in base
        if name in own_time and name in candidate
    ]
    return sorted(grown, key=lambda item: item[1], reverse=True)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, candidate = (medians(load_runs(Path(p))) for p in argv)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(set(base) & set(candidate)):
        worse = worsening(base[name], candidate[name], better.get(name, "lower")) if base[name] else 0.0
        print(f"{name:30} {base[name]:>14.6g} -> {candidate[name]:<14.6g} worse by {worse:+.1%}")
    found = regressions(base, candidate, spec)
    for name, worse, bound in found:
        print(f"REGRESSION {name}: worse by {worse:.1%} (bound {bound:.0%})")
    growth = layer_growth(base, candidate)
    if growth and growth[0][1] > 0:
        print(f"largest layer growth: {growth[0][0]} (+{growth[0][1]:.4g} s per table)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
