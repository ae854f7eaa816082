#!/usr/bin/env python3
"""Synthetic-slowdown drill: does the benchmark catch a slower layer and name it?

    python3 perfbench/drill.py

Runs ``run.py`` from the checkout root with and without ``--inject-delay
SPAN=FRACTION`` (the tracer's wrapper busy-waits ``FRACTION`` times each
call's own duration), alternating the two sides.  It passes when

* ``cells_per_s`` on ``alg1-local``, the workload that exercises the span,
  gets worse by more than its bound;
* ``cells_per_s`` on ``alg2-congest``, which never calls it, stays within
  its bound;
* the traced runs name the slowed span as the layer whose time grew most.

Takes a few minutes; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from compare import layer_growth, medians, worsening

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SPAN = "local_view.integrate"
# integrate is ~84% of an alg1-local cell, so 0.75 slows the cell by ~60% and
# cells_per_s by ~40%: beyond the 0.25 bound by more than the noise.
FRACTION = 0.75
SEED = 1  # the held-out seed
SECONDS = 10
PAIRS = 2


def bench(workload: str, trace: int, inject: Sequence[str]) -> Dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    for item in inject:
        command += ["--inject-delay", item]
    out = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True)
    document = json.loads(out.stdout.strip().splitlines()[-1])
    if not document["correct"]:
        raise SystemExit(f"{workload}: run was not correct:\n{out.stdout}")
    return document


def paired(workload: str, pairs: int, trace: int, inject: List[str]):
    base: List[Dict] = []
    slow: List[Dict] = []
    for i in range(pairs):
        order = [(base, []), (slow, inject)]
        for runs, delay in order if i % 2 == 0 else order[::-1]:
            runs.append(bench(workload, trace, delay))
    return medians(base), medians(slow)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "cells_per_s")
    inject = [f"{SPAN}={FRACTION}"]
    ok = True
    for workload, should_fail in (("alg1-local", True), ("alg2-congest", False)):
        base, slow = paired(workload, PAIRS, 0, inject)
        worse = worsening(base["cells_per_s"], slow["cells_per_s"], "higher")
        passed = (worse > bound) == should_fail
        ok &= passed
        print(f"{workload:13} cells_per_s {base['cells_per_s']:.4g} -> {slow['cells_per_s']:.4g}"
              f" worse by {worse:+.1%} (bound {bound:.0%}, expected "
              f"{'beyond' if should_fail else 'within'}): {'ok' if passed else 'FAILED'}")
    base, slow = paired("alg1-local", 1, 1, inject)
    named, grew = layer_growth(base, slow)[0]
    passed = named.startswith(SPAN)
    ok &= passed
    print(f"layer report names {named} (+{grew:.4g} s per table): {'ok' if passed else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
