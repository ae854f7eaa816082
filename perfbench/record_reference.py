#!/usr/bin/env python3
"""Re-record ``reference/<workload>-seed<N>.json`` for the recorded seeds.

    python3 perfbench/record_reference.py

The reference holds each cell's deterministic counters; a benchmark run on
the default or the held-out seed fails every cell whose counters differ.  Re-record only for
a change that is meant to alter results, and say so in that change.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from repro.runner import SweepRunner  # noqa: E402
from workloads import RECORDED_SEEDS, WORKLOADS, save_reference  # noqa: E402

if __name__ == "__main__":
    for workload in WORKLOADS.values():
        for seed in RECORDED_SEEDS:
            table = workload.table(seed)
            results = SweepRunner(workers=1, progress=False).run(table.configs)
            print(save_reference(workload.name, seed, table.configs, results))
