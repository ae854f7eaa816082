#!/usr/bin/env python3
"""Paired timing of one benchmark workload: a base revision against this tree.

    python benchmarks/pair.py --base <rev> --workload alg1-local --seed 0 --pairs 10

(``make bench-pair BASE=<rev> WORKLOAD=alg1-local SEED=0 PAIRS=10`` runs the
same.)  The script ``git archive``s ``--base`` into a temporary directory and
runs each tree's own ``perfbench/run.py --trace 0`` for ``BENCHMARK.json``'s
``run_seconds`` once per pair, the base first in even pairs and the change
first in odd ones, so a drift of the host over the session hits both sides
alike.  The change is the checkout the script lives in, uncommitted edits
included.

For every end-to-end metric of ``BENCHMARK.json`` it prints the base and
change medians, their ratio (change / base), the pairs the change won (better
in the metric's direction), and the quartiles of both sides; then every run
whose ``failed`` count is not zero.  A speed claim needs the change to win
most pairs and its median to clear the spread of the base's quartiles.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Row:
    """The paired summary of one metric."""

    name: str
    better: str
    base_median: float
    change_median: float
    wins: int
    pairs: int
    base_quartiles: Tuple[float, float]
    change_quartiles: Tuple[float, float]

    @property
    def ratio(self) -> float:
        return self.change_median / self.base_median if self.base_median else float("nan")


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile (inclusive method; a single value is both)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(
    pairs: Sequence[Tuple[dict, dict]], end_to_end: Sequence[dict]
) -> List[Row]:
    """One row per end-to-end metric over ``(base, change)`` perfbench documents.

    A pair counts as a win when the change's value is strictly better in the
    metric's direction.  Metrics missing from a document are skipped for
    that pair.
    """
    rows = []
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        base, change = [], []
        wins = 0
        for base_doc, change_doc in pairs:
            b = base_doc["metrics"].get(name)
            c = change_doc["metrics"].get(name)
            if b is None or c is None:
                continue
            b, c = b["value"], c["value"]
            base.append(b)
            change.append(c)
            wins += c > b if better == "higher" else c < b
        if not base:
            continue
        rows.append(Row(
            name=name,
            better=better,
            base_median=statistics.median(base),
            change_median=statistics.median(change),
            wins=wins,
            pairs=len(base),
            base_quartiles=quartiles(base),
            change_quartiles=quartiles(change),
        ))
    return rows


def failures(pairs: Sequence[Tuple[dict, dict]]) -> List[str]:
    """A line for every run that failed cells or reported itself incorrect."""
    lines = []
    for index, docs in enumerate(pairs):
        for side, doc in zip(("base", "change"), docs):
            if doc.get("failed") or not doc.get("correct", True):
                lines.append(f"pair {index} {side}: failed={doc.get('failed')} "
                             f"correct={doc.get('correct')}")
    return lines


def render(rows: Sequence[Row], failed: Sequence[str]) -> str:
    lines = [f"{'metric':14} {'better':6} {'base':>10} {'change':>10} {'ratio':>7} "
             f"{'wins':>6}  {'base q1..q3':>21}  {'change q1..q3':>21}"]
    for row in rows:
        lines.append(
            f"{row.name:14} {row.better:6} {row.base_median:10.4g} {row.change_median:10.4g} "
            f"{row.ratio:7.3f} {row.wins:>3}/{row.pairs:<2}  "
            f"{row.base_quartiles[0]:10.4g}..{row.base_quartiles[1]:<10.4g} "
            f"{row.change_quartiles[0]:10.4g}..{row.change_quartiles[1]:.4g}"
        )
    lines.extend(f"FAILED {line}" for line in failed)
    return "\n".join(lines)


def last_document(stdout: str) -> dict:
    """The JSON object perfbench prints on its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True)
    return last_document(done.stdout)


def export(rev: str, into: Path) -> None:
    """Write the committed files of ``rev`` under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", default="alg1-local")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    pairs: List[Tuple[dict, dict]] = []
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        base_tree = Path(tmp)
        export(args.base, base_tree)
        for index in range(args.pairs):
            order = ("base", "change") if index % 2 == 0 else ("change", "base")
            docs: Dict[str, dict] = {}
            for side in order:
                tree = base_tree if side == "base" else ROOT
                docs[side] = run_perfbench(tree, args.workload, args.seed, seconds)
            pairs.append((docs["base"], docs["change"]))
            rates = {side: doc["metrics"].get("cells_per_s", {}).get("value")
                     for side, doc in docs.items()}
            # Attempted cells are the table size times the passes a run fitted.
            print(f"[bench-pair] pair {index + 1}/{args.pairs} ({order[0]} first): "
                  f"cells_per_s base {rates['base']} change {rates['change']} "
                  f"attempted base {docs['base'].get('attempted')} "
                  f"change {docs['change'].get('attempted')}", flush=True)
    print(f"[bench-pair] base={args.base} workload={args.workload} seed={args.seed} "
          f"pairs={args.pairs} seconds={seconds:g}")
    print(render(summarize(pairs, spec["end_to_end"]), failures(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
