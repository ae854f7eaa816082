"""The benchmark's workloads: tables of scenario cells generated from a seed.

Each workload is a batch.  Its whole table of cells is submitted at once and
a pass ends when the table is complete.  The workload seed only generates the
per-cell seeds, their order, and which cells are pre-stored; the program sees
nothing but the generated scenario specs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runner import SweepConfig
from repro.scenarios import ComponentSpec, Scenario

__all__ = [
    "COUNTERS",
    "DEFAULT_SEED",
    "HELD_OUT_SEED",
    "RECORDED_SEEDS",
    "WORKLOADS",
    "Table",
    "Workload",
    "cell_counters",
    "load_reference",
]

#: The seed the benchmark is tuned and gated on.
DEFAULT_SEED = 0
#: A seed kept out of tuning: a claimed gain must also hold on it.
HELD_OUT_SEED = 1
#: Seeds whose per-cell counters are recorded in ``reference/``.
RECORDED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

#: Deterministic per-cell counters; a cell whose counters differ from the
#: reference has failed.
COUNTERS = ("rounds", "rounds_executed", "messages", "bits", "decided_fraction",
            "fraction_in_band", "check_passed")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Table:
    """The configs of one workload table, and which of them set-up pre-stores."""

    configs: List[SweepConfig]
    prestored: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Cells of one table.
    cells: int
    #: Cells run through the loopback distributed backend with two spawned
    #: workers into a fresh artifact root (else serially, in-process, with no
    #: artifact root).
    distributed: bool = False
    #: Cells run a theorem check; on every seed a cell whose check did not
    #: pass has failed.
    theorem_check: bool = False

    def table(self, seed: int) -> Table:
        rng = random.Random(f"{self.name}:{seed}")
        return _BUILDERS[self.name](self, rng)


def _cell_seeds(rng: random.Random, count: int) -> Tuple[int, ...]:
    return tuple(rng.randrange(1, 2**31) for _ in range(count))


def _alg1_local(workload: Workload, rng: random.Random) -> Table:
    scenario = Scenario(
        name="alg1-local",
        graph=ComponentSpec("hnd", {"n": 128, "degree": 8}),
        adversary=ComponentSpec("fake-topology"),
        placement=ComponentSpec("spread", {"count": 4}),
        protocol=ComponentSpec("local", {"gamma": 0.7, "max_degree": 8}),
        params={
            "evaluation": {"kind": "good", "gamma": 0.7},
            "check": {"name": "theorem1"},
        },
        seeds=_cell_seeds(rng, workload.cells),
    )
    return Table(scenario.compile())


def _alg2_congest(workload: Workload, rng: random.Random) -> Table:
    scenario = Scenario(
        name="alg2-congest",
        graph=ComponentSpec("hnd", {"n": 128, "degree": 8}),
        adversary=ComponentSpec("beacon-flood"),
        placement=ComponentSpec("spread", {"count": 4}),
        # 738 rounds is E2's budget at n=128: rounds_through_phase(ceil(ln n) + 1).
        protocol=ComponentSpec("congest", {"gamma": 0.5, "d": 8, "max_rounds": 738}),
        params={
            "evaluation": {"kind": "far", "radius": 1},
            "check": {"name": "theorem2", "beta": 0.25},
        },
        seeds=_cell_seeds(rng, workload.cells),
    )
    return Table(scenario.compile())


#: sweep-mixed kinds: (name, protocol, churn, cells per 64 cells of the table).  The
#: shares put the median executed cell inside the ``local`` block, not on a
#: boundary between two kinds, so ``cell_s.p50`` does not jump between them.
_MIXED_KINDS = (
    ("congest", ComponentSpec("congest"), None, 12),
    ("local", ComponentSpec("local"), None, 24),
    ("benor", ComponentSpec("benor", {"f": 3, "max_phases": 60}), None, 8),
    ("local-churn", ComponentSpec("local"),
     ComponentSpec("node-leave-join", {"count": 2, "start": 3, "absence": 2}), 20),
)


def _sweep_mixed(workload: Workload, rng: random.Random) -> Table:
    configs: List[Tuple[str, SweepConfig]] = []
    for kind, protocol, churn, share in _MIXED_KINDS:
        count = share * workload.cells // 64
        scenario = Scenario(
            name=f"mixed-{kind}",
            graph=ComponentSpec("hnd", {"n": 48, "degree": 8}),
            adversary=ComponentSpec("silent"),
            placement=ComponentSpec("random", {"count": 0}),
            protocol=protocol,
            seeds=_cell_seeds(rng, count),
            **({"churn": churn} if churn is not None else {}),
        )
        configs.extend((kind, config) for config in scenario.compile())
    rng.shuffle(configs)
    prestored: List[int] = []
    for kind, *_ in _MIXED_KINDS:
        indices = [i for i, (k, _) in enumerate(configs) if k == kind]
        prestored.extend(rng.sample(indices, len(indices) // 2))
    return Table([config for _, config in configs], sorted(prestored))


_BUILDERS = {
    "alg1-local": _alg1_local,
    "alg2-congest": _alg2_congest,
    "sweep-mixed": _sweep_mixed,
}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "alg1-local",
            "Algorithm 1 hot path: LocalView.integrate dominates, few rounds and "
            "huge messages; engine delivery and the runner do almost nothing",
            cells=48,
            theorem_check=True,
        ),
        Workload(
            "alg2-congest",
            "Algorithm 2: ~739 rounds of small messages make engine delivery and "
            "beacon handling the cost; LocalView never runs",
            cells=20,
            theorem_check=True,
        ),
        Workload(
            "sweep-mixed",
            "tiny n=48 cells of four kinds through the distributed runner, half "
            "pre-stored: dispatch, persist and cache dominate",
            cells=128,
            distributed=True,
        ),
    )
}


def cell_counters(result: Dict[str, Any]) -> Dict[str, Any]:
    return {key: result.get(key) for key in COUNTERS}


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int) -> Optional[Dict[str, Dict[str, Any]]]:
    """Recorded per-cell counters keyed by config hash, if recorded for ``seed``."""
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["cells"]


def save_reference(
    workload: str, seed: int, configs: Sequence[SweepConfig], results: Sequence[Any]
) -> Path:
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "workload": workload,
        "seed": seed,
        "cells": {c.key(): cell_counters(r) for c, r in zip(configs, results)},
    }
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
