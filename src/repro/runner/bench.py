"""Persistent performance-benchmark harness (``bench`` CLI subcommand).

The harness runs a *pinned* list of scenario configs -- Algorithm 1 and
Algorithm 2 workloads mirroring the E2 (Byzantine beacon flood), E3 (benign
CONGEST) and E12 (scaling) experiment drivers at several ``n`` -- through the
parallel sweep runner, collects each task's wall-clock from the runner's
per-task execution metadata, and records wall-clock + rounds + messages into
a ``BENCH_<date>.json`` trajectory file.  Wall-clocks measure the host as
much as the program, so nothing here gates on them: ``make test`` gates on
the exact work counts of the smoke rows instead (``benchmarks/counts.py``).

See RUNNER.md ("Performance") for the JSON schema.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from string import ascii_lowercase
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.runner.config import SweepConfig
from repro.runner.registry import sweep_task
from repro.runner.sweep import SweepRunner

__all__ = [
    "BenchScenario",
    "SCENARIOS",
    "SMOKE_SCENARIOS",
    "run_bench",
    "write_report",
    "render_report",
]

BENCH_SCHEMA_VERSION = 1
BENCH_PREFIX = "BENCH_"


# --------------------------------------------------------------------------- #
# Bench tasks (registered sweep tasks so they ride the runner/artifact layer)
# --------------------------------------------------------------------------- #
def _bench_metrics(
    seed: int,
    *,
    n: int,
    degree: int,
    graph_offset: int,
    protocol: Tuple[str, Dict[str, Any]],
    behaviour: str = "silent",
    num_byz: int = 0,
    churn: Tuple[str, Dict[str, Any]] = ("none", {}),
) -> Dict[str, Any]:
    """The ``scenario.run`` metrics of one ``hnd`` cell (spread placement)."""
    from repro.scenarios import ComponentSpec, Scenario, materialize

    scenario = Scenario(
        graph=ComponentSpec("hnd", {"n": n, "degree": degree}, seed_offset=graph_offset),
        adversary=ComponentSpec(behaviour),
        placement=ComponentSpec("spread", {"count": num_byz}, seed_offset=num_byz),
        protocol=ComponentSpec(*protocol),
        churn=ComponentSpec(*churn),
    )
    return materialize(scenario, seed).metrics


def _counters(metrics: Dict[str, Any], rounds: str = "rounds") -> Dict[str, Any]:
    """The deterministic counters a bench row records."""
    return {
        "rounds": metrics[rounds],
        "messages": metrics["messages"],
        "bits": metrics["bits"],
        "decided_fraction": metrics["decided_fraction_all"],
    }


@sweep_task("bench.local")
def _bench_local(*, n: int, degree: int, seed: int) -> Dict[str, Any]:
    """One Algorithm 1 run (benign), parameterized like the E12 local sweep."""
    return _counters(
        _bench_metrics(
            seed, n=n, degree=degree, graph_offset=n, protocol=("local", {"max_degree": degree})
        )
    )


@sweep_task("bench.congest")
def _bench_congest(
    *, n: int, degree: int, num_byz: int, behaviour: str, seed: int
) -> Dict[str, Any]:
    """One Algorithm 2 run, parameterized like the E2/E3 congest sweeps."""
    from repro.core.parameters import CongestParameters

    budget = CongestParameters(d=degree).rounds_through_phase(int(math.ceil(math.log(n))) + 1)
    return _counters(
        _bench_metrics(
            seed,
            n=n,
            degree=degree,
            graph_offset=n + num_byz,
            protocol=("congest", {"d": degree, "max_rounds": budget}),
            behaviour=behaviour,
            num_byz=num_byz,
        )
    )


@sweep_task("bench.local_churn")
def _bench_local_churn(
    *, n: int, degree: int, count: int, start: int, absence: int, seed: int
) -> Dict[str, Any]:
    """One Algorithm 1 run under a seeded leave/re-join churn schedule.

    Exercises the dynamics seam end to end: departures cut a node out
    mid-run, re-joins spawn fresh protocol instances, and every surviving
    node's ``LocalView`` re-converges through the dynamic integrate path.
    The deterministic counters therefore cover the churn delta application
    and the claim updates and retractions, not just the static hot path.
    """
    metrics = _bench_metrics(
        seed,
        n=n,
        degree=degree,
        graph_offset=n,
        protocol=("local", {"max_degree": degree}),
        churn=("node-leave-join", {"count": count, "start": start, "absence": absence}),
    )
    return {**_counters(metrics, "rounds_executed"), "churn_events": metrics["churn_events"]}


def _bench_loopback(
    path: str, *, n: int, degree: int, seeds: Sequence[int], workers: int
) -> Dict[str, Any]:
    """An E3-style scenario suite executed through the distributed runner.

    Runs a benign congest scenario (compiled through the declarative
    scenario path, like every E3 cell) over loopback with ``workers``
    worker daemons, and returns the summed deterministic counters.  The
    individual cells are deliberately small: the wall-clock the outer bench
    harness records is dominated by worker start-up + dispatch, i.e. these
    rows put the *runner's dispatch overhead* on the trajectory, not the
    simulation itself.  ``path`` picks the runner path, one pinned task
    each:

    - ``dist`` (``bench.dist_loopback``): the distributed backend's own
      in-process hub, started for the sweep, with loopback workers forked
      into it.
    - ``chaos`` (``bench.chaos_loopback``): the same with an **all-zero**
      :class:`~repro.runner.faults.FaultPlan` -- every injection hook is
      threaded through broker and workers and consulted on every protocol
      line, and never fires.  The delta against ``dist`` is the chaos
      machinery's injector-off overhead.
    - ``hub`` (``bench.hub_loopback``): an in-process
      :class:`~repro.runner.hub.service.SweepHub`, persistent worker
      daemons connected to it, and a ``DistributedBackend(connect=...)``
      client submitting over TCP.  The delta against ``dist`` is the cost
      of a standing hub and fleet against one started per sweep.
    - ``hub-ha`` (``bench.hub_ha_loopback``): the hub with a crash-safe
      state journal and admission control -- every completion lands an
      atomic hub-journal write and every submit passes the capacity check.
      The delta against ``hub`` is the HA machinery's steady-state cost.
    """
    import contextlib
    import tempfile

    from repro.runner.distributed import DistributedBackend, spawn_loopback_worker
    from repro.runner.distributed.backend import LoopbackWorker, stop_workers
    from repro.runner.faults import FaultPlan
    from repro.runner.hub import SweepHub
    from repro.scenarios.spec import Scenario

    scenario = Scenario.from_dict(
        {
            "name": f"{path}-loopback-e3-n{n}",
            "graph": {"name": "hnd", "params": {"n": n, "degree": degree}, "seed_offset": 0},
            "adversary": {"name": "silent", "params": {}, "seed_offset": 0},
            "placement": {"name": "random", "params": {"count": 0}, "seed_offset": 0},
            "protocol": {"name": "congest", "params": {"d": degree}, "seed_offset": 0},
            "params": {},
            "seeds": list(seeds),
        }
    )
    if path in ("dist", "chaos"):
        backend = DistributedBackend(
            spawn_workers=workers,
            fault_plan=FaultPlan(seed=0) if path == "chaos" else None,
            quiet=True,
        )
        rows = SweepRunner(backend=backend).run(scenario.compile())
    else:
        state = (
            tempfile.TemporaryDirectory(prefix="bench-hub-ha-")
            if path == "hub-ha"
            else contextlib.nullcontext()
        )
        with state as state_dir:
            ha = {} if state_dir is None else {"state_dir": state_dir, "max_pending": 10_000}
            hub = SweepHub(host="127.0.0.1", port=0, **ha)
            address = hub.start()
            procs: List[LoopbackWorker] = []
            try:
                procs.extend(
                    spawn_loopback_worker(address, exit_when_drained=False)
                    for _ in range(workers)
                )
                runner = SweepRunner(
                    backend=DistributedBackend(connect=address, quiet=True)
                )
                rows = runner.run(scenario.compile())
            finally:
                stop_workers(procs)
                hub.stop()
    return {
        "rounds": sum(row["rounds"] for row in rows),
        "messages": sum(row["messages"] for row in rows),
        "bits": sum(row["bits"] for row in rows),
        "cells": len(rows),
    }


def _loopback_task(path: str) -> Callable[..., Dict[str, Any]]:
    def task(*, n: int, degree: int, seeds: Sequence[int], workers: int):
        return _bench_loopback(path, n=n, degree=degree, seeds=seeds, workers=workers)

    return task


for _path in ("dist", "chaos", "hub", "hub-ha"):
    sweep_task(f"bench.{_path.replace('-', '_')}_loopback")(_loopback_task(_path))


# --------------------------------------------------------------------------- #
# Pinned scenarios
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BenchScenario:
    """One named, pinned benchmark configuration."""

    name: str
    task: str
    params: Dict[str, Any]

    def config(self) -> SweepConfig:
        return SweepConfig(self.task, dict(self.params))


#: The full trajectory suite: E12-style Algorithm 1 runs, E3-style benign
#: Algorithm 2 runs, and E2-style Byzantine beacon-flood runs, at several n.
#: These parameterizations are pinned -- changing them breaks comparability
#: of the BENCH_*.json trajectory, so add new scenarios instead.
SCENARIOS: Tuple[BenchScenario, ...] = (
    BenchScenario("e12-local-n256", "bench.local", {"n": 256, "degree": 8, "seed": 0}),
    BenchScenario("e12-local-n512", "bench.local", {"n": 512, "degree": 8, "seed": 0}),
    BenchScenario(
        "e3-congest-n128",
        "bench.congest",
        {"n": 128, "degree": 8, "num_byz": 0, "behaviour": "silent", "seed": 0},
    ),
    BenchScenario(
        "e3-congest-n256",
        "bench.congest",
        {"n": 256, "degree": 8, "num_byz": 0, "behaviour": "silent", "seed": 0},
    ),
    BenchScenario(
        "e2-congest-n128",
        "bench.congest",
        {"n": 128, "degree": 8, "num_byz": 4, "behaviour": "beacon-flood", "seed": 0},
    ),
    BenchScenario(
        "e2-congest-n256",
        "bench.congest",
        {"n": 256, "degree": 8, "num_byz": 5, "behaviour": "beacon-flood", "seed": 0},
    ),
    # Appended with the scenario API (PR 3): the same E2-style beacon-flood
    # workload expressed as a declarative scenario spec and executed through
    # the generic ``scenario.run`` task, so the declarative path itself stays
    # on the perf trajectory.  The spec literal is pinned like every other
    # scenario parameterization above.
    BenchScenario(
        "scenario-e2-congest-n128",
        "scenario.run",
        {
            "spec": {
                "graph": {
                    "name": "hnd",
                    "params": {"n": 128, "degree": 8},
                    "seed_offset": 0,
                },
                "adversary": {"name": "beacon-flood", "params": {}, "seed_offset": 0},
                "placement": {
                    "name": "spread",
                    "params": {"count": 4},
                    "seed_offset": 0,
                },
                "protocol": {
                    "name": "congest",
                    "params": {"gamma": 0.5, "d": 8, "max_rounds": 738},
                    "seed_offset": 0,
                },
                "params": {
                    "evaluation": {"kind": "far", "radius": 1},
                    "check": {"name": "theorem2", "beta": 0.25},
                },
            },
            "seed": 128,
        },
    ),
    # Appended with the columnar hot-path rewrite (PR 4): a larger E2-style
    # beacon-flood run (the Algorithm 2 engine/delivery hot path at 512
    # nodes; num_byz follows the E2 driver's B(n) = n^0.3 budget) and one E9
    # adversary-grid cell (Algorithm 1's LocalView under the fake-topology
    # attack schedule, through the declarative scenario path).  Both
    # parameterizations are pinned -- append new scenarios, never edit.
    BenchScenario(
        "e2-congest-n512",
        "bench.congest",
        {"n": 512, "degree": 8, "num_byz": 6, "behaviour": "beacon-flood", "seed": 0},
    ),
    BenchScenario(
        "scenario-e9-grid-small",
        "scenario.run",
        {
            "spec": {
                "graph": {
                    "name": "hnd",
                    "params": {"n": 128, "degree": 8},
                    "seed_offset": 128,
                },
                "adversary": {
                    "name": "fake-topology",
                    "params": {},
                    "seed_offset": 0,
                },
                "placement": {
                    "name": "spread",
                    "params": {"count": 4},
                    "seed_offset": 1,
                },
                "protocol": {
                    "name": "local",
                    "params": {"gamma": 0.7, "max_degree": 8},
                    "seed_offset": 0,
                },
                "params": {"evaluation": {"kind": "good", "gamma": 0.7}},
            },
            "seed": 0,
        },
    ),
    # Appended with the distributed backend (PR 5): a small E3-style benign
    # scenario suite executed over a loopback broker with two loopback worker
    # daemons.  The cells are tiny on purpose -- the recorded wall-clock
    # measures worker start-up + lease/dispatch/result overhead, so broker or
    # protocol regressions show up on the trajectory even when simulation
    # speed is unchanged.  Pinned like every parameterization above.
    BenchScenario(
        "scenario-e3-dist-loopback",
        "bench.dist_loopback",
        {"n": 48, "degree": 8, "seeds": [0, 1, 2, 3], "workers": 2},
    ),
    # Appended with the dynamic-topology subsystem (PR 6): an E12-style
    # Algorithm 1 run under a seeded leave/re-join schedule (the dynamic
    # integrate path at 256 nodes), and an E2-style congest
    # scenario under seeded edge flips through the declarative path with an
    # explicit round bound (Algorithm 2 does not adapt to churn; the bound
    # keeps the degradation measurement finite).  Pinned like every
    # parameterization above -- append new scenarios, never edit.
    BenchScenario(
        "e12-local-churn-n256",
        "bench.local_churn",
        {"n": 256, "degree": 8, "count": 4, "start": 6, "absence": 3, "seed": 0},
    ),
    BenchScenario(
        "scenario-e2-churn-n128",
        "scenario.run",
        {
            "spec": {
                "graph": {
                    "name": "hnd",
                    "params": {"n": 128, "degree": 8},
                    "seed_offset": 0,
                },
                "adversary": {"name": "beacon-flood", "params": {}, "seed_offset": 0},
                "placement": {
                    "name": "spread",
                    "params": {"count": 4},
                    "seed_offset": 0,
                },
                "protocol": {
                    "name": "congest",
                    "params": {"gamma": 0.5, "d": 8, "max_rounds": 300},
                    "seed_offset": 0,
                },
                "churn": {
                    "name": "edge-flip",
                    "params": {"flips": 4, "start": 40, "duration": 20},
                    "seed_offset": 0,
                },
                "params": {
                    "evaluation": {"kind": "far", "radius": 1},
                },
            },
            "seed": 128,
        },
    ),
    # Appended with chaos hardening (PR 7): the PR-5 loopback workload with
    # the fault-injection machinery threaded through broker and workers but
    # every rate at zero.  The delta against ``scenario-e3-dist-loopback``
    # is the injector-off overhead of the chaos hooks (per-line injector
    # checks, journal writes, event log), pinned so "disabled" keeps meaning
    # "free".  Pinned like every parameterization above -- append, never edit.
    BenchScenario(
        "scenario-e3-chaos-loopback",
        "bench.chaos_loopback",
        {"n": 48, "degree": 8, "seeds": [0, 1, 2, 3], "workers": 2},
    ),
    # Appended with the Sweep Hub (PR 8): the PR-5 loopback workload
    # submitted to a standing hub over the client protocol instead of a
    # private broker.  The delta against ``scenario-e3-dist-loopback`` is
    # the hub's submission/multiplexing overhead (submit handshake,
    # fair-share ranking, per-sweep queue routing), pinned so the
    # multi-tenant path stays on the trajectory.  Pinned like every
    # parameterization above -- append, never edit.
    BenchScenario(
        "scenario-e3-hub-loopback",
        "bench.hub_loopback",
        {"n": 48, "degree": 8, "seeds": [0, 1, 2, 3], "workers": 2},
    ),
    # Appended with hub high availability (PR 9): the PR-8 hub workload
    # with the HA layer on -- crash-safe hub journal, admission control,
    # heartbeat-bearing client streams -- and no fault ever firing.  The
    # delta against ``scenario-e3-hub-loopback`` is the steady-state cost
    # of durability (per-completion atomic journal writes, per-submit
    # capacity checks), pinned so it stays near zero.  Pinned like every
    # parameterization above -- append, never edit.
    BenchScenario(
        "scenario-e3-hub-ha-loopback",
        "bench.hub_ha_loopback",
        {"n": 48, "degree": 8, "seeds": [0, 1, 2, 3], "workers": 2},
    ),
    # Appended with the protocol zoo (PR 10): one consensus run per new
    # family through the declarative ``scenario.run`` path at n=64.  The
    # Ben-Or cell exercises the coin-stream/phase machinery (quadratic
    # message volume, few rounds); the grouped-BFT cell exercises the
    # consistent-hash grouping + flood-relayed OM(m) cascade (many dedup
    # checks per round).  Both put the zoo's per-round hot paths on the
    # trajectory.  Pinned like every parameterization above -- append,
    # never edit.
    BenchScenario(
        "scenario-zoo-benor-n64",
        "scenario.run",
        {
            "spec": {
                "graph": {
                    "name": "hnd",
                    "params": {"n": 64, "degree": 8},
                    "seed_offset": 0,
                },
                "adversary": {"name": "silent", "params": {}, "seed_offset": 0},
                "placement": {
                    "name": "spread",
                    "params": {"count": 3},
                    "seed_offset": 0,
                },
                "protocol": {
                    "name": "benor",
                    "params": {"f": 3, "max_phases": 60},
                    "seed_offset": 0,
                },
                "params": {},
            },
            "seed": 64,
        },
    ),
    BenchScenario(
        "scenario-zoo-groupedbft-n64",
        "scenario.run",
        {
            "spec": {
                "graph": {
                    "name": "hnd",
                    "params": {"n": 64, "degree": 8},
                    "seed_offset": 0,
                },
                "adversary": {"name": "silent", "params": {}, "seed_offset": 0},
                "placement": {
                    "name": "spread",
                    "params": {"count": 3},
                    "seed_offset": 0,
                },
                "protocol": {
                    "name": "grouped-bft",
                    "params": {"f": 1, "groups": 3},
                    "seed_offset": 0,
                },
                "params": {},
            },
            "seed": 64,
        },
    ),
    # Appended with the derived LocalView geometry: the E12-style Algorithm 1
    # run at the next size up, so the trajectory shows how a view's cost
    # scales with n (the per-round derivation is linear in the view, the
    # whole run quadratic in n).  Pinned like every parameterization above
    # -- append, never edit.
    BenchScenario("e12-local-n1024", "bench.local", {"n": 1024, "degree": 8, "seed": 0}),
    # Appended with record-id masked deltas: the next point of the Algorithm 1
    # scaling curve.
    BenchScenario("e12-local-n2048", "bench.local", {"n": 2048, "degree": 8, "seed": 0}),
    # Appended once e12-local-n1024 ran under 1 s with carried delta masks
    # (~25 s and ~145 MB peak resident on one core).  n16384 stays out:
    # every view settles ~n claims, so a run holds ~n^2 claim references.
    BenchScenario("e12-local-n4096", "bench.local", {"n": 4096, "degree": 8, "seed": 0}),
)

#: Reduced suite for ``make bench-smoke`` (sub-minute end to end).
SMOKE_SCENARIOS: Tuple[BenchScenario, ...] = (
    BenchScenario("e12-local-n128", "bench.local", {"n": 128, "degree": 8, "seed": 0}),
    BenchScenario(
        "e3-congest-n64",
        "bench.congest",
        {"n": 64, "degree": 8, "num_byz": 0, "behaviour": "silent", "seed": 0},
    ),
    BenchScenario(
        "e2-congest-n64",
        "bench.congest",
        {"n": 64, "degree": 8, "num_byz": 3, "behaviour": "beacon-flood", "seed": 0},
    ),
)


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #
def run_bench(
    scenarios: Optional[Sequence[BenchScenario]] = None,
    *,
    workers: int = 1,
    repeats: int = 3,
    artifact_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Execute the scenarios ``repeats`` times each and build a report dict.

    Wall-clocks come from the sweep runner's per-task execution metadata
    (the runner times every task it executes); the recorded figure is the
    minimum over the repeats, which is the stablest point estimate on a
    shared machine.  The deterministic counters (rounds/messages/bits) must
    agree across repeats -- a mismatch raises, because it would mean a task
    is not the pure function of its config the runner contract requires.
    """
    chosen = list(scenarios if scenarios is not None else SCENARIOS)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    configs = [scenario.config() for scenario in chosen for _ in range(repeats)]
    runner = SweepRunner(workers=workers, artifact_dir=artifact_dir, force=True)
    results = runner.run(configs)
    metas = runner.last_metas

    rows: List[Dict[str, Any]] = []
    for i, scenario in enumerate(chosen):
        base = i * repeats
        repeat_results = results[base : base + repeats]
        for other in repeat_results[1:]:
            if other != repeat_results[0]:
                raise RuntimeError(
                    f"bench scenario {scenario.name!r} is not deterministic "
                    f"across repeats: {repeat_results[0]!r} != {other!r}"
                )
        walls = [
            meta["wall_clock_s"]
            for meta in metas[base : base + repeats]
            if meta is not None
        ]
        rows.append(
            {
                "name": scenario.name,
                "task": scenario.task,
                "params": dict(scenario.params),
                "wall_clock_s": round(min(walls), 4),
                "wall_clock_all": [round(w, 4) for w in walls],
                "result": repeat_results[0],
            }
        )
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "workers": workers,
        "repeats": repeats,
        "scenarios": rows,
    }


def write_report(
    report: Dict[str, Any], directory: Union[str, Path], *, filename: Optional[str] = None
) -> Path:
    """Write ``report`` in ``directory`` and return its path.

    ``filename`` is written as given.  Without it the report takes the
    first free name of the day's sequence ``BENCH_<date>.json``,
    ``BENCH_<date>b.json``, ... ``BENCH_<date>z.json``, which sorts after
    the day's earlier reports, so an existing file is never overwritten.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    if filename is not None:
        names, mode = [filename], "w"
    else:
        stem = f"{BENCH_PREFIX}{date.today().isoformat()}"
        names = [f"{stem}{suffix}.json" for suffix in ["", *ascii_lowercase[1:]]]
        mode = "x"
    for name in names:
        path = root / name
        try:
            handle = path.open(mode, encoding="utf-8")
        except FileExistsError:
            continue
        with handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path
    raise FileExistsError(f"no free report name left in {root} after {names[-1]}")


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable table of one bench report."""
    from repro.analysis.tables import render_table

    rows = [
        {
            "scenario": row["name"],
            "wall_clock_s": row["wall_clock_s"],
            "rounds": row["result"].get("rounds"),
            "messages": row["result"].get("messages"),
            "bits": row["result"].get("bits"),
        }
        for row in report["scenarios"]
    ]
    header = (
        f"bench ({report['repeats']} repeats, {report['workers']} workers, "
        f"created {report['created']})"
    )
    return header + "\n" + render_table(rows)
