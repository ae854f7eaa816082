"""Command-line entry point: ``repro-byzantine-counting``.

Sub-commands:

``run``
    Execute one counting algorithm on a generated topology and print the
    outcome summary, e.g.::

        repro-byzantine-counting run --algorithm congest --n 256 --byzantine 3 \
            --adversary beacon-flood --seed 1

``sweep`` (alias ``experiment``)
    Run one of the E1-E12 experiment drivers (or ``all``) with its default
    (small) configuration and print the regenerated table.  The driver's
    cells go through the sweep runner: serially by default, or fanned over a
    local worker pool or the distributed broker/worker cluster, optionally
    caching each run as a JSON artifact (see RUNNER.md), e.g.::

        repro-byzantine-counting experiment e3
        repro-byzantine-counting sweep e12 --workers 8 --artifact-dir .sweeps
        repro-byzantine-counting sweep e12 --backend distributed --listen :9876

``worker``
    Worker daemon for the distributed backend: connect to a broker started
    with ``sweep/scenario run --backend distributed --listen HOST:PORT``,
    lease tasks, stream results back (see RUNNER.md, "Distributed
    backend")::

        repro-byzantine-counting worker --connect 10.0.0.5:9876 --workers 8

``scenario``
    The declarative scenario API (see SCENARIOS.md).  ``scenario run`` executes
    a JSON spec -- either a single scenario or a suite with a table layout --
    through the sweep runner; ``scenario list`` enumerates the registered
    graph families, adversary behaviours, placements, and protocols::

        repro-byzantine-counting scenario run examples/scenario_e2_small.json
        repro-byzantine-counting scenario list

``bench``
    Run the pinned performance scenarios (E2/E3/E12-style workloads at
    several n) and write the measurements to ``BENCH_<date>.json`` (see
    RUNNER.md, "Performance")::

        repro-byzantine-counting bench

``hub``
    The standing multi-tenant sweep service (see RUNNER.md, "Sweep Hub").
    ``hub serve`` runs the daemon (concurrent submissions, fair-share
    dispatch over the fleet that dials in with ``worker --connect``);
    ``hub status`` queries a running hub::

        repro-byzantine-counting hub serve --listen :9876 --artifact-dir .sweeps
        repro-byzantine-counting worker --connect host:9876
        repro-byzantine-counting scenario run spec.json --connect host:9876 \
            --artifact-dir .sweeps
        repro-byzantine-counting hub status --connect host:9876

``sweeps``
    List the sweep journals under an artifact root with their status
    (done/total, resumable, error) -- the table ``hub status
    --artifact-dir`` appends::

        repro-byzantine-counting sweeps --artifact-dir .sweeps

``runs``
    Query the results database derived from artifacts + journals:
    ``runs list`` (history), ``runs show REF`` (one run's params, result,
    meta), ``runs diff REF_A REF_B`` (field-by-field comparison)::

        repro-byzantine-counting runs list --artifact-dir .sweeps
        repro-byzantine-counting runs diff ab12 cd34 --artifact-dir .sweeps
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.tables import render_table
from repro.scenarios import (
    ADVERSARIES,
    GRAPHS,
    PLACEMENTS,
    PROTOCOLS,
    ComponentSpec,
    Scenario,
    ScenarioSuite,
    all_registries,
    materialize,
)

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return parsed


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared sweep-execution flags (``sweep`` and ``scenario run``)."""
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes (1 = serial); for --backend distributed this "
        "is the default number of loopback workers to spawn",
    )
    parser.add_argument(
        "--artifact-dir",
        default=None,
        help="JSON artifact cache directory (makes re-runs resumable)",
    )
    parser.add_argument(
        "--force", action="store_true", help="recompute even when artifacts exist"
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted sweep: report what the sweep journal in "
        "--artifact-dir recorded and re-execute only the configs whose "
        "artifacts are missing (requires --artifact-dir)",
    )
    parser.add_argument(
        "--backend",
        choices=("serial", "pool", "distributed"),
        default=None,
        help="execution backend (default: serial for --workers 1, else pool)",
    )
    parser.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="distributed: bind the broker here and wait for external "
        "workers (started with the 'worker' subcommand) instead of "
        "spawning loopback ones",
    )
    parser.add_argument(
        "--spawn-workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="distributed: spawn N loopback worker processes (default: "
        "--workers when no --listen is given)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="distributed: broker lease TTL (default 30; lower it to detect "
        "dead workers faster in chaos/demo runs)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="distributed: re-dispatches per task before the sweep fails "
        "(default 2; raise it under fault injection)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="distributed: deterministic fault-injection plan -- inline JSON "
        "(starts with '{') or a path to a JSON file (see RUNNER.md, "
        "'Fault injection & resume')",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="always show the sweep-level k/N progress line (default: only "
        "parallel backends on a terminal)",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="submit the sweep to a standing hub ('hub serve') instead of "
        "running a private broker; implies --backend distributed",
    )
    parser.add_argument(
        "--priority",
        type=int,
        default=0,
        help="hub submission priority (with --connect): higher preempts "
        "other sweeps at the next lease grant",
    )
    parser.add_argument(
        "--reconnect-attempts",
        type=int,
        default=None,
        metavar="N",
        help="with --connect: consecutive failed hub reconnects tolerated "
        "before giving up (default 8; 0 fails fast)",
    )


def _parse_fault_plan(spec: str):
    """``--fault-plan``: inline JSON object or a path to a JSON file."""
    from repro.runner import FaultPlan

    if spec.lstrip().startswith("{"):
        document = json.loads(spec)
    else:
        with open(spec, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    return FaultPlan.from_dict(document)


def _runner_from_args(args: argparse.Namespace):
    """Build the SweepRunner the shared execution flags describe."""
    from repro.runner import DistributedBackend, SweepRunner
    from repro.runner.distributed import parse_address

    distributed_only = {
        "--listen": args.listen is not None,
        "--spawn-workers": args.spawn_workers is not None,
        "--lease-ttl": args.lease_ttl is not None,
        "--max-retries": args.max_retries is not None,
        "--fault-plan": args.fault_plan is not None,
    }
    if args.connect is not None:
        # A hub submission: the hub owns the broker-side knobs.
        if args.backend not in (None, "distributed"):
            raise SystemExit(f"--connect conflicts with --backend {args.backend}")
        conflicting = [flag for flag, on in distributed_only.items() if on]
        if conflicting:
            raise SystemExit(
                f"{'/'.join(conflicting)} conflict(s) with --connect: a "
                "standing hub owns its broker configuration ('hub serve')"
            )
    elif args.backend != "distributed" and any(distributed_only.values()):
        used = "/".join(flag for flag, on in distributed_only.items() if on)
        raise SystemExit(f"{used} require(s) --backend distributed")
    if args.priority and args.connect is None:
        raise SystemExit("--priority requires --connect (hub submission)")
    if args.reconnect_attempts is not None and args.connect is None:
        raise SystemExit("--reconnect-attempts requires --connect (hub submission)")
    if args.resume and args.artifact_dir is None:
        raise SystemExit("--resume requires --artifact-dir (nothing to resume from)")
    if args.resume and args.force:
        raise SystemExit("--resume and --force are contradictory")
    backend = args.backend
    if args.connect is not None:
        connect_extra = {}
        if args.reconnect_attempts is not None:
            connect_extra["reconnect_attempts"] = args.reconnect_attempts
        backend = DistributedBackend(
            connect=parse_address(args.connect),
            priority=args.priority,
            **connect_extra,
        )
    elif backend == "distributed":
        if args.listen is not None:
            listen = parse_address(args.listen)
            spawn = args.spawn_workers or 0
        else:
            listen = ("127.0.0.1", 0)
            spawn = args.spawn_workers if args.spawn_workers is not None else args.workers
        extra = {}
        if args.lease_ttl is not None:
            extra["lease_ttl_s"] = args.lease_ttl
        if args.max_retries is not None:
            extra["max_retries"] = args.max_retries
        if args.fault_plan is not None:
            extra["fault_plan"] = _parse_fault_plan(args.fault_plan)
        backend = DistributedBackend(listen=listen, spawn_workers=spawn, **extra)
    return SweepRunner(
        workers=args.workers,
        artifact_dir=args.artifact_dir,
        force=args.force,
        progress=True if args.progress else None,
        backend=backend,
        resume=args.resume,
    )


def _registry_epilog() -> str:
    """One line per registry for ``--help`` (the composable scenario axes)."""
    lines = ["registered scenario components (see SCENARIOS.md):"]
    for axis, registry in all_registries().items():
        lines.append(f"  {axis + 's':<12} {', '.join(registry.names())}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-byzantine-counting",
        description="Byzantine-resilient counting in networks (ICDCS 2022) reproduction",
        epilog=_registry_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one counting algorithm")
    run_parser.add_argument("--algorithm", choices=PROTOCOLS.names(), default="congest")
    run_parser.add_argument("--topology", choices=GRAPHS.names(), default="hnd")
    run_parser.add_argument("--n", type=int, default=256, help="number of nodes")
    run_parser.add_argument("--degree", type=int, default=8, help="degree d of H(n, d)")
    run_parser.add_argument("--byzantine", type=int, default=0, help="number of Byzantine nodes")
    run_parser.add_argument("--placement", choices=PLACEMENTS.names(), default="random")
    run_parser.add_argument("--adversary", choices=ADVERSARIES.names(), default="silent")
    run_parser.add_argument("--gamma", type=float, default=0.5)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--max-rounds", type=int, default=None)

    sweep_parser = sub.add_parser(
        "sweep",
        aliases=["experiment"],
        help="run an experiment driver (E1-E12) through the sweep runner",
    )
    sweep_parser.add_argument("name", help="experiment id (e1-e12) or 'all'")
    _add_runner_arguments(sweep_parser)
    sweep_parser.set_defaults(command="sweep")

    worker_parser = sub.add_parser(
        "worker", help="worker daemon for the distributed sweep backend"
    )
    worker_parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="broker address (the --listen of a distributed sweep)",
    )
    worker_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="local worker processes for leased tasks",
    )
    worker_parser.add_argument(
        "--exit-when-drained",
        action="store_true",
        help="exit after the first drained sweep instead of polling for the "
        "next one (loopback/demo mode)",
    )
    worker_parser.add_argument(
        "--worker-id",
        default=None,
        help="identity reported to the broker (default: host:pid)",
    )
    worker_parser.add_argument(
        "--giveup-attempts",
        type=_positive_int,
        default=8,
        metavar="N",
        help="with --exit-when-drained: give up after N consecutive failed "
        "connection attempts (counted on the reconnect backoff)",
    )
    worker_parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="deterministic fault-injection plan (inline JSON or file path); "
        "loopback workers of a chaos sweep get theirs from the backend",
    )
    worker_parser.add_argument(
        "--fault-salt",
        default="",
        metavar="SALT",
        help="decision-stream separator for --fault-plan (one per worker "
        "process, e.g. worker-0)",
    )
    worker_parser.add_argument(
        "--lease-capacity",
        type=_positive_int,
        default=None,
        metavar="N",
        help="tasks to request per lease (default: --workers)",
    )
    worker_parser.add_argument(
        "--verbose", action="store_true", help="log connection/lease events"
    )

    scenario_parser = sub.add_parser(
        "scenario", help="declarative scenario specs (see SCENARIOS.md)"
    )
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command", required=True)
    scenario_run = scenario_sub.add_parser(
        "run", help="run a scenario (or suite) JSON spec through the sweep runner"
    )
    scenario_run.add_argument("spec", help="path to a scenario or suite JSON file")
    _add_runner_arguments(scenario_run)
    scenario_sub.add_parser(
        "list", help="list the registered components of every scenario axis"
    )

    bench_parser = sub.add_parser(
        "bench", help="run the pinned perf scenarios and record BENCH_<date>.json"
    )
    bench_parser.add_argument(
        "--scenarios",
        choices=("full", "smoke"),
        default="full",
        help="scenario suite: 'full' (trajectory) or 'smoke' (sub-minute)",
    )
    bench_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes (keep 1 for the least noisy wall-clocks)",
    )
    bench_parser.add_argument(
        "--repeats",
        type=_positive_int,
        default=3,
        help="runs per scenario; the minimum wall-clock is recorded",
    )
    bench_parser.add_argument(
        "--output-dir",
        default=".",
        help="directory holding the BENCH_<date>.json trajectory",
    )
    bench_parser.add_argument(
        "--no-write",
        action="store_true",
        help="measure and print only; do not write a BENCH file",
    )
    bench_parser.add_argument(
        "--output-name",
        default=None,
        metavar="FILENAME",
        help=(
            "file name for the written report, overwritten if it exists "
            "(default: the first free BENCH_<date>.json, BENCH_<date>b.json, ...)"
        ),
    )
    bench_parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help=(
            "run the bench under cProfile and write a top-25 cumulative "
            "report to PATH (forces --workers 1)"
        ),
    )

    hub_parser = sub.add_parser(
        "hub", help="standing multi-tenant sweep service (see RUNNER.md)"
    )
    hub_sub = hub_parser.add_subparsers(dest="hub_command", required=True)
    hub_serve = hub_sub.add_parser(
        "serve", help="run the hub daemon (shared fleet, concurrent sweeps)"
    )
    hub_serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default="127.0.0.1:0",
        help="bind address for workers and submissions (port 0: pick a free "
        "port; the chosen address is announced on stdout)",
    )
    hub_serve.add_argument(
        "--artifact-dir",
        default=None,
        help="shared artifact root: every submission dedupes against and "
        "persists into it (strongly recommended)",
    )
    hub_serve.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="broker lease TTL (default 30)",
    )
    hub_serve.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="default re-dispatch budget per task (default 2)",
    )
    hub_serve.add_argument(
        "--chunk-size", type=_positive_int, default=None, metavar="N",
        help="cap tasks per lease (default: the worker's requested capacity)",
    )
    hub_serve.add_argument(
        "--state",
        default=None,
        metavar="DIR",
        help="hub journal directory: accepted submissions are recorded "
        "crash-safely and interrupted sweeps are re-adopted on restart",
    )
    hub_serve.add_argument(
        "--max-pending",
        type=_positive_int,
        default=None,
        metavar="N",
        help="admission control: reject new submissions (with a structured "
        "retry-after) once this many tasks are pending hub-wide",
    )
    hub_serve.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON|PATH",
        help="chaos-test the hub itself: a FaultPlan document (inline JSON "
        "or a file path) consulted under the 'hub' salt -- see "
        "SCENARIOS.md for the crash-hub / hang-hub sites",
    )
    hub_status = hub_sub.add_parser("status", help="query a running hub")
    hub_status.add_argument(
        "--connect", required=True, metavar="HOST:PORT", help="the hub address"
    )
    hub_status.add_argument(
        "--artifact-dir",
        default=None,
        help="also list the sweep journals under this artifact root",
    )

    sweeps_parser = sub.add_parser(
        "sweeps", help="list sweep journals under an artifact root"
    )
    sweeps_parser.add_argument(
        "--artifact-dir", required=True, help="artifact root holding the journals"
    )

    runs_parser = sub.add_parser(
        "runs", help="query run history (artifacts + journals; see RUNNER.md)"
    )
    runs_sub = runs_parser.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list stored runs")
    runs_list.add_argument("--artifact-dir", required=True)
    runs_list.add_argument("--task", default=None, help="restrict to one task")
    runs_list.add_argument(
        "--sweep", default=None, help="restrict to one sweep id (see 'sweeps')"
    )
    runs_show = runs_sub.add_parser("show", help="show one run in full")
    runs_show.add_argument("ref", help="artifact key prefix (or task/prefix)")
    runs_show.add_argument("--artifact-dir", required=True)
    runs_diff = runs_sub.add_parser("diff", help="compare two runs field by field")
    runs_diff.add_argument("ref_a", help="first run (key prefix or task/prefix)")
    runs_diff.add_argument("ref_b", help="second run")
    runs_diff.add_argument("--artifact-dir", required=True)
    return parser


def _cli_scenario(args: argparse.Namespace) -> Scenario:
    """The declarative scenario equivalent of the ``run`` subcommand's flags."""
    graph_params = {"n": args.n}
    if args.topology in ("hnd", "configuration"):
        graph_params["degree"] = args.degree
    protocol_params = {}
    if args.algorithm == "local":
        # Algorithm 1's analysis needs gamma bounded away from 0.
        protocol_params["gamma"] = max(args.gamma, 0.05)
    else:
        protocol_params["gamma"] = args.gamma
    if args.max_rounds is not None:
        protocol_params["max_rounds"] = args.max_rounds
    return Scenario(
        name=f"cli-{args.algorithm}",
        graph=ComponentSpec(args.topology, graph_params),
        adversary=ComponentSpec(args.adversary),
        placement=ComponentSpec(args.placement, {"count": args.byzantine}),
        protocol=ComponentSpec(args.algorithm, protocol_params),
        seeds=(args.seed,),
    )


def _command_run(args: argparse.Namespace) -> int:
    cell = materialize(_cli_scenario(args), args.seed)
    summary = cell.run.outcome.summary()
    print(
        render_table(
            [summary], title=f"{args.algorithm} counting on {cell.graph.name}"
        )
    )
    histogram = cell.run.outcome.estimate_histogram()
    if histogram:
        print()
        print(
            render_table(
                [{"estimate": k, "nodes": v} for k, v in histogram.items()],
                title="decided estimates",
            )
        )
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    # Numeric order (e1..e12), not lexicographic (which puts e10 after e1).
    ordered = sorted(ALL_EXPERIMENTS, key=lambda key: int(key[1:]))
    name = args.name.lower()
    names = ordered if name == "all" else [name]
    for candidate in names:
        if candidate not in ALL_EXPERIMENTS:
            print(f"unknown experiment {args.name!r}; options: {ordered}")
            return 2
    runner = _runner_from_args(args)
    for candidate in names:
        result = ALL_EXPERIMENTS[candidate].run_experiment(runner=runner)
        print(result.render())
        if runner.store is not None:
            print(
                f"[sweep] {candidate}: {runner.last_cached} cached, "
                f"{runner.last_executed} executed -> artifacts in {runner.store.root}"
            )
        print()
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    from repro.runner.distributed import parse_address
    from repro.runner.distributed.worker import run_worker

    host, port = parse_address(args.connect)
    return run_worker(
        host,
        port,
        fault_plan=(
            _parse_fault_plan(args.fault_plan) if args.fault_plan is not None else None
        ),
        fault_salt=args.fault_salt,
        procs=args.workers,
        lease_capacity=args.lease_capacity,
        worker_id=args.worker_id,
        exit_when_drained=args.exit_when_drained,
        giveup_attempts=args.giveup_attempts,
        verbose=args.verbose,
    )


def _command_scenario_run(args: argparse.Namespace) -> int:
    runner = _runner_from_args(args)
    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if isinstance(document, dict) and "rows" in document:
            suite = ScenarioSuite.from_dict(document)
            result = suite.run(runner)
            print(result.render())
        else:
            scenario = Scenario.from_dict(document)
            rows = runner.run(scenario.compile())
            print(
                render_table(
                    [
                        {"seed": seed, **metrics}
                        for seed, metrics in zip(scenario.seeds, rows)
                    ],
                    title=scenario.name or "scenario",
                )
            )
    except (OSError, TypeError, ValueError, KeyError) as exc:
        # Spec authoring errors (unreadable file, malformed JSON, unknown
        # components or fields) get a one-line diagnosis, not a traceback.
        print(f"invalid scenario spec {args.spec}: {exc}")
        return 2
    if runner.store is not None:
        print(
            f"[scenario] {runner.last_cached} cached, {runner.last_executed} "
            f"executed -> artifacts in {runner.store.root}"
        )
    return 0


def _command_scenario_list(args: argparse.Namespace) -> int:
    for axis, registry in all_registries().items():
        rows = []
        for entry in registry.entries():
            row = {"name": entry.name, "description": entry.description}
            if "targets" in entry.tags:
                row["targets"] = ", ".join(entry.tags["targets"])
            surface = entry.tags.get("params")
            if surface is not None:
                # Declared parameter surface (protocol zoo): required params
                # plain, optional params with a trailing "?".
                required = [str(p) for p in surface.get("required", ())]
                optional = [f"{p}?" for p in surface.get("optional", ())]
                row["params"] = ", ".join(required + optional) or "-"
            rows.append(row)
        print(render_table(rows, title=f"{axis} registry ({registry.kind})"))
        print()
    print("Compose one component per axis into a Scenario spec; see SCENARIOS.md.")
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.runner import bench

    scenarios = bench.SMOKE_SCENARIOS if args.scenarios == "smoke" else bench.SCENARIOS
    if args.profile is not None:
        # Profile mode: run the suite in-process under cProfile and write a
        # top-25 cumulative report artifact.  The wall-clocks are inflated
        # by the profiler, so profile mode never writes a BENCH file.
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        report = bench.run_bench(scenarios, workers=1, repeats=args.repeats)
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(25)
        profile_path = Path(args.profile)
        profile_path.parent.mkdir(parents=True, exist_ok=True)
        profile_path.write_text(buffer.getvalue(), encoding="utf-8")
        print(bench.render_report(report))
        print("[bench] profile mode: report not written")
        print(f"[bench] wrote profile report {profile_path}")
        return 0
    report = bench.run_bench(scenarios, workers=args.workers, repeats=args.repeats)
    print(bench.render_report(report))
    if not args.no_write:
        path = bench.write_report(report, args.output_dir, filename=args.output_name)
        print(f"[bench] wrote {path}")
    return 0


def _sweep_table(records) -> str:
    """The journal listing shared by ``sweeps`` and ``hub status``."""
    rows = [
        {
            "sweep": record["sweep"],
            "status": record["status"],
            "done": f"{record['done']}/{record['total']}",
            "cached": record["cached"],
            "resumed": record["resumed"],
            "events_dropped": record["events_dropped"],
            "updated": record["updated"],
            "error": record["error"],
        }
        for record in records
    ]
    return render_table(rows, title="sweep journals") if rows else "(no sweep journals)"


def _command_sweeps(args: argparse.Namespace) -> int:
    from repro.runner.hub import ResultsDB

    db = ResultsDB(args.artifact_dir)
    print(_sweep_table(db.sweep_records()))
    if db.skipped_count:
        print(f"[sweeps] {db.skipped_count} unreadable file(s) skipped")
    return 0


def _command_hub_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.runner import ArtifactStore, FaultInjector
    from repro.runner.distributed import parse_address
    from repro.runner.faults import CRASH_EXIT_CODE
    from repro.runner.hub import SweepHub

    host, port = parse_address(args.listen)
    store = ArtifactStore(args.artifact_dir) if args.artifact_dir else None
    injector = None
    if args.fault_plan is not None:
        injector = FaultInjector(_parse_fault_plan(args.fault_plan), salt="hub")
    hub = SweepHub(
        store=store,
        host=host,
        port=port,
        lease_ttl_s=args.lease_ttl,
        max_retries=args.max_retries,
        chunk_size=args.chunk_size,
        state_dir=args.state,
        max_pending=args.max_pending,
        injector=injector,
    )
    # Re-adopt journaled sweeps before accepting: a client resubmitting one
    # of them then always re-attaches to the adopted queue.
    adopted_sweeps = hub.adopt_journaled()
    # A restarted hub re-binds its fixed port: give the previous
    # incarnation's socket a grace window to clear instead of failing.
    address = hub.start(bind_retry_s=10.0 if port else 0.0)
    # Parseable announcement: demo harnesses read the chosen port from it.
    print(f"[hub] listening on {address[0]}:{address[1]}", flush=True)
    if store is not None:
        print(f"[hub] artifact root: {store.root}", flush=True)
    if args.state:
        print(f"[hub] state dir: {args.state}", flush=True)
        for adopted in adopted_sweeps:
            print(
                f"[hub] re-adopted sweep {adopted['sweep']} "
                f"(identity {adopted['identity']}, "
                f"{adopted['cached']}/{adopted['total']} already done)",
                flush=True,
            )
    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        while not stop.is_set() and not hub.crashed.is_set():
            stop.wait(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        crashed = hub.crashed.is_set()
        print(
            "[hub] crashed (injected fault)" if crashed else "[hub] shutting down",
            flush=True,
        )
        if not crashed:
            hub.stop()
    return CRASH_EXIT_CODE if crashed else 0


def _command_hub_status(args: argparse.Namespace) -> int:
    from repro.runner import BrokerError
    from repro.runner.distributed import parse_address
    from repro.runner.hub import ResultsDB, query_hub_status

    try:
        status = query_hub_status(parse_address(args.connect))
    except BrokerError as exc:
        print(f"hub status failed: {exc}")
        return 1
    address = status.get("address") or ["?", "?"]
    print(
        f"hub {address[0]}:{address[1]} -- up {status.get('uptime_s', '?')}s, "
        f"{status.get('active_leases', 0)} active lease(s), "
        f"{status.get('events_dropped', 0)} event(s) dropped"
    )
    print()
    sweeps = status.get("sweeps", [])
    if sweeps:
        print(render_table(sweeps, title="sweeps"))
    else:
        print("(no sweeps submitted)")
    print()
    workers = status.get("workers", [])
    if workers:
        print(render_table(workers, title="workers"))
    else:
        print("(no workers connected)")
    print()
    stats = status.get("stats", {})
    print(render_table([stats], title="stats") if stats else "(no stats)")
    if args.artifact_dir:
        print()
        print(_sweep_table(ResultsDB(args.artifact_dir).sweep_records()))
    return 0


def _command_runs(args: argparse.Namespace) -> int:
    from repro.runner.hub import ResultsDB

    db = ResultsDB(args.artifact_dir)
    if args.runs_command == "list":
        records = db.run_records(task=args.task, sweep=args.sweep, with_result=False)
        rows = [
            {
                "task": record["task"],
                "key": record["key"][:16],
                "sweeps": ", ".join(record["sweeps"]) or "-",
                "updated": record["updated"],
            }
            for record in records
        ]
        print(render_table(rows, title=f"runs ({len(rows)})") if rows else "(no stored runs)")
        if db.skipped_count:
            print(f"[runs] {db.skipped_count} unreadable file(s) skipped")
        return 0
    try:
        if args.runs_command == "show":
            record = db.find(args.ref)
            print(json.dumps(record, indent=2, sort_keys=True))
            return 0
        if args.runs_command == "diff":
            diff = db.diff(args.ref_a, args.ref_b)
            print(json.dumps(diff, indent=2, sort_keys=True))
            if not diff["params"] and not diff["result"]:
                print("[runs] identical params and result")
            return 0
    except KeyError as exc:
        print(f"runs {args.runs_command} failed: {exc.args[0]}")
        return 2
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _dispatch(parser, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed (``... | head``): Python's documented recipe points it
        # at devnull so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "run":
        return _command_run(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "worker":
        return _command_worker(args)
    if args.command == "scenario":
        if args.scenario_command == "run":
            return _command_scenario_run(args)
        return _command_scenario_list(args)
    if args.command == "bench":
        return _command_bench(args)
    if args.command == "hub":
        if args.hub_command == "serve":
            return _command_hub_serve(args)
        return _command_hub_status(args)
    if args.command == "sweeps":
        return _command_sweeps(args)
    if args.command == "runs":
        return _command_runs(args)
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
