#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload alg1-local --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload's table of cells is
generated from ``--seed`` and regenerated pass after pass until ``--seconds``
have been measured.  Every line of output names a metric with its unit,
direction and sample count; the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics instead (see ``layers.py``).  ``--inject-delay
SPAN=FRACTION`` slows one in-process layer down (the slowdown drill).
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"
#: Set-up is repeated this many times per run, and the imports are timed this
#: many times; ``setup_s`` is the sum of the two medians.
SETUP_REPEATS = 3
IMPORT_SAMPLES = 5
#: Spawned workers of the distributed workload (``nproc`` of the bench box).
DIST_WORKERS = 2
#: ``cell_s.tail`` is the highest percentile with this many cells beyond it.
TAIL_CELLS = 10


@dataclass
class Pass:
    """One regeneration of the workload's table."""

    wall: float
    cpu: float
    results: List[Any]
    #: Execution seconds of each executed cell, by config index.
    cell_times: Dict[int, float]
    #: Process CPU seconds of each cell, by config index (serial passes only).
    cell_cpu: Dict[int, float]
    cached: int
    stats: Dict[str, int]
    traced: bool
    workers: int
    #: Peak RSS of the process and its children so far, read after the pass.
    peak_rss_mb: float

    @property
    def exec_s(self) -> float:
        return sum(self.cell_times.values())

    @property
    def rate(self) -> float:
        """Cells per wall second."""
        return len(self.results) / self.wall

    def counters(self) -> Dict[str, int]:
        return {
            "sim.rounds": sum(r["rounds_executed"] for r in self.results),
            "sim.messages": sum(r["messages"] for r in self.results),
            "sim.bits": sum(r["bits"] for r in self.results),
        }


@dataclass
class Check:
    """Correctness bookkeeping of a run."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _rank(pct: int, count: int) -> int:
    """Nearest rank of the whole percentile ``pct`` among ``count`` values."""
    return max(1, -(-pct * count // 100))


def _percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[_rank(pct, len(values)) - 1]


def tail_percentile(cells: int) -> int:
    """The highest whole percentile with ``TAIL_CELLS`` of ``cells`` beyond it."""
    return max((p for p in range(100) if cells - _rank(p, cells) >= TAIL_CELLS), default=0)


def _fastest(per_pass: Sequence[Dict[int, float]]) -> Dict[int, float]:
    """Each cell's fastest repeat over the passes."""
    best: Dict[int, float] = {}
    for seconds in per_pass:
        for index, value in seconds.items():
            best[index] = min(value, best.get(index, value))
    return best


def _import_seconds() -> float:
    """The import seconds of a fresh interpreter running this script."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--import-seconds",
         "--workload", "-", "--seed", "0", "--seconds", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout)


def _serial_backend():
    """The serial backend, adding each cell's process CPU seconds to its meta."""
    from repro.runner.backends import SerialBackend

    class CellClock(SerialBackend):
        def execute(self, pending, *, store=None, force=False):
            cells = super().execute(pending, store=store, force=force)
            while True:
                cpu = time.process_time()
                try:
                    index, result, meta = next(cells)
                except StopIteration:
                    return
                yield index, result, dict(meta, cpu_s=time.process_time() - cpu)

    return CellClock()


# --------------------------------------------------------------------------- #
class Bench:
    def __init__(self, workload, seed: int, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.table = None
        self.prestored: Dict[int, Any] = {}
        #: Import seconds: this process's, then fresh interpreters' between passes.
        self.imports: List[float] = []

    def set_up(self) -> float:
        """Generate the table, warm up, pre-store; return the seconds taken."""
        from repro.runner import ArtifactStore, SweepRunner

        start = time.perf_counter()
        table = self.workload.table(self.seed)
        serial = SweepRunner(workers=1, progress=False)
        prestored: Dict[int, Any] = {}
        if table.prestored:
            # Running the pre-stored half in-process doubles as the warm-up.
            results = serial.run([table.configs[i] for i in table.prestored])
            prestored = dict(zip(table.prestored, results))
            self._prestore(ArtifactStore(tempfile.mkdtemp(dir=self.work_dir)), table, prestored)
        else:
            serial.run(table.configs[:1])
        elapsed = time.perf_counter() - start
        self.table, self.prestored = table, prestored
        return elapsed

    @staticmethod
    def _prestore(store, table, prestored: Dict[int, Any]) -> None:
        for index, result in prestored.items():
            store.store(table.configs[index], result)

    def run_pass(self, *, traced: bool, patch: Callable[[], Any]) -> Pass:
        """Regenerate the table once; ``patch()`` wraps layers just before
        the timed part and returns the patcher to restore right after it."""
        from repro.runner import ArtifactStore, SweepRunner
        from repro.runner.distributed import DistributedBackend

        gc.collect()
        root: Optional[Path] = None
        if self.workload.distributed:
            root = Path(tempfile.mkdtemp(dir=self.work_dir))
            self._prestore(ArtifactStore(root), self.table, self.prestored)
            runner = SweepRunner(
                artifact_dir=root,
                backend=DistributedBackend(spawn_workers=DIST_WORKERS, quiet=True),
                progress=False,
            )
            workers = DIST_WORKERS
        else:
            runner = SweepRunner(backend=_serial_backend(), progress=False)
            workers = 1
        patcher = patch()
        cpu = _cpu_seconds()
        start = time.perf_counter()
        try:
            results = runner.run(self.table.configs)
        finally:
            wall = time.perf_counter() - start
            cpu = _cpu_seconds() - cpu
            if patcher is not None:
                patcher.restore()
            if root is not None:
                shutil.rmtree(root, ignore_errors=True)
        metas = [(i, m) for i, m in enumerate(runner.last_metas) if m is not None]
        return Pass(
            wall=wall,
            cpu=cpu,
            results=results,
            cell_times={i: m["wall_clock_s"] for i, m in metas},
            cell_cpu={i: m["cpu_s"] for i, m in metas if "cpu_s" in m},
            cached=runner.last_cached,
            stats=dict(getattr(runner.backend, "last_stats", {}) or {}),
            traced=traced,
            workers=workers,
            peak_rss_mb=_peak_rss_mb(),
        )

    def serial_results(self, indices: Sequence[int]) -> List[Any]:
        from repro.runner import SweepRunner

        return SweepRunner(workers=1, progress=False).run(
            [self.table.configs[i] for i in indices]
        )


# --------------------------------------------------------------------------- #
def _check_results(
    check: Check,
    results: Sequence[Any],
    expected: Sequence[Any],
    table,
    recorded: Optional[Dict[str, Dict[str, Any]]],
    label: str,
    theorem_check: bool = False,
) -> None:
    from workloads import cell_counters

    for index, (result, want) in enumerate(zip(results, expected)):
        config = table.configs[index]
        if result != want:
            check.fail(1, f"{label}: cell {index} differs from the reference table")
        elif theorem_check and result.get("check_passed") != 1.0:
            check.fail(1, f"{label}: cell {index} failed its theorem check")
        elif recorded is not None and cell_counters(result) != recorded.get(config.key()):
            # The counters include ``check_passed``: a regressed theorem
            # check fails the cell here.
            check.fail(1, f"{label}: cell {index} counters differ from reference/")


def measure(bench: Bench, seconds: float, trace: bool, delays: Dict[str, float]):
    """Run passes until ``seconds`` are measured and check every result.

    Returns ``(passes, tracer, in_process, check)``; ``in_process`` is the
    tracer of the in-process rerun of ``sweep-mixed`` (traced runs only).
    """
    import layers
    from tracer import Tracer
    from workloads import load_reference

    workload = bench.workload
    table = bench.table
    check = Check()
    passes: List[Pass] = []
    tracer = Tracer(cell_roots=[layers.CELL_ROOT], delays=delays) if trace else None
    slowdown = Tracer(delays=delays, record=False) if delays else None
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            patch = lambda: layers.install(tracer)  # noqa: E731
        elif slowdown is not None:
            patch = lambda: layers.install(slowdown, only=set(delays))  # noqa: E731
        else:
            patch = lambda: None  # noqa: E731
        check.attempted += len(table.configs)
        try:
            passes.append(bench.run_pass(traced=traced, patch=patch))
        except Exception:
            traceback.print_exc()
            check.fail(len(table.configs), f"pass {len(passes)} raised")
            return passes, tracer, None, check
        if not trace and len(bench.imports) < IMPORT_SAMPLES:
            # Spread over the run, the samples do not all meet one slow burst.
            bench.imports.append(_import_seconds())
        if sum(p.wall for p in passes) < seconds:
            continue
        if not trace or (any(p.traced for p in passes) and any(not p.traced for p in passes)):
            break

    in_process = None
    if workload.distributed:
        # The reference table is computed in-process: set-up already ran the
        # pre-stored half, the other half runs now.  With tracing on, the
        # whole table runs in-process under a tracer, which is where the
        # worker-side layers of this workload are measured.
        everything = range(len(table.configs))
        pending = [i for i in everything if i not in bench.prestored]
        reference = [bench.prestored.get(i) for i in everything]
        if trace:
            in_process = Tracer(cell_roots=[layers.CELL_ROOT], delays=delays)
            patcher = layers.install(in_process)
            try:
                serial = bench.serial_results(everything)
            finally:
                patcher.restore()
        else:
            serial = dict(zip(pending, bench.serial_results(pending)))
        for i in pending:
            reference[i] = serial[i]
        if trace:
            _check_results(check, serial, reference, table, None, "in-process rerun")
    else:
        reference = passes[0].results
    for number, current in enumerate(passes):
        _check_results(check, current.results, reference, table, None, f"pass {number}")
    _check_results(check, reference, reference, table,
                   load_reference(workload.name, bench.seed), "reference",
                   workload.theorem_check)
    return passes, tracer, in_process, check


# --------------------------------------------------------------------------- #
def end_to_end(bench: Bench, passes: List[Pass], setup_s: float) -> Dict[str, Any]:
    # The shared host slows down in bursts of a few seconds, by up to half.
    # Every pass executes the same cells, and each executed cell counts once,
    # at its fastest repeat: the tail holds the slowest cells of the table,
    # not the moments a neighbour was busy.
    best = _fastest([p.cell_times for p in passes])
    times = list(best.values())
    pct = tail_percentile(len(times))
    beyond = len(times) - _rank(pct, len(times))
    cells = f"{len(times)} executed cells, each the fastest of {len(passes)} passes"
    if bench.workload.distributed:
        # Cells overlap on the workers, so a pass does not split into cells;
        # its passes are short and their median is steady.
        sample = f"median of {len(passes)} passes"
        rate = statistics.median(p.rate for p in passes)
        cpu = statistics.median(p.cpu for p in passes)
    else:
        # A serial pass is no shorter than a burst, but it is its cells one
        # after another plus the runner's own time: rebuild it from each
        # cell's fastest repeat and the median runner time.
        sample = f"{len(passes)} passes rebuilt from each cell's fastest repeat"
        rate = len(passes[0].results) / (
            statistics.median(p.wall - p.exec_s for p in passes) + sum(times))
        cpu = (statistics.median(p.cpu - sum(p.cell_cpu.values()) for p in passes)
               + sum(_fastest([p.cell_cpu for p in passes]).values()))
    return {
        "cells_per_s": (rate, sample),
        "cell_s.p50": (statistics.median(times), cells),
        "cell_s.tail": (_percentile(times, pct), f"p{pct}, {beyond} distinct cells beyond; {cells}"),
        "cpu_s": (cpu, f"per table, {sample}"),
        "setup_s": (setup_s, f"median of {len(bench.imports)} import timings + "
                             f"median of {SETUP_REPEATS} set-ups"),
        # Read after the last pass: on sweep-mixed this leaves out the
        # in-process reference rerun that follows, but not set-up.
        "peak_rss_mb": (max(p.peak_rss_mb for p in passes), "process and children"),
    }


def per_layer(passes: List[Pass], tracer, in_process, check: Check) -> Dict[str, Any]:
    import layers

    def med(values):
        return statistics.median(list(values))

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    out: Dict[str, Any] = {}
    spans = layers.layer_metrics(tracer.totals(), len(traced))
    if in_process is not None:
        for name, value in layers.layer_metrics(in_process.totals(), 1).items():
            spans[name] += value
    for name, value in spans.items():
        out[name] = (value, f"per table, {len(traced)} traced passes")

    sample = f"per table, median of {len(plain)} untraced passes"
    out["runner.cache_hits"] = (med(p.cached for p in plain), sample)
    out["runner.exec_s"] = (med(p.exec_s for p in plain), sample)
    out["runner.dispatch_overhead_s"] = (
        med(p.workers * p.wall - p.exec_s for p in plain), sample)
    out["runner.worker_util"] = (med(p.exec_s / (p.workers * p.wall) for p in plain), sample)
    for key in ("retries", "expired_leases", "duplicate_results"):
        out[f"runner.{key}"] = (sum(p.stats.get(key, 0) for p in passes), "summed over passes")
    counters = plain[0].counters()
    for current in passes:
        if current.counters() != counters:
            check.fail(len(current.results), "traced work counters differ from untraced")
    for name, value in counters.items():
        out[name] = (value, "per table, exact")
    untraced_rate = med(p.rate for p in plain)
    traced_rate = med(p.rate for p in traced)
    out["trace.slowdown"] = (
        untraced_rate / traced_rate,
        f"untraced {untraced_rate:.4g} vs traced {traced_rate:.4g} cells/s",
    )
    return out


def report(values: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Print every metric with unit, direction, bound and sample count."""
    import layers

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    moves = {m.name: m.moves for m in layers.METRICS}
    metrics: Dict[str, Any] = {}
    print(f"{'metric':30} {'value':>14} {'unit':6} {'better':7} {'bound':6} samples")
    for name, (value, samples) in values.items():
        spec = specs[name]
        if spec["unit"] == "count":
            value = int(round(value))
        better = spec.get("better", "-")
        bound = spec.get("bound", "-")
        line = f"{name:30} {value:>14.6g} {spec['unit']:6} {better:7} {bound!s:6} {samples}"
        if trace:
            line += f"  [moves: {moves.get(name, '-')}]"
        print(line)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


# --------------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-delay", action="append", default=[], metavar="SPAN=FRACTION",
        help="busy-wait FRACTION x each call's duration after every call of SPAN",
    )
    parser.add_argument("--import-seconds", action="store_true",
                        help="print the seconds the imports took and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {SRC}; run from a checkout\n")
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import layers
    import repro.runner.distributed  # noqa: F401
    import repro.scenarios  # noqa: F401  (registers every task and component)
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    if args.import_seconds:
        print(import_s)
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}")
    delays: Dict[str, float] = {}
    for item in args.inject_delay:
        span, _, fraction = item.partition("=")
        if span not in layers.span_names():
            parser.error(f"unknown span {span!r}; options: {layers.span_names()}")
        delays[span] = float(fraction)
    workload = WORKLOADS[args.workload]

    WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        bench = Bench(workload, args.seed, work_dir)
        bench.imports.append(import_s)
        setups = [bench.set_up() for _ in range(SETUP_REPEATS)]
        print(f"[perfbench] workload={workload.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} cells/table={len(bench.table.configs)}"
              + (f" delays={delays}" if delays else ""))
        passes, tracer, in_process, check = measure(
            bench, args.seconds, bool(args.trace), delays)
        if not passes or (args.trace and not any(p.traced for p in passes)):
            values: Dict[str, Any] = {}
        elif args.trace:
            values = per_layer(passes, tracer, in_process, check)
            tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
            if in_process is not None:
                in_process.save(OUT_DIR / f"spans-{workload.name}-in-process.npz")
        else:
            setup_s = statistics.median(bench.imports) + statistics.median(setups)
            values = end_to_end(bench, passes, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in check.problems:
        print(f"[perfbench] FAILED: {problem}")
    frac = check.failed / max(1, check.attempted)
    print(f"[perfbench] attempted={check.attempted} failed={check.failed} failed_frac={frac:.4f}")
    metrics = report(values, bool(args.trace))
    document = {
        "correct": check.failed == 0 and bool(passes),
        "attempted": max(1, check.attempted),
        "failed": check.failed,
        "metrics": metrics,
    }
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
