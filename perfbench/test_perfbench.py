"""Deterministic checks of the benchmark's own machinery.

The timing drill lives in ``drill.py``; nothing here depends on how fast the
machine is.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import RECORDED_SEEDS, WORKLOADS, load_reference  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    """Advances one tick per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_excludes_direct_children():
    tracer = Tracer(clock=FakeClock(), cell_roots=["outer"])
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    totals = tracer.totals()
    # outer: start 1, inner spans (2,3) and (4,5), end 6.
    assert totals["inner"] == {"calls": 2, "total": 2.0, "self": 2.0}
    assert totals["outer"] == {"calls": 1, "total": 5.0, "self": 3.0}
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.cell) == [0, 0, 0]


def test_cell_ids_follow_cell_roots():
    tracer = Tracer(clock=FakeClock(), cell_roots=["cell"])
    leaf = tracer.wrap("leaf", lambda: None)
    cell = tracer.wrap("cell", leaf)
    leaf(), cell(), cell()
    assert list(tracer.cell) == [-1, 0, 0, 1, 1]


def test_delay_spins_for_the_fraction_of_the_call():
    clock = FakeClock()
    slowed = Tracer(clock=clock, delays={"f": 3.0}, record=False).wrap("f", lambda: None)
    slowed()
    # start=1, the call reads 2 and 3 while computing the deadline 2+(3-1)*3=8,
    # then spins until a reading reaches it.
    assert clock.now == 8.0


def test_untraced_and_undelayed_wrap_is_the_function_itself():
    fn = lambda: None  # noqa: E731
    assert Tracer(record=False).wrap("f", fn) is fn


def test_install_traces_a_cell_and_restores_everything():
    from repro.scenarios import ComponentSpec, Scenario, execute
    from repro.simulator.engine import SynchronousEngine

    originals = (execute.materialize, execute.build_graph, SynchronousEngine.run)
    scenario = Scenario(
        name="tiny",
        graph=ComponentSpec("hnd", {"n": 16, "degree": 4}),
        adversary=ComponentSpec("fake-topology"),
        placement=ComponentSpec("spread", {"count": 1}),
        protocol=ComponentSpec("local"),
        seeds=(3,),
    )
    untraced = execute.execute_cell(**scenario.compile()[0].params)
    tracer = Tracer(cell_roots=[layers.CELL_ROOT])
    patcher = layers.install(tracer)
    try:
        traced = execute.execute_cell(**scenario.compile()[0].params)
    finally:
        patcher.restore()
    assert (execute.materialize, execute.build_graph, SynchronousEngine.run) == originals
    assert traced == untraced
    totals = tracer.totals()
    for span in ("scenario.materialize", "graphs.build", "engine.init", "engine.run",
                 "honest.on_start", "honest.on_round", "local_view.integrate",
                 "adversary.act", "protocol.run"):
        assert totals[span]["calls"] >= 1, span
    assert tracer.cells == 1
    metrics = layers.layer_metrics(totals, 1)
    assert metrics["engine.self_s"] < metrics["engine.run_s"]
    assert metrics["adversary.act_calls"] == totals["adversary.act"]["calls"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tables_are_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    first, again, other = workload.table(5), workload.table(5), workload.table(6)
    assert [c.key() for c in first.configs] == [c.key() for c in again.configs]
    assert first.prestored == again.prestored
    assert [c.key() for c in first.configs] != [c.key() for c in other.configs]
    assert len(first.configs) == workload.cells
    if workload.distributed:
        assert len(first.prestored) == workload.cells // 2
    executed = workload.cells - len(first.prestored)
    assert run.tail_percentile(executed) >= 50


def test_benchmark_json_matches_the_code():
    # alg2-congest stays runnable (the drill's bypass workload) but is not
    # gated: see README.md.
    assert [w["name"] for w in SPEC["workloads"]] == ["alg1-local", "sweep-mixed"]
    assert {w["why"] for w in SPEC["workloads"]} <= {w.why for w in WORKLOADS.values()}
    assert [m["name"] for m in SPEC["per_layer"]] == [m.name for m in layers.METRICS]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        m.name: m.unit for m in layers.METRICS
    }
    fake = run.Pass(wall=1.0, cpu=1.0, results=[{}], cell_times=dict.fromkeys(range(40), 0.5),
                    cell_cpu=dict.fromkeys(range(40), 0.5), cached=0, stats={}, traced=False,
                    workers=1, peak_rss_mb=40.0)
    bench = run.Bench(WORKLOADS["alg2-congest"], 0, HERE)
    assert list(run.end_to_end(bench, [fake], 1.0)) == [m["name"] for m in SPEC["end_to_end"]]


def test_a_serial_pass_is_rebuilt_from_each_cells_fastest_repeat():
    def serial(wall, cpu, times):
        return run.Pass(wall=wall, cpu=cpu, results=[{}] * len(times),
                        cell_times=dict(enumerate(times)), cell_cpu=dict(enumerate(times)),
                        cached=0, stats={}, traced=False, workers=1, peak_rss_mb=40.0)

    # Each pass caught one cell in a burst; the runner's own time is 0.5 s.
    passes = [serial(4.5, 5.5, [1.0, 3.0]), serial(4.5, 5.5, [3.0, 1.0])]
    metrics = run.end_to_end(run.Bench(WORKLOADS["alg1-local"], 0, HERE), passes, 1.0)
    assert metrics["cells_per_s"][0] == 2 / 2.5
    assert metrics["cpu_s"][0] == 3.5
    assert metrics["cell_s.p50"][0] == 1.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_references_are_recorded_for_the_default_and_held_out_seeds(name):
    for seed in RECORDED_SEEDS:
        recorded = load_reference(name, seed)
        assert recorded is not None, (name, seed)
        assert set(recorded) == {c.key() for c in WORKLOADS[name].table(seed).configs}


@pytest.mark.parametrize("cells, pct", [(20, 50), (48, 79), (64, 84), (100, 90)])
def test_tail_percentile_leaves_ten_distinct_cells_beyond(cells, pct):
    assert run.tail_percentile(cells) == pct
    times = [float(i) for i in range(cells)]
    assert sum(t > run._percentile(times, pct) for t in times) == run.TAIL_CELLS


def test_a_failed_theorem_check_fails_the_cell_on_any_seed():
    table = WORKLOADS["alg1-local"].table(7)
    results = [{"check_passed": 1.0}, {"check_passed": 0.0}]
    check = run.Check()
    run._check_results(check, results, results, table, None, "reference", theorem_check=True)
    assert check.failed == 1
    check = run.Check()
    run._check_results(check, results, results, table, None, "reference")
    assert check.failed == 0


def test_compare_flags_regressions_and_names_the_grown_layer():
    # Totals (engine.run_s, runner.exec_s) grow with the layer inside them.
    base = {"cells_per_s": 10.0, "cpu_s": 1.0, "local_view.integrate_s": 2.0,
            "engine.self_s": 0.5, "engine.run_s": 3.0, "runner.exec_s": 3.2}
    slow = {"cells_per_s": 7.0, "cpu_s": 1.02, "local_view.integrate_s": 3.0,
            "engine.self_s": 0.55, "engine.run_s": 4.0, "runner.exec_s": 4.3}
    found = [name for name, _, _ in compare.regressions(base, slow, SPEC)]
    assert found == ["cells_per_s"]
    assert compare.layer_growth(base, slow)[0][0] == "local_view.integrate_s"


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "alg1-local", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
