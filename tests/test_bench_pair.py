"""``benchmarks/pair.py`` (``make bench-pair``): its summary math on canned
perfbench output lines, and its clean-up on a stub tree whose
``perfbench/run.py`` forks a sleeper; no benchmark runs."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

PAIR = Path(__file__).resolve().parent.parent / "benchmarks" / "pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", PAIR)
pair = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair)

END_TO_END = [
    {"name": "cells_per_s", "better": "higher"},
    {"name": "cpu_s", "better": "lower"},
    {"name": "peak_rss_mb", "better": "lower"},
]


def line(rate, cpu, rss=40.0, failed=0):
    """The last line perfbench prints: one JSON document."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": 48,
        "failed": failed,
        "metrics": {
            "cells_per_s": {"value": rate, "unit": "1/s"},
            "cpu_s": {"value": cpu, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    })


def canned(rows):
    """``(base, change)`` documents parsed from a perfbench stdout each."""
    return [
        (pair.last_document(f"[perfbench] ...\n{base}\n"), pair.last_document(change))
        for base, change in rows
    ]


class TestSummary:
    def test_medians_ratio_wins_and_quartiles(self):
        pairs = canned([
            (line(10.0, 4.0), line(12.0, 3.0)),
            (line(11.0, 4.2), line(13.0, 3.5)),
            (line(12.0, 3.9), line(11.0, 4.1)),
            (line(13.0, 4.1), line(15.0, 3.2)),
            (line(14.0, 4.0), line(16.0, 3.3)),
        ])
        rows = {row.name: row for row in pair.summarize(pairs, END_TO_END)}
        rate = rows["cells_per_s"]
        assert (rate.base_median, rate.change_median) == (12.0, 13.0)
        assert rate.ratio == pytest.approx(13.0 / 12.0)
        assert (rate.wins, rate.pairs) == (4, 5)
        # Inclusive quartiles of 10..14 and of 11, 12, 13, 15, 16.
        assert rate.base_quartiles == (11.0, 13.0)
        assert rate.change_quartiles == (12.0, 15.0)
        cpu = rows["cpu_s"]
        assert (cpu.base_median, cpu.change_median) == (4.0, 3.3)
        assert (cpu.wins, cpu.pairs) == (4, 5)
        # Ties are not wins.
        assert rows["peak_rss_mb"].wins == 0
        assert rows["peak_rss_mb"].ratio == 1.0

    def test_single_pair_quartiles_are_the_value(self):
        rows = pair.summarize(canned([(line(10.0, 4.0), line(12.0, 3.0))]), END_TO_END)
        assert rows[0].base_quartiles == (10.0, 10.0)

    def test_missing_metric_is_skipped(self):
        base = pair.last_document(line(10.0, 4.0))
        change = pair.last_document(line(12.0, 3.0))
        del change["metrics"]["cpu_s"]
        rows = {row.name: row for row in pair.summarize([(base, change)], END_TO_END)}
        assert "cpu_s" not in rows and rows["cells_per_s"].wins == 1

    def test_failed_runs_are_reported(self):
        pairs = canned([(line(10.0, 4.0), line(12.0, 3.0, failed=2))])
        assert pair.failures(pairs) == ["pair 0 change: failed=2 correct=False"]
        rendered = pair.render(pair.summarize(pairs, END_TO_END), pair.failures(pairs))
        assert rendered.splitlines()[-1] == "FAILED pair 0 change: failed=2 correct=False"
        assert pair.failures(canned([(line(10.0, 4.0), line(12.0, 3.0))])) == []

    def test_render_has_one_line_per_metric(self):
        pairs = canned([(line(10.0, 4.0), line(12.0, 3.0))] * 3)
        rendered = pair.render(pair.summarize(pairs, END_TO_END), [])
        lines = rendered.splitlines()
        assert len(lines) == 1 + len(END_TO_END)
        assert lines[1].split()[:6] == ["cells_per_s", "higher", "10", "12", "1.200", "3/3"]


class TestVerdict:
    """The verdict column, on ten stub pairs of ``cells_per_s`` values."""

    SPEC = [{"name": "cells_per_s", "better": "higher", "bound": 0.25},
            {"name": "cpu_s", "better": "lower", "bound": 0.25}]

    def verdicts(self, base_rates, change_rates):
        pairs = canned([(line(b, 4.0), line(c, 4.0))
                        for b, c in zip(base_rates, change_rates)])
        return {row.name: row.verdict for row in pair.summarize(pairs, self.SPEC)}

    BASE = [10.0 + 0.1 * i for i in range(10)]

    def test_gain_needs_nine_wins_and_a_median_past_the_base_spread(self):
        faster = [rate * 1.2 for rate in self.BASE]
        assert self.verdicts(self.BASE, faster) == {"cells_per_s": "gain", "cpu_s": "within"}
        # Eight wins of ten are not enough.
        mixed = faster[:8] + [rate * 0.99 for rate in self.BASE[8:]]
        assert self.verdicts(self.BASE, mixed)["cells_per_s"] == "within"
        # Ten wins whose median stays inside the base's quartile spread.
        barely = [rate + 0.01 for rate in self.BASE]
        assert self.verdicts(self.BASE, barely)["cells_per_s"] == "within"

    def test_worse_past_the_bound(self):
        slower = [rate * 0.7 for rate in self.BASE]
        assert self.verdicts(self.BASE, slower)["cells_per_s"] == "worse"
        assert self.verdicts(self.BASE, [rate * 0.8 for rate in self.BASE])[
            "cells_per_s"] == "within"

    def test_unresolved_when_either_side_spreads_past_the_bound(self):
        wide = [5.0, 15.0] * 5
        assert self.verdicts(self.BASE, wide)["cells_per_s"] == "unresolved"
        assert self.verdicts(wide, self.BASE)["cells_per_s"] == "unresolved"

    def test_within_otherwise(self):
        same = [rate * 1.01 if i % 2 else rate * 0.99 for i, rate in enumerate(self.BASE)]
        assert self.verdicts(self.BASE, same) == {"cells_per_s": "within", "cpu_s": "within"}

    def test_rendered_last_column(self):
        pairs = canned([(line(b, 4.0), line(b * 0.5, 4.0)) for b in self.BASE])
        rendered = pair.render(pair.summarize(pairs, self.SPEC), [])
        assert rendered.splitlines()[0].split()[-1] == "verdict"
        assert rendered.splitlines()[1].split()[-1] == "worse"


#: A ``perfbench/run.py`` that forks a sleeper (as a ``sweep-mixed`` run forks
#: its loopback workers), records both pids, then sleeps or fails.
STUB_RUN = """\
import os, sys, time
child = os.fork()
if child == 0:
    time.sleep(120)
    os._exit(0)
with open(os.environ["PAIR_STUB_PIDS"], "a") as pids:
    pids.write(f"{os.getpid()} {child}\\n")
if os.environ["PAIR_STUB_MODE"] == "fail":
    sys.exit(1)
time.sleep(120)
"""


def _alive(pid):
    """Whether ``pid`` runs (a zombie nobody reaped yet counts as gone)."""
    try:
        os.kill(pid, 0)
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (ProcessLookupError, FileNotFoundError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _wait_until(predicate, seconds=30.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class TestCleanUp:
    """No process and no ``bench-pair-*`` directory outlives the script."""

    @pytest.fixture
    def stub(self, tmp_path):
        tree = tmp_path / "tree"
        (tree / "benchmarks").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        shutil.copy(PAIR, tree / "benchmarks" / "pair.py")
        (tree / "perfbench" / "run.py").write_text(STUB_RUN)
        (tree / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": []}))
        git = ["git", "-c", "user.name=stub", "-c", "user.email=stub@example.com"]
        for command in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
            subprocess.run(git + command, cwd=tree, check=True, capture_output=True)
        temp = tmp_path / "temp"
        temp.mkdir()
        return tree, temp, tmp_path / "pids"

    def _start(self, stub, mode):
        tree, temp, pids = stub
        env = dict(os.environ, TMPDIR=str(temp), PAIR_STUB_PIDS=str(pids), PAIR_STUB_MODE=mode)
        return subprocess.Popen(
            [sys.executable, "benchmarks/pair.py", "--base", "HEAD", "--pairs", "1"],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )

    def _recorded(self, pids):
        if not pids.exists():
            return []
        return [int(pid) for line in pids.read_text().splitlines() for pid in line.split()]

    def _check(self, script, stub, code):
        tree, temp, pids = stub
        try:
            assert script.wait(timeout=30) == code
            started = self._recorded(pids)
            assert started
            assert _wait_until(lambda: not any(map(_alive, started)), 10), started
            assert list(temp.iterdir()) == []
        finally:
            for pid in [script.pid] + self._recorded(pids):
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_signal_kills_the_run_and_its_fork(self, stub, signum):
        script = self._start(stub, "sleep")
        assert _wait_until(lambda: len(self._recorded(stub[2])) == 2)
        script.send_signal(signum)
        self._check(script, stub, 128 + signum)

    def test_failed_run_leaves_no_fork(self, stub):
        script = self._start(stub, "fail")
        self._check(script, stub, 1)
