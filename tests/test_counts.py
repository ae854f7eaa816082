"""The exact work-count golden (``benchmarks/counts.py``).

The fresh counts of the smoke rows must equal ``benchmarks/counts_smoke.json``;
an extra pass over the beacon inbox or over a view's mask must fail that
check and name its layer; and the counts must not move with
``PYTHONHASHSEED``.  The fresh interpreters start once per module, before
the in-process counts, so the two overlap.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from repro.core.congest_counting import CongestCountingProtocol
from repro.core.local_counting import LocalView
from repro.runner import bench

COUNTS = Path(__file__).resolve().parent.parent / "benchmarks" / "counts.py"
_spec = importlib.util.spec_from_file_location("bench_counts", COUNTS)
counts = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counts)

ROWS = {scenario.name: scenario for scenario in counts.SMOKE_SCENARIOS}
#: The smallest smoke row, counted under two hash seeds.
SMALLEST = "e12-local-n128"
HASH_SEEDS = ("0", "12345")


class _Fresh:
    """Fresh-interpreter counts, started at once and awaited on demand.

    The smallest row is counted under each hash seed; its first seed's
    count is also its golden count.
    """

    def __init__(self):
        self._seeded = {
            seed: counts.FreshCounts([SMALLEST], env=dict(os.environ, PYTHONHASHSEED=seed))
            for seed in HASH_SEEDS
        }
        others = [name for name in ROWS if name != SMALLEST]
        self._others = counts.FreshCounts(others)

    def close(self):
        for handle in [*self._seeded.values(), self._others]:
            handle.close()

    def seeded(self, seed):
        return self._seeded[seed].document()

    def document(self):
        document = self._others.document()
        document["rows"].update(self.seeded(HASH_SEEDS[0])["rows"])
        return document


@pytest.fixture(scope="module")
def fresh():
    handle = _Fresh()
    yield handle
    handle.close()


def _moved(lines):
    """The ``(row, counter)`` pairs a list of differences names."""
    return {tuple(line.split(":")[0].split(" ")) for line in lines}


def _count_against_baseline(*names):
    """The check's lines for the named rows, counted in this interpreter."""
    baseline = counts.load_baseline()
    rows = {name: baseline["rows"][name] for name in names}
    current = counts.count([ROWS[name] for name in names])
    return counts.differences({"python": baseline["python"], "rows": rows}, current)


def test_extra_passes_fail_the_golden_naming_their_layer(fresh, monkeypatch):
    # ``fresh`` only starts the fresh interpreters, to overlap this count.
    handle_beacons = CongestCountingProtocol._handle_beacons
    derive = LocalView._derive_layers

    def handle_with_extra_pass(self, ctx, inbox, position):
        for message in inbox:
            message.kind
        return handle_beacons(self, ctx, inbox, position)

    def derive_with_extra_pass(self):
        if self._layers_epoch != self._epoch:
            mask = self._settled
            while mask:
                mask &= mask - 1
        return derive(self)

    rows = ("e3-congest-n64", SMALLEST)
    assert _count_against_baseline(*rows) == []
    monkeypatch.setattr(CongestCountingProtocol, "_handle_beacons", handle_with_extra_pass)
    monkeypatch.setattr(LocalView, "_derive_layers", derive_with_extra_pass)
    lines = _count_against_baseline(*rows)
    assert _moved(lines) == {
        ("e3-congest-n64", "opcodes.congest"),
        (SMALLEST, "opcodes.local_view"),
    }, lines
    assert all("(+" in line for line in lines), lines


def test_counts_equal_the_committed_baseline(fresh):
    document = fresh.document()
    assert sorted(document["rows"]) == sorted(ROWS)
    lines = counts.differences(counts.load_baseline(), document)
    assert lines == [], "\n".join(lines)


def test_counts_do_not_move_with_the_hash_seed(fresh):
    documents = [fresh.seeded(seed) for seed in HASH_SEEDS]
    assert documents[0] == documents[1]


def test_another_interpreter_version_is_named():
    baseline = counts.load_baseline()
    moved = dict(baseline, python="2.7.18")
    assert counts.differences(moved, baseline) == [
        f"interpreter version: baseline recorded on Python 2.7.18, counted on "
        f"Python {baseline['python']}; re-record the baseline"
    ]


def test_differences_name_row_counter_and_delta():
    row = {"rounds": 3, "calls": {"f": 2}, "opcodes": {"engine": 100, "congest": 50}}
    moved = {"rounds": 3, "calls": {"f": 2}, "opcodes": {"engine": 110, "congest": 50}}
    before = {"python": "3", "rows": {"a": row, "b": row}}
    after = {"python": "3", "rows": {"a": moved, "c": row}}
    assert counts.differences(before, after) == [
        "a opcodes.engine: 100 -> 110 (+10, +10.00%)",
        "b: only in the baseline",
        "c: only in the current count",
    ]
    assert counts.differences(before, before) == []


def test_golden_work_counters_equal_the_smoke_bench():
    report = bench.run_bench(bench.SMOKE_SCENARIOS, repeats=1)
    golden = counts.load_baseline()["rows"]
    for row in report["scenarios"]:
        expected = {key: golden[row["name"]][key] for key in ("rounds", "messages", "bits")}
        assert {key: row["result"][key] for key in expected} == expected
