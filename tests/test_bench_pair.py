"""Summary math of ``benchmarks/pair.py`` (``make bench-pair``) on canned
perfbench output lines; no benchmark runs."""

import importlib.util
import json
import sys
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
