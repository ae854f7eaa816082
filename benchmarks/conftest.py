"""Shared benchmark fixtures.

Every benchmark runs one experiment driver exactly once (``pedantic`` with a
single round -- the drivers are long-running simulations, not micro-benchmarks),
prints the regenerated table, and writes it to ``benchmarks/results/<id>.txt``
so the table of the last run can be read or diffed afterwards.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def run_experiment_benchmark(benchmark, results_dir):
    """Run an experiment driver once under pytest-benchmark and persist its table."""

    def _run(experiment_id: str, driver, **kwargs):
        result = benchmark.pedantic(
            lambda: driver(**kwargs), rounds=1, iterations=1, warmup_rounds=0
        )
        rendered = result.render()
        print()
        print(rendered)
        (results_dir / f"{experiment_id}.txt").write_text(rendered + "\n")
        assert result.rows, f"experiment {experiment_id} produced no rows"
        return result

    return _run
