"""Shared fixture of the paper-claim checks (``bench_e*.py``).

Each check runs one experiment driver once, prints the regenerated table
(shown with ``pytest -s`` or on failure), and asserts the paper's claim on
its rows.  ``make test`` runs them with
``pytest -o python_files='test_*.py bench_*.py'``.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_experiment_benchmark():
    """Run an experiment driver once and return its result."""

    def _run(experiment_id: str, driver, **kwargs):
        result = driver(**kwargs)
        print()
        print(result.render())
        assert result.rows, f"experiment {experiment_id} produced no rows"
        return result

    return _run
