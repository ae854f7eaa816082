"""Experiment harness.

One module per experiment (E1-E12).  Every module exposes
``run_experiment(...) -> ExperimentResult`` with keyword knobs for the network
sizes and trial counts, a small default configuration that finishes in
seconds (used by the test suite), and a larger configuration used by the
benchmarks (``benchmarks/bench_e*.py``).
"""

from repro.experiments.common import ExperimentResult
from repro.experiments import (
    e1_local_theorem1,
    e2_congest_theorem2,
    e3_benign,
    e4_impossibility,
    e5_treelike,
    e6_good_set,
    e7_baselines,
    e8_blacklist_ablation,
    e9_adversary_grid,
    e10_message_size,
    e11_estimate_distribution,
    e12_scaling,
)

ALL_EXPERIMENTS = {
    "e1": e1_local_theorem1,
    "e2": e2_congest_theorem2,
    "e3": e3_benign,
    "e4": e4_impossibility,
    "e5": e5_treelike,
    "e6": e6_good_set,
    "e7": e7_baselines,
    "e8": e8_blacklist_ablation,
    "e9": e9_adversary_grid,
    "e10": e10_message_size,
    "e11": e11_estimate_distribution,
    "e12": e12_scaling,
}

__all__ = ["ExperimentResult", "ALL_EXPERIMENTS"]
