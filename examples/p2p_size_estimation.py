#!/usr/bin/env python3
"""Scenario: a peer-to-peer overlay wants to size itself before reconfiguring.

The paper's introduction motivates Byzantine counting with decentralized
peer-to-peer protocols whose other building blocks (random-walk sampling,
majority gossip, DHT sizing) all need a constant-factor estimate of ``log n``.
This example plays out that scenario:

1. an operator-less overlay of unknown size is built as an ``H(n, d)`` graph;
2. the classical estimators (geometric max-propagation, spanning-tree count)
   are run first -- they are exact while every peer is honest;
3. a small botnet of Byzantine peers joins and re-runs everything, breaking
   the classical estimators while Algorithm 2 keeps a constant-factor answer
   using only small messages.

Run with::

    python examples/p2p_size_estimation.py
"""

from __future__ import annotations

import math

from repro import CongestParameters, hnd_random_regular_graph, run_congest_counting
from repro.adversary import BeaconFloodAdversary, ValueFakingAdversary, random_placement
from repro.analysis.tables import render_table
from repro.baselines import run_geometric_baseline, run_spanning_tree_baseline


def main() -> None:
    n, degree, seed = 512, 8, 7
    graph = hnd_random_regular_graph(n, degree, seed=seed)
    log_n = math.log(n)
    rows = []

    # Phase 1: all peers honest.
    geo = run_geometric_baseline(graph, seed=seed)
    tree = run_spanning_tree_baseline(graph, seed=seed)
    params = CongestParameters(d=degree)
    alg2 = run_congest_counting(graph, params=params, seed=seed)
    rows.append({
        "scenario": "honest overlay",
        "geometric est.": round(geo.outcome.median_estimate() or float("nan"), 2),
        "spanning-tree est.": round(tree.outcome.median_estimate() or float("nan"), 2),
        "algorithm 2 est.": alg2.outcome.median_estimate(),
        "true ln n": round(log_n, 2),
    })

    # Phase 2: a small botnet joins (3 Byzantine peers).
    byzantine = random_placement(graph, 3, seed=seed + 1)
    geo_attacked = run_geometric_baseline(
        graph, byzantine=byzantine, adversary=ValueFakingAdversary(), seed=seed
    )
    tree_attacked = run_spanning_tree_baseline(
        graph, byzantine=byzantine, adversary=ValueFakingAdversary(), seed=seed
    )
    alg2_attacked = run_congest_counting(
        graph,
        byzantine=byzantine,
        adversary=BeaconFloodAdversary(params),
        params=params,
        seed=seed,
        max_rounds=params.rounds_through_phase(int(math.ceil(log_n)) + 1),
    )
    rows.append({
        "scenario": "3 Byzantine peers",
        "geometric est.": round(geo_attacked.outcome.median_estimate() or float("nan"), 2),
        "spanning-tree est.": round(tree_attacked.outcome.median_estimate() or float("nan"), 2),
        "algorithm 2 est.": alg2_attacked.outcome.median_estimate(),
        "true ln n": round(log_n, 2),
    })

    print(render_table(rows, title="Estimating ln(n) of a peer-to-peer overlay"))
    print()
    print("The classical estimators report whatever the Byzantine peers inject;")
    print("Algorithm 2's median estimate stays a constant factor of ln n, and "
          f"{alg2_attacked.outcome.decided_fraction():.0%} of honest peers decided.")


if __name__ == "__main__":
    main()
