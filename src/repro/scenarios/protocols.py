"""Protocol registrations for the scenario API.

Each entry owns the full "run protocol P" recipe: build the parameter object
from the spec's protocol params (defaulting degree bounds from the graph the
way the CLI historically did), construct the adversary behaviour *with those
parameters* (scheduled Algorithm 2 attacks read their round schedule from
them), and execute the run.  Every entry returns a
:class:`~repro.core.estimate.ProtocolRun`, whose ``.result``, ``.outcome``
and ``.extra_metrics`` feed the generic metrics extraction in
:mod:`repro.scenarios.execute`.

Entry metadata (the protocol-zoo contract)
------------------------------------------
Every entry declares its parameter surface through registry tags:

* ``params``: a ``{"required": (...), "optional": (...)}`` mapping.
  :meth:`repro.scenarios.spec.Scenario.validate` rejects unknown or missing
  protocol params at *compile* time (with the offending
  ``scenario.protocol.params.<key>`` path), and ``scenario list`` prints the
  surface, so the zoo is discoverable without reading source.
* ``validate`` (optional): a callable ``(params, n) -> None`` raising
  ``ValueError`` with a message starting with the offending parameter name
  when params are out of envelope (e.g. ``grouped-bft`` with ``n <= 3f``).
  ``n`` is the graph size when the spec carries one, else ``None``.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Set

from repro.baselines import (
    run_flooding_baseline,
    run_geometric_baseline,
    run_spanning_tree_baseline,
    run_support_estimation_baseline,
)
from repro.core.congest_counting import run_congest_counting
from repro.core.estimate import ProtocolRun
from repro.core.local_counting import run_local_counting
from repro.core.parameters import CongestParameters, LocalParameters
from repro.graphs.graph import Graph
from repro.protocols import (
    run_benor,
    run_grouped_bft,
    spec_validate_benor,
    spec_validate_grouped_bft,
)
from repro.scenarios.behaviours import make_adversary
from repro.scenarios.registry import PROTOCOLS
from repro.simulator.churn import ChurnSchedule

__all__ = ["run_protocol"]


def run_protocol(
    name: str,
    graph: Graph,
    *,
    byzantine: Set[int],
    behaviour: str,
    behaviour_params: Mapping[str, Any],
    seed: int,
    evaluation_set: Optional[Set[int]] = None,
    churn: Optional[ChurnSchedule] = None,
    **params: Any,
) -> ProtocolRun:
    """Run the registered protocol ``name`` and return its run."""
    return PROTOCOLS.build(
        name,
        graph,
        byzantine=byzantine,
        behaviour=behaviour,
        behaviour_params=behaviour_params,
        seed=seed,
        evaluation_set=evaluation_set,
        churn=churn,
        **params,
    )


@PROTOCOLS.register(
    "local",
    params={
        "required": (),
        "optional": (
            "gamma",
            "max_degree",
            "alpha_prime",
            "exhaustive_subset_check",
            "max_rounds",
        ),
    },
)
def _local(
    graph: Graph,
    *,
    byzantine: Set[int],
    behaviour: str,
    behaviour_params: Mapping[str, Any],
    seed: int,
    evaluation_set: Optional[Set[int]] = None,
    max_rounds: Optional[int] = None,
    churn: Optional[ChurnSchedule] = None,
    **params: Any,
) -> ProtocolRun:
    """Algorithm 1: deterministic LOCAL counting (Theorem 1)."""
    if "max_degree" not in params:
        params = {**params, "max_degree": max(2, graph.max_degree())}
    local_params = LocalParameters(**params)
    adversary = make_adversary(behaviour, local_params, **behaviour_params)
    return run_local_counting(
        graph,
        byzantine=byzantine,
        adversary=adversary,
        params=local_params,
        seed=seed,
        max_rounds=max_rounds,
        evaluation_set=evaluation_set,
        churn=churn,
    )


@PROTOCOLS.register(
    "congest",
    params={
        "required": (),
        "optional": (
            "gamma",
            "delta",
            "eta",
            "d",
            "c1",
            "first_phase",
            "blacklist_enabled",
            "min_suffix",
            "max_rounds",
            "stop_when_all_decided",
        ),
    },
)
def _congest(
    graph: Graph,
    *,
    byzantine: Set[int],
    behaviour: str,
    behaviour_params: Mapping[str, Any],
    seed: int,
    evaluation_set: Optional[Set[int]] = None,
    max_rounds: Optional[int] = None,
    stop_when_all_decided: bool = True,
    churn: Optional[ChurnSchedule] = None,
    **params: Any,
) -> ProtocolRun:
    """Algorithm 2: randomized small-message CONGEST counting (Theorem 2)."""
    if "d" not in params:
        params = {**params, "d": max(3, graph.max_degree())}
    congest_params = CongestParameters(**params)
    adversary = make_adversary(behaviour, congest_params, **behaviour_params)
    return run_congest_counting(
        graph,
        byzantine=byzantine,
        adversary=adversary,
        params=congest_params,
        seed=seed,
        max_rounds=max_rounds,
        stop_when_all_decided=stop_when_all_decided,
        evaluation_set=evaluation_set,
        churn=churn,
    )


# --------------------------------------------------------------------------- #
# The protocol zoo: consensus families and the Section 1.2 baselines behind
# one adapter.  Zoo adversaries are built with ``protocol_params=None`` --
# none of the scheduled Algorithm 2 attacks apply to them.
# --------------------------------------------------------------------------- #
def _integers(**minimums: int) -> Callable[[Mapping[str, Any], Optional[int]], None]:
    """A ``validate`` hook: each named param, when given, is an integer >= its minimum."""

    def validate(params: Mapping[str, Any], n: Optional[int]) -> None:
        for key, minimum in minimums.items():
            value = params.get(key)
            if value is not None and (not isinstance(value, int) or value < minimum):
                raise ValueError(f"{key}: must be an integer >= {minimum}, got {value!r}")

    return validate


#: (name, run function, one-line description, optional params, validate).
_ZOO = (
    (
        "benor",
        run_benor,
        "BenOr-style randomized binary consensus (R1/R2 phases, per-node coins).",
        ("f", "initial", "max_phases", "max_rounds"),
        spec_validate_benor,
    ),
    (
        "grouped-bft",
        run_grouped_bft,
        "Consistent-hash grouped OM(m) agreement with cross-group aggregation.",
        ("f", "groups", "hops", "initial", "max_rounds"),
        spec_validate_grouped_bft,
    ),
    (
        "flooding",
        run_flooding_baseline,
        "Flooding-based diameter estimation (Section 1.2 baseline).",
        ("phase_rounds",),
        _integers(phase_rounds=1),
    ),
    (
        "geometric",
        run_geometric_baseline,
        "Geometric-distribution maximum propagation (Section 1.2 baseline).",
        ("rounds_budget",),
        _integers(rounds_budget=1),
    ),
    (
        "spanning-tree",
        run_spanning_tree_baseline,
        "BFS spanning-tree count-and-spread (Section 1.2 baseline).",
        ("phase_rounds",),
        _integers(phase_rounds=1),
    ),
    (
        "support-estimation",
        run_support_estimation_baseline,
        "Exponential-minimum support estimation (Section 1.2 baseline).",
        ("rounds_budget", "k"),
        _integers(rounds_budget=1, k=2),
    ),
)


def _zoo_adapter(
    run: Callable[..., ProtocolRun], description: str
) -> Callable[..., ProtocolRun]:
    def adapter(
        graph: Graph,
        *,
        byzantine: Set[int],
        behaviour: str,
        behaviour_params: Mapping[str, Any],
        seed: int,
        evaluation_set: Optional[Set[int]] = None,
        churn: Optional[ChurnSchedule] = None,
        **params: Any,
    ) -> ProtocolRun:
        adversary = make_adversary(behaviour, None, **behaviour_params)
        return run(
            graph,
            byzantine=byzantine,
            adversary=adversary,
            seed=seed,
            evaluation_set=evaluation_set,
            churn=churn,
            **params,
        )

    # The registry reads an entry's one-line description from the docstring.
    adapter.__doc__ = description
    return adapter


for _name, _run, _description, _optional, _validate in _ZOO:
    PROTOCOLS.register(
        _name,
        params={"required": (), "optional": _optional},
        validate=_validate,
    )(_zoo_adapter(_run, _description))
