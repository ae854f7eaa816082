"""``SynchronousEngine`` against the naive :class:`ReferenceEngine`.

Hypothesis draws small graphs, a registered protocol, a Byzantine set and
behaviour, a churn schedule with edge additions, removals, leaves and joins,
and a round budget.  The cell runs once on each engine, swapped in under every
protocol runner, and the two runs must agree on everything observable:
decisions and their rounds, estimates, per-round message and bit counts,
per-node :class:`NodeMessageStats`, every honest inbox, and every adversary
view (honest protocols, honest outboxes, Byzantine inboxes).  Each run must
also satisfy the accounting identity: the per-round counts, the totals and
the per-node sums tell the same number of messages and bits.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List

from hypothesis import given, settings, strategies as st

from repro.baselines import common as baselines_common
from repro.core import congest_counting, local_counting
from repro.graphs.graph import Graph
from repro.protocols import benor, grouped_bft
from repro.scenarios import ADVERSARIES, PROTOCOLS
from repro.scenarios.protocols import run_protocol
from repro.simulator import engine as engine_module
from repro.simulator.byzantine import Adversary, SilentAdversary
from repro.simulator.churn import ChurnSchedule
from engine_reference import ReferenceEngine

#: Every module that builds a ``SynchronousEngine`` for a registered protocol.
ENGINE_USERS = (local_counting, congest_counting, benor, grouped_bft, baselines_common)

#: Protocols whose runner takes a ``max_rounds`` budget.
BUDGETED = ("benor", "congest", "grouped-bft", "local")


def _envelope(message) -> tuple:
    return (message.sender, message.sender_id, message.kind, message.size_bits,
            message.num_ids)


def _outbox(outbox) -> Dict[int, List[tuple]]:
    return {
        t: [(m.kind, m.size_bits, m.num_ids) for m in msgs]
        for t, msgs in sorted(outbox.items())
    }


class _Spy(Adversary):
    """Logs every adversary view, then lets the wrapped behaviour act."""

    def __init__(self, inner: Adversary, log: List[tuple]) -> None:
        self.inner = inner
        self.log = log

    def setup(self, graph, byzantine, rng) -> None:
        self.inner.setup(graph, byzantine, rng)

    def act(self, view):
        self.log.append((
            view.round,
            tuple(view.honest_protocols),
            {u: _outbox(o) for u, o in sorted(view.honest_outboxes.items())},
            {b: [_envelope(m) for m in inbox] for b, inbox in view.byzantine_inboxes.items()},
        ))
        return self.inner.act(view)


def observe(engine_cls, cell: Dict[str, Any]) -> Dict[str, Any]:
    """Run ``cell`` with ``engine_cls`` under every protocol runner."""
    views: List[tuple] = []
    inboxes: List[tuple] = []
    bits_before: List[int] = []
    built: List[object] = []

    def logged(factory):
        def make(ctx):
            protocol = factory(ctx)
            on_round = protocol.on_round

            def on_round_logged(ctx, inbox):
                inboxes.append((ctx.round, ctx.index, [_envelope(m) for m in inbox]))
                return on_round(ctx, inbox)

            protocol.on_round = on_round_logged
            return protocol

        return make

    def build(network, factory, *, adversary=None, **kwargs):
        engine = engine_cls(
            network, logged(factory), adversary=_Spy(adversary or SilentAdversary(), views),
            **kwargs,
        )
        metrics = engine.metrics
        start_round = metrics.start_round

        def start_round_logged():
            bits_before.append(metrics.total_bits)
            start_round()

        metrics.start_round = start_round_logged
        built.append(engine)
        return engine

    with _engine(build):
        run = run_protocol(
            cell["protocol"], cell["graph"], byzantine=cell["byzantine"],
            behaviour=cell["behaviour"], behaviour_params={}, seed=cell["seed"],
            churn=cell["churn"], **cell["params"],
        )
    assert len(built) == 1, "the runner did not build its engine through the swap"
    result, metrics = run.result, run.result.metrics
    bits_after = bits_before[1:] + [metrics.total_bits]
    return {
        "inboxes": inboxes,
        "views": views,
        "rounds": (result.rounds_executed, result.completed, result.departed),
        "messages_per_round": metrics.messages_per_round,
        "bits_per_round": [b - a for a, b in zip(bits_before, bits_after)],
        "totals": (metrics.total_messages, metrics.total_bits),
        "per_node": metrics.per_node,
        "decision_rounds": metrics.decision_rounds,
        "estimates": {u: (p.decided, p.estimate) for u, p in result.protocols.items()},
        "churn": (metrics.churn_events, metrics.churn_rounds, metrics.last_churn_round),
        "extra_metrics": run.extra_metrics,
    }


@contextmanager
def _engine(build):
    saved = [module.SynchronousEngine for module in ENGINE_USERS]
    for module in ENGINE_USERS:
        module.SynchronousEngine = build
    try:
        yield
    finally:
        for module, original in zip(ENGINE_USERS, saved):
            module.SynchronousEngine = original


def assert_accounting_identity(observed: Dict[str, Any]) -> None:
    total_messages, total_bits = observed["totals"]
    per_node = observed["per_node"].values()
    assert sum(observed["messages_per_round"]) == total_messages
    assert sum(s.messages_sent for s in per_node) == total_messages
    assert sum(observed["bits_per_round"]) == total_bits
    assert sum(s.bits_sent for s in per_node) == total_bits


@st.composite
def cells(draw) -> Dict[str, Any]:
    n = draw(st.integers(5, 9))
    node = st.integers(0, n - 1)
    edge = st.tuples(node, node).filter(lambda e: e[0] != e[1])
    tree = [(u, draw(st.integers(0, u - 1))) for u in range(1, n)]
    graph = Graph.from_edges(n, tree + draw(st.lists(edge, max_size=n)))
    # Removals are drawn from the graph's own edges so that they hit.
    present = st.sampled_from([(u, v) for u in range(n) for v in graph.adjacency[u] if u < v])
    events = {
        r: {
            "add_edges": draw(st.lists(edge, min_size=1, max_size=3)),
            "remove_edges": draw(st.lists(present, max_size=2)),
            "leave_nodes": draw(st.lists(node, max_size=1)),
            "join_nodes": draw(st.lists(node, max_size=2)),
        }
        for r in draw(st.lists(st.integers(1, 8), max_size=3, unique=True))
    }
    protocol = draw(st.sampled_from(PROTOCOLS.names()))
    params: Dict[str, Any] = {}
    if protocol in BUDGETED and draw(st.booleans()):
        params["max_rounds"] = draw(st.integers(1, 12))
    if protocol == "congest":
        params["stop_when_all_decided"] = draw(st.booleans())
    return {
        "graph": graph,
        "protocol": protocol,
        "byzantine": draw(st.sets(node, max_size=2)),
        "behaviour": draw(st.sampled_from(ADVERSARIES.names())),
        "churn": ChurnSchedule.from_events(events) if events else None,
        "params": params,
        "seed": draw(st.integers(0, 3)),
    }


class TestEngineAgainstReference:
    @given(cell=cells())
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    def test_engines_agree_on_everything_observable(self, cell):
        ours = observe(engine_module.SynchronousEngine, cell)
        reference = observe(ReferenceEngine, cell)
        for key in ours:
            assert ours[key] == reference[key], key
        assert_accounting_identity(ours)
        assert_accounting_identity(reference)
