"""Which public functions form which layer, and the per-layer metrics.

Span names follow ``src/repro/`` modules.  :func:`install` wraps, from
outside the program, every function listed here; :func:`layer_metrics`
turns the recorded spans into the per-layer metrics of ``BENCHMARK.json``.

``METRICS`` is also the layer -> end-to-end metric -> workload table: each
entry says which end-to-end metric the layer metric should move, and on
which workload.  The README renders the same table.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from tracer import Patcher, Tracer

# Span name -> (module, public function).  The function is replaced in every
# ``repro`` module that holds it, because callers import it by name.
FUNCTION_SPANS: Dict[str, Tuple[str, str]] = {
    "scenario.materialize": ("repro.scenarios.execute", "materialize"),
    "graphs.build": ("repro.scenarios.graphs", "build_graph"),
    "graphs.good_set": ("repro.graphs.expansion", "good_set"),
    "graphs.ball_of_set": ("repro.graphs.neighborhoods", "ball_of_set"),
    "adversary.placement": ("repro.scenarios.placements", "place_byzantine"),
    "churn.build": ("repro.scenarios.churn", "build_churn"),
    "protocol.run": ("repro.scenarios.protocols", "run_protocol"),
}

# Span name -> (module, class, method) on that one class.
METHOD_SPANS: Dict[str, Tuple[str, str, str]] = {
    "engine.init": ("repro.simulator.engine", "SynchronousEngine", "__init__"),
    "engine.run": ("repro.simulator.engine", "SynchronousEngine", "run"),
    "local_view.integrate": ("repro.core.local_counting", "LocalView", "integrate"),
    "runner.canonical": ("repro.runner.config", "SweepConfig", "key"),
    "runner.cache_load": ("repro.runner.artifacts", "ArtifactStore", "load"),
    "runner.persist": ("repro.runner.artifacts", "ArtifactStore", "store"),
}

# Span name -> (module, base class, method) on the base and every subclass
# that defines the method itself (every registered protocol / behaviour).
SUBCLASS_SPANS: Dict[str, Tuple[str, str, str]] = {
    "honest.on_start": ("repro.simulator.node", "Protocol", "on_start"),
    "honest.on_round": ("repro.simulator.node", "Protocol", "on_round"),
    "churn.topology_change": ("repro.simulator.node", "Protocol", "on_topology_change"),
    "adversary.act": ("repro.simulator.byzantine", "Adversary", "act"),
}

CELL_ROOT = "scenario.materialize"


class LayerMetric(NamedTuple):
    name: str
    unit: str
    spans: Tuple[str, ...]  # summed self time (``_s``) or calls (``_calls``)
    moves: str  # the end-to-end metric and workload it should move


#: Every per-layer metric, in report order.  ``_s`` metrics sum span self
#: time per table; ``_calls`` metrics count calls per table.  Metrics with
#: no spans are computed by the runner from its own bookkeeping.
METRICS: List[LayerMetric] = [
    LayerMetric("graphs.build_s", "s", ("graphs.build",),
       "setup_s and cell_s.p50 on sweep-mixed; a small share elsewhere"),
    LayerMetric("graphs.evaluation_s", "s", ("graphs.good_set", "graphs.ball_of_set"),
       "setup_s and cell_s.p50 on sweep-mixed; a small share elsewhere"),
    LayerMetric("adversary.placement_s", "s", ("adversary.placement",),
       "cells_per_s on alg2-congest"),
    LayerMetric("adversary.act_s", "s", ("adversary.act",), "cells_per_s on alg2-congest"),
    LayerMetric("adversary.act_calls", "count", ("adversary.act",), "cells_per_s on alg2-congest"),
    LayerMetric("engine.setup_s", "s", ("engine.init",), "cell_s.p50 on sweep-mixed"),
    LayerMetric("engine.run_s", "s", ("engine.run",), "cells_per_s on alg2-congest"),
    LayerMetric("engine.self_s", "s", ("engine.run",),
       "cells_per_s on alg2-congest; no change on alg1-local"),
    LayerMetric("honest.on_start_s", "s", ("honest.on_start",),
       "cells_per_s on alg2-congest and alg1-local"),
    LayerMetric("honest.on_round_s", "s", ("honest.on_round",),
       "cells_per_s on alg2-congest and alg1-local"),
    LayerMetric("honest.on_round_calls", "count", ("honest.on_round",),
       "cells_per_s on alg2-congest and alg1-local"),
    LayerMetric("local_view.integrate_s", "s", ("local_view.integrate",),
       "cells_per_s, cell_s.* and peak_rss_mb on alg1-local; no change on alg2-congest"),
    LayerMetric("local_view.integrate_calls", "count", ("local_view.integrate",),
       "cells_per_s on alg1-local; 0 calls on alg2-congest"),
    LayerMetric("churn.build_s", "s", ("churn.build",), "sweep-mixed only"),
    LayerMetric("churn.topology_change_s", "s", ("churn.topology_change",), "sweep-mixed only"),
    LayerMetric("churn.topology_change_calls", "count", ("churn.topology_change",),
       "sweep-mixed only"),
    LayerMetric("protocol.wrap_s", "s", ("protocol.run",), "cell_s.p50 on sweep-mixed"),
    LayerMetric("scenario.metrics_s", "s", ("scenario.materialize",), "cell_s.p50 on sweep-mixed"),
    LayerMetric("runner.canonical_s", "s", ("runner.canonical",),
       "cells_per_s and cpu_s on sweep-mixed; no change on alg1-local, alg2-congest"),
    LayerMetric("runner.cache_load_s", "s", ("runner.cache_load",),
       "cells_per_s and cpu_s on sweep-mixed"),
    LayerMetric("runner.cache_hits", "count", (), "cells_per_s and cpu_s on sweep-mixed"),
    LayerMetric("runner.persist_s", "s", ("runner.persist",), "cells_per_s and cpu_s on sweep-mixed"),
    LayerMetric("runner.persist_calls", "count", ("runner.persist",),
       "cells_per_s and cpu_s on sweep-mixed"),
    LayerMetric("runner.exec_s", "s", (), "cells_per_s on every workload"),
    LayerMetric("runner.dispatch_overhead_s", "s", (), "cells_per_s and cpu_s on sweep-mixed"),
    LayerMetric("runner.worker_util", "ratio", (), "cells_per_s on sweep-mixed"),
    LayerMetric("runner.retries", "count", (), "cells_per_s on sweep-mixed"),
    LayerMetric("runner.expired_leases", "count", (), "cells_per_s on sweep-mixed"),
    LayerMetric("runner.duplicate_results", "count", (), "cells_per_s on sweep-mixed"),
    LayerMetric("sim.rounds", "count", (), "work counter: equal on every run of a seed"),
    LayerMetric("sim.messages", "count", (), "work counter: equal on every run of a seed"),
    LayerMetric("sim.bits", "count", (), "work counter: equal on every run of a seed"),
    LayerMetric("trace.slowdown", "ratio", (),
       "untraced over traced cells_per_s: the cost of tracing"),
]

#: Metrics whose value is total (not self) span time.
TOTAL_TIME = {"engine.run_s"}


def _target_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "repro"]


def _subclasses(base: type) -> List[type]:
    found: Dict[type, None] = {}
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls not in found:
            found[cls] = None
            todo.extend(cls.__subclasses__())
    return list(found)


def install(tracer: Tracer, only: Optional[set] = None) -> Patcher:
    """Wrap every span function (or just those in ``only``) with ``tracer``.

    Call ``restore()`` on the returned :class:`Patcher` to undo it.
    """
    import importlib

    importlib.import_module("repro.scenarios")  # registers every component
    patcher = Patcher()
    wanted = lambda span: only is None or span in only  # noqa: E731
    modules = _target_modules()
    for span, (module, attr) in FUNCTION_SPANS.items():
        if not wanted(span):
            continue
        original = getattr(importlib.import_module(module), attr)
        wrapper = tracer.wrap(span, original)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                patcher.replace(mod, attr, wrapper)
    for span, (module, cls_name, attr) in METHOD_SPANS.items():
        if wanted(span):
            cls = getattr(importlib.import_module(module), cls_name)
            patcher.replace(cls, attr, tracer.wrap(span, cls.__dict__[attr]))
    for span, (module, base_name, attr) in SUBCLASS_SPANS.items():
        if not wanted(span):
            continue
        base = getattr(importlib.import_module(module), base_name)
        for cls in _subclasses(base):
            fn = cls.__dict__.get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                patcher.replace(cls, attr, tracer.wrap(span, fn))
    return patcher


def span_names() -> List[str]:
    return [*FUNCTION_SPANS, *METHOD_SPANS, *SUBCLASS_SPANS]


def layer_metrics(totals: Mapping[str, Mapping[str, float]], tables: int) -> Dict[str, float]:
    """Span-derived per-layer metrics, per table, from :meth:`Tracer.totals`."""
    out: Dict[str, float] = {}
    for metric in METRICS:
        if not metric.spans:
            continue
        if metric.name.endswith("_calls"):
            key = "calls"
        else:
            key = "total" if metric.name in TOTAL_TIME else "self"
        value = sum(totals.get(span, {}).get(key, 0) for span in metric.spans)
        out[metric.name] = value / tables
    return out
