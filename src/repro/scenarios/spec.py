"""The declarative scenario spec: one JSON document per paper-style claim.

A :class:`Scenario` names one component from each of the five registries
(graph family x adversary behaviour x placement x protocol x churn
schedule), carries their parameters, and lists the seeds to run.  It is plain data: it round-trips
through ``canonical_json`` untouched, validates against the registries
without constructing anything, and **compiles to a list of
:class:`~repro.runner.config.SweepConfig`** (one per seed, all referencing
the generic ``scenario.run`` task) -- so scenarios ride the existing
``SweepRunner`` worker pool and artifact cache unchanged.

Seed derivation
---------------
Each compiled cell has one master seed (from :attr:`Scenario.seeds`).  The
graph and placement components may declare a ``seed_offset``; their effective
seed is ``cell seed + seed_offset``.  This reproduces the historical drivers'
per-component seed spreading (e.g. E9 building its graph from ``seed + n``)
exactly, from pure data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.runner.config import SweepConfig
from repro.scenarios.registry import CHURN, PROTOCOLS, all_registries

__all__ = ["ComponentSpec", "Scenario", "SCENARIO_TASK"]

#: Name of the generic sweep task every scenario compiles to
#: (registered in :mod:`repro.scenarios.execute`).
SCENARIO_TASK = "scenario.run"


def _plain(value: Any, where: str) -> Any:
    """Deep-copy ``value`` into plain JSON types (tuples become lists)."""
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"{where}: mapping keys must be strings, got {key!r}")
            out[key] = _plain(item, f"{where}.{key}")
        return out
    if isinstance(value, (list, tuple)):
        return [_plain(item, f"{where}[{i}]") for i, item in enumerate(value)]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"{where}: {value!r} is not JSON-serializable scenario data")


@dataclass(frozen=True)
class ComponentSpec:
    """One registry component reference: a name plus its parameters."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: Added to the cell seed when this component consumes randomness
    #: (used by the graph and placement axes; ignored by the rest).
    seed_offset: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _plain(self.params, f"{self.name}.params"))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "params": dict(self.params),
            "seed_offset": self.seed_offset,
        }

    @classmethod
    def from_dict(cls, value: Union[str, Mapping[str, Any]]) -> "ComponentSpec":
        """Parse a component reference (a full dict or a bare name string)."""
        if isinstance(value, str):
            return cls(name=value)
        if not isinstance(value, Mapping):
            raise TypeError(f"component spec must be a name or mapping, got {value!r}")
        unknown = set(value) - {"name", "params", "seed_offset"}
        if unknown:
            raise ValueError(f"unknown component spec keys: {sorted(unknown)}")
        if "name" not in value:
            raise ValueError(f"component spec {dict(value)!r} is missing 'name'")
        return cls(
            name=value["name"],
            params=dict(value.get("params", {})),
            seed_offset=int(value.get("seed_offset", 0)),
        )


@dataclass(frozen=True)
class Scenario:
    """One declarative workload: graph x adversary x placement x protocol.

    Attributes
    ----------
    graph, adversary, placement, protocol:
        Component references into the registries.  The placement's
        ``count`` parameter is the Byzantine budget (0 = benign run).
    churn:
        Churn-schedule reference (fifth axis).  Defaults to ``none`` --
        a static topology -- and is *omitted* from serialized dicts when
        left at the default, so pre-churn specs, golden tables, and
        artifact-cache content hashes are untouched.
    params:
        Scenario-level options consumed by the generic executor:
        ``evaluation`` (which nodes the outcome statistics evaluate),
        ``band`` (the constant-factor approximation band), and ``check``
        (a named theorem check) -- see SCENARIOS.md.
    seeds:
        Master seeds; the scenario compiles to one sweep config per seed.
    name:
        Optional display name.
    """

    graph: ComponentSpec
    adversary: ComponentSpec
    placement: ComponentSpec
    protocol: ComponentSpec
    churn: ComponentSpec = field(default_factory=lambda: ComponentSpec("none"))
    params: Dict[str, Any] = field(default_factory=dict)
    seeds: Tuple[int, ...] = (0,)
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _plain(self.params, "scenario.params"))
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise ValueError("a scenario needs at least one seed")
        object.__setattr__(self, "seeds", seeds)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        out = {
            "name": self.name,
            "graph": self.graph.to_dict(),
            "adversary": self.adversary.to_dict(),
            "placement": self.placement.to_dict(),
            "protocol": self.protocol.to_dict(),
            "params": dict(self.params),
            "seeds": list(self.seeds),
        }
        # The churn axis is serialized only when it deviates from the static
        # default: existing specs, goldens, and cache hashes stay byte-stable.
        if self.churn != ComponentSpec("none"):
            out["churn"] = self.churn.to_dict()
        return out

    @classmethod
    def from_dict(cls, value: Mapping[str, Any]) -> "Scenario":
        if not isinstance(value, Mapping):
            raise TypeError(f"scenario spec must be a mapping, got {value!r}")
        required = {"graph", "adversary", "placement", "protocol"}
        missing = required - set(value)
        if missing:
            raise ValueError(f"scenario spec is missing fields: {sorted(missing)}")
        unknown = set(value) - required - {"name", "params", "seeds", "churn"}
        if unknown:
            raise ValueError(f"unknown scenario spec keys: {sorted(unknown)}")
        return cls(
            graph=ComponentSpec.from_dict(value["graph"]),
            adversary=ComponentSpec.from_dict(value["adversary"]),
            placement=ComponentSpec.from_dict(value["placement"]),
            protocol=ComponentSpec.from_dict(value["protocol"]),
            churn=ComponentSpec.from_dict(value.get("churn", "none")),
            params=dict(value.get("params", {})),
            seeds=tuple(value.get("seeds", (0,))),
            name=str(value.get("name", "")),
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------ #
    # Validation and compilation
    # ------------------------------------------------------------------ #
    def validate(self) -> "Scenario":
        """Check every component name against its registry.

        Raises :class:`~repro.scenarios.registry.UnknownComponentError`
        (a ``ValueError``) carrying the list of valid names.  Churn
        schedules naming explicit node ids are additionally range-checked
        against the graph size (when the graph spec carries ``n``), with the
        offending spec path in the error -- mirroring the compile-time
        non-finite rejection.  Protocol params are checked against the
        registry entry's declared parameter surface and envelope validator
        (see :mod:`repro.scenarios.protocols`), so an unknown or
        out-of-envelope protocol param fails at compile time with its
        ``scenario.protocol.params.<key>`` path instead of mid-run.
        """
        for axis, registry in all_registries().items():
            registry.get(getattr(self, axis).name)
        self._validate_churn_node_ids()
        self._validate_protocol_params()
        return self

    def _validate_churn_node_ids(self) -> None:
        """Reject churn params naming node ids outside ``[0, n)``.

        Which churn params hold node ids is declared by the registry entry
        (the ``node_id_params`` tag), so new schedule generators opt into the
        check without edits here.  Graphs whose spec does not carry ``n``
        (e.g. a hypercube given by ``dimension``) defer to the engine's
        runtime range check.
        """
        n = self.graph.params.get("n")
        if not isinstance(n, int):
            return
        entry = CHURN.get(self.churn.name)
        for param in entry.tags.get("node_id_params", ()):
            ids = self.churn.params.get(param)
            if ids is None:
                continue
            for index, node in enumerate(ids):
                if not isinstance(node, int) or not 0 <= node < n:
                    raise ValueError(
                        f"scenario.churn.params.{param}[{index}]: node id "
                        f"{node!r} outside graph range [0, {n})"
                    )

    def _validate_protocol_params(self) -> None:
        """Reject unknown or out-of-envelope protocol params at compile time.

        A protocol entry's parameter surface is declared by its registry
        ``params`` tag (``{"required": (...), "optional": (...)}``); entries
        may additionally carry a ``validate`` tag -- a callable
        ``(params, n) -> None`` raising ``ValueError`` whose message starts
        with the offending parameter name (e.g. the ``grouped-bft``
        ``n > 3f`` honest envelope).  Entries without a ``params`` tag skip
        the check entirely, so third-party registrations opt in rather than
        break.
        """
        entry = PROTOCOLS.get(self.protocol.name)
        surface = entry.tags.get("params")
        if surface is not None:
            required = tuple(surface.get("required", ()))
            known = set(required) | set(surface.get("optional", ()))
            for key in self.protocol.params:
                if key not in known:
                    raise ValueError(
                        f"scenario.protocol.params.{key}: unknown parameter of "
                        f"protocol {self.protocol.name!r}; known params: "
                        f"{sorted(known)}"
                    )
            for key in required:
                if key not in self.protocol.params:
                    raise ValueError(
                        f"scenario.protocol.params.{key}: required by "
                        f"protocol {self.protocol.name!r} but missing"
                    )
        validator = entry.tags.get("validate")
        if validator is not None:
            n = self.graph.params.get("n")
            try:
                validator(self.protocol.params, n if isinstance(n, int) else None)
            except ValueError as exc:
                raise ValueError(f"scenario.protocol.params.{exc}") from None

    def compile(self) -> List[SweepConfig]:
        """One ``scenario.run`` sweep config per seed (validated).

        The display-only ``name`` and the seed list are stripped from the
        compiled params so the artifact-cache content hash depends only on
        what the cell actually computes.
        """
        self.validate()
        spec = self.to_dict()
        del spec["seeds"]
        del spec["name"]
        return [SweepConfig(SCENARIO_TASK, {"spec": spec, "seed": seed}) for seed in self.seeds]
