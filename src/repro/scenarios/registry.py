"""String-keyed component registries underpinning the declarative scenario API.

Every paper claim has the shape "protocol P on graph family G under adversary
A with placement L".  Each of those four axes is a :class:`ComponentRegistry`:
a mapping from a stable string name to a constructor, populated by the
``@GRAPHS.register(...)``-style decorators in the sibling modules at import
time.  A :class:`~repro.scenarios.spec.Scenario` references components *by
name only*, which is what keeps scenario specs JSON-serializable, shippable to
worker processes, and open for extension (registering a new component makes it
available to the CLI, the sweep runner, and every driver at once -- no call
site edits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping

__all__ = [
    "ComponentRegistry",
    "RegistryEntry",
    "UnknownComponentError",
    "GRAPHS",
    "ADVERSARIES",
    "PLACEMENTS",
    "PROTOCOLS",
    "CHURN",
    "all_registries",
]


class UnknownComponentError(ValueError):
    """An unregistered component name (carries the list of valid names)."""

    def __init__(self, kind: str, name: str, options: List[str]) -> None:
        self.kind = kind
        self.name = name
        self.options = options
        super().__init__(
            f"unknown {kind} {name!r}; registered {kind} names: {options}"
        )


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: its constructor plus display metadata."""

    name: str
    fn: Callable[..., Any]
    description: str = ""
    #: Free-form tags (e.g. which protocols an adversary behaviour targets).
    tags: Mapping[str, Any] = field(default_factory=dict)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.fn(*args, **kwargs)


class ComponentRegistry:
    """A named family of exchangeable components, registered via decorator.

    Usage::

        GRAPHS = ComponentRegistry("graph family")

        @GRAPHS.register("hnd")
        def _hnd(*, n, degree=8, seed=0):
            '''H(n, d) permutation-model random regular graph.'''
            return hnd_random_regular_graph(n, degree, seed=seed)
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}

    def register(
        self, name: str, **tags: Any
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering a constructor under ``name``."""

        def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
            existing = self._entries.get(name)
            if existing is not None and existing.fn is not fn:
                raise ValueError(f"{self.kind} {name!r} registered twice")
            description = (fn.__doc__ or "").strip().splitlines()
            self._entries[name] = RegistryEntry(
                name=name,
                fn=fn,
                description=description[0] if description else "",
                tags=dict(tags),
            )
            return fn

        return decorate

    def get(self, name: str) -> RegistryEntry:
        """The entry registered under ``name`` (raises with the valid names)."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownComponentError(self.kind, name, self.names()) from None

    def build(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Look up ``name`` and call its constructor."""
        return self.get(name).fn(*args, **kwargs)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def names(self) -> List[str]:
        """Sorted registered names."""
        return sorted(self._entries)

    def entries(self) -> List[RegistryEntry]:
        """Registered entries in name order."""
        return [self._entries[name] for name in self.names()]


#: The five axes of a scenario.  Populated by the sibling component modules
#: (imported from ``repro.scenarios.__init__``) at package import time.
GRAPHS = ComponentRegistry("graph family")
ADVERSARIES = ComponentRegistry("adversary behaviour")
PLACEMENTS = ComponentRegistry("placement")
PROTOCOLS = ComponentRegistry("protocol")
CHURN = ComponentRegistry("churn schedule")


def all_registries() -> Dict[str, ComponentRegistry]:
    """The five registries keyed by their scenario-spec field name."""
    return {
        "graph": GRAPHS,
        "adversary": ADVERSARIES,
        "placement": PLACEMENTS,
        "protocol": PROTOCOLS,
        "churn": CHURN,
    }
