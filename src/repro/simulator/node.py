"""Protocol and per-node context interfaces.

An honest node's algorithm is a :class:`Protocol` object.  The engine calls
``on_start`` once before round 1 and ``on_round`` once per round with the
inbox of messages delivered at the end of the previous round; the protocol
returns an outbox mapping neighbor indices to message lists.

Protocols only ever see *local* information, matching the paper's model:

* the node's own index-free identifier, degree, and the identifiers of its
  neighbors (port-numbered);
* messages received from neighbors (with engine-verified sender identity);
* a private random stream.

In particular no protocol has access to ``n``, the topology beyond its
immediate neighborhood, or any other node's state.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Mapping
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.simulator.messages import Message
from repro.simulator.rng import split_seed

__all__ = ["NodeContext", "Protocol", "Outbox", "Broadcast", "broadcast"]


class Broadcast(Mapping):
    """Outbox that sends one message to every listed neighbor.

    Behaves like the equivalent ``{target: [message] for target in targets}``
    mapping (so adversaries inspecting honest outboxes see the documented
    shape), but carries just the message and the target tuple.  The engine
    recognizes the type and delivers a broadcast with a single shared
    envelope instead of per-target dictionaries and lists -- both counting
    algorithms broadcast on every send, so this is the delivery hot path.

    Construct it with ``ctx.neighbors`` as the target tuple; the engine then
    skips per-target validation entirely (the tuple is its own).
    """

    __slots__ = ("message", "targets")

    def __init__(self, message: Message, targets: Tuple[int, ...]) -> None:
        self.message = message
        self.targets = targets

    def __getitem__(self, target: int) -> List[Message]:
        if target in self.targets:
            return [self.message]
        raise KeyError(target)

    def __iter__(self):
        return iter(self.targets)

    def __len__(self) -> int:
        return len(self.targets)

    def __bool__(self) -> bool:
        # Mapping truthiness would route through __len__; outbox emptiness is
        # checked several times per delivery, so answer it directly.
        return bool(self.targets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Broadcast({self.message!r}, targets={self.targets!r})"


#: An outbox maps the neighbor *index* (engine-level port) to the messages to
#: deliver to that neighbor at the end of the round.  ``Broadcast`` is the
#: compact equivalent for the send-to-all case.
Outbox = Union[Dict[int, List[Message]], Broadcast]


def broadcast(neighbors: Sequence[int], message: Message) -> Outbox:
    """Outbox that sends ``message`` to every neighbor.

    The same instance is shared across all targets: the engine never mutates
    outbox messages (delivery stamps sender identity on a separate envelope),
    so a broadcast needs no per-neighbor clones.
    """
    return Broadcast(message, tuple(neighbors))


class NodeContext:
    """Local view handed to a protocol on every callback.

    Attributes
    ----------
    index:
        Engine-level index of this node (not visible semantics-wise to the
        protocol; protocols should treat it as an opaque port label).
    node_id:
        The protocol-visible identifier of this node.
    neighbors:
        Engine-level indices of the adjacent nodes (the ports).
    neighbor_ids:
        Mapping from neighbor index to that neighbor's identifier (the node
        knows who is at the other end of each incident edge).
    rng:
        Private random stream of this node.  Either given outright or, with
        ``seed_path``, built on first read as
        ``random.Random(split_seed(*seed_path))`` -- the same stream, but a
        protocol that never draws (Algorithm 1, BenOr) never pays for it.
    round:
        Current round number (rounds are numbered from 1; ``on_start`` sees 0).
        Nodes have synchronized clocks in the paper's model, so exposing the
        global round counter is faithful.
    """

    __slots__ = ("index", "node_id", "neighbors", "neighbor_ids", "round", "_rng", "_seed_path")

    def __init__(
        self,
        index: int,
        node_id: int,
        neighbors: Tuple[int, ...],
        neighbor_ids: Dict[int, int],
        rng: Optional[random.Random] = None,
        round: int = 0,
        *,
        seed_path: Optional[Tuple[object, ...]] = None,
    ) -> None:
        self.index = index
        self.node_id = node_id
        self.neighbors = neighbors
        self.neighbor_ids = neighbor_ids
        self.round = round
        self._rng = rng
        self._seed_path = seed_path

    @property
    def rng(self) -> random.Random:
        """This node's private random stream (seeded on first read)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(split_seed(*self._seed_path))
        return rng

    @property
    def degree(self) -> int:
        """Degree of this node."""
        return len(self.neighbors)


class Protocol(ABC):
    """Interface implemented by every honest-node algorithm.

    Subclasses implement :meth:`on_start` and :meth:`on_round` and expose
    their decision state through :attr:`decided`, :attr:`estimate`, and
    :attr:`halted`.
    """

    @abstractmethod
    def on_start(self, ctx: NodeContext) -> Outbox:
        """Called once before round 1; returns the messages for round 1."""

    @abstractmethod
    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Outbox:
        """Called once per round with the messages delivered this round."""

    @property
    @abstractmethod
    def decided(self) -> bool:
        """Whether this node has (irrevocably) decided on an estimate."""

    @property
    @abstractmethod
    def estimate(self) -> Optional[float]:
        """The decided estimate of ``log n`` (None until decided)."""

    @property
    def halted(self) -> bool:
        """Whether this node has stopped participating (default: once decided).

        Halting must be *permanent*: once a protocol reports ``halted`` it is
        removed from the engine's active-node list and is never scheduled (or
        re-tested) again.  Protocols that may want to keep being scheduled
        after deciding (e.g. passive forwarders) must report ``False`` here,
        as Algorithm 2 does.
        """
        return self.decided

    @property
    def decision_round(self) -> Optional[int]:
        """Round at which the node decided, if it tracks it (default None)."""
        return getattr(self, "_decision_round", None)

    def on_topology_change(
        self,
        ctx: NodeContext,
        added_neighbors: Dict[int, int],
        removed_neighbors: Dict[int, int],
    ) -> None:
        """Notification that incident edges changed between rounds.

        Only invoked by engines running a churn schedule; static runs never
        call it.  ``added_neighbors`` / ``removed_neighbors`` map the affected
        neighbor *index* (port) to that neighbor's identifier.  When the hook
        runs, ``ctx.neighbors`` / ``ctx.neighbor_ids`` already reflect the new
        topology (removed neighbors are gone from them).  Default: ignore the
        change -- protocols written for static graphs keep working, they just
        never adapt.
        """
        return None
