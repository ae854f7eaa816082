"""Message objects and size accounting.

The paper distinguishes the LOCAL model (unbounded message size, Algorithm 1)
from the CONGEST-style "small message" regime of Algorithm 2, where a small
message carries ``O(log n)`` bits plus at most a constant number of node IDs
(footnote 1).  Because node IDs are drawn from a space whose size is
independent of ``n``, their length must be accounted separately from the
``O(log n)``-bit payload -- hence every :class:`Message` tracks both
``size_bits`` (non-ID payload bits) and ``num_ids`` (embedded identifiers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Tuple

__all__ = ["Message", "DeliveredMessage", "LazyTuple", "estimate_payload_bits"]


class LazyTuple:
    """A payload that stands for a tuple it builds only when first read.

    Subclasses implement :meth:`build`.  Iterating, indexing, ``len``,
    ``==``, ``hash`` and :func:`estimate_payload_bits` all act on the
    built tuple, so a reader sees exactly that tuple; a payload nobody
    reads is never built.
    """

    __slots__ = ("_built",)

    def build(self) -> Tuple[Any, ...]:
        raise NotImplementedError

    def as_tuple(self) -> Tuple[Any, ...]:
        """The tuple this payload stands for (built once, then kept)."""
        try:
            return self._built
        except AttributeError:
            built = self._built = self.build()
            return built

    def __iter__(self) -> Iterator[Any]:
        return iter(self.as_tuple())

    def __getitem__(self, index):
        return self.as_tuple()[index]

    def __len__(self) -> int:
        return len(self.as_tuple())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyTuple):
            other = other.as_tuple()
        return self.as_tuple() == other

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return repr(self.as_tuple())


def estimate_payload_bits(payload: Any) -> int:
    """Conservative bit-size estimate of a structured payload.

    Integers cost their bit length (at least 1), floats 64 bits, booleans and
    ``None`` 1 bit, strings 8 bits per character, and containers the sum of
    their elements plus a small per-element framing cost.  Node IDs should be
    excluded from the payload passed here and counted via ``num_ids`` instead.
    """
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length())
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return max(1, 8 * len(payload))
    if isinstance(payload, (list, tuple, set, frozenset)):
        return max(1, sum(estimate_payload_bits(item) + 2 for item in payload))
    if isinstance(payload, dict):
        return max(
            1,
            sum(
                estimate_payload_bits(k) + estimate_payload_bits(v) + 2
                for k, v in payload.items()
            ),
        )
    if isinstance(payload, LazyTuple):
        return estimate_payload_bits(payload.as_tuple())
    # Fallback for dataclasses / arbitrary objects: use their repr length.
    return max(1, 8 * len(repr(payload)))


@dataclass(slots=True)
class Message:
    """A single message traveling over one edge in one round.

    Attributes
    ----------
    kind:
        Protocol-level tag (e.g. ``"beacon"``, ``"continue"``, ``"topology"``).
    payload:
        Arbitrary protocol data.  Honest protocols only place well-formed
        payloads here; Byzantine senders may place anything.
    size_bits:
        Number of non-ID payload bits (see :func:`estimate_payload_bits`).
    num_ids:
        Number of node identifiers embedded in the payload (e.g. the length
        of a beacon's path field).
    sender:
        Filled in by the engine upon delivery with the *true* index of the
        adjacent sender; protocols must rely on this rather than on any
        sender claim inside ``payload`` (the unforgeable-edge-ID assumption
        of Section 2).
    sender_id:
        The true protocol-visible identifier of the sender, also filled in by
        the engine at delivery time.
    """

    kind: str
    payload: Any = None
    size_bits: int = 0
    num_ids: int = 0
    sender: Optional[int] = None
    sender_id: Optional[int] = None

    @classmethod
    def make(cls, kind: str, payload: Any = None, *, num_ids: int = 0) -> "Message":
        """Construct a message, computing ``size_bits`` from the payload."""
        return cls(
            kind=kind,
            payload=payload,
            size_bits=estimate_payload_bits(payload),
            num_ids=num_ids,
        )

    def total_footprint(self, id_bits: int = 64) -> int:
        """Total size in bits if each embedded ID costs ``id_bits`` bits."""
        return self.size_bits + self.num_ids * id_bits

    def is_small(
        self, n: int, *, c_bits: float = 64.0, max_ids: Optional[int] = None
    ) -> bool:
        """Whether this message is "small" for network size ``n``.

        A small message contains ``O(log n)`` payload bits plus ``O(log n)``
        node IDs.  (The paper's footnote 1 says "a constant number of node
        IDs", but Algorithm 2's beacon path fields hold up to ``i + 2 =
        O(log n)`` identifiers, so the operative bound for the reproduction is
        logarithmically many IDs -- still polylogarithmic bits overall and in
        sharp contrast with Algorithm 1's poly(n)-sized views, which
        experiment E10 measures.)  ``max_ids`` defaults to
        ``max(8, 2·log2 n)``.
        """
        import math

        log_n = math.log2(max(n, 2))
        id_budget = max_ids if max_ids is not None else max(8, int(math.ceil(2 * log_n)))
        return self.size_bits <= c_bits * log_n and self.num_ids <= id_budget

    def clone(self) -> "Message":
        """Shallow copy (payload shared) used when broadcasting one message to many neighbors."""
        return Message(
            kind=self.kind,
            payload=self.payload,
            size_bits=self.size_bits,
            num_ids=self.num_ids,
            sender=self.sender,
            sender_id=self.sender_id,
        )


class DeliveredMessage(Message):
    """Lightweight delivery envelope the engine hands to receiving protocols.

    Wraps a sender's outbox message without copying anything: the payload (and
    the size accounting derived from it) is shared with the original, and the
    true sender identity is stamped on the envelope itself.  One envelope is
    created per (sender, outbox message) pair and shared by every inbox it is
    delivered to, so a degree-``d`` broadcast costs one envelope instead of
    ``d`` clones.  Receivers must treat delivered messages as immutable.
    """

    __slots__ = ()

    def __init__(self, template: Message, sender: int, sender_id: int) -> None:
        self.kind = template.kind
        self.payload = template.payload
        self.size_bits = template.size_bits
        self.num_ids = template.num_ids
        self.sender = sender
        self.sender_id = sender_id
