"""Per-phase blacklist bookkeeping of Algorithm 2 (Section 5).

At the end of every iteration, a node takes the path of the beacon it accepted
(``shortestPath``), removes the trusted suffix of the last ``⌊(1-ε)i⌋``
entries, and adds the remaining (far-away) node ids to its phase-``i``
blacklist ``BL``.  A beacon received in a later iteration of the same phase is
ignored (for the purpose of setting ``shortestPath``) if the far-away portion
of its path intersects ``BL``.

The blacklist is reset at the start of every phase (Line 2).
"""

from __future__ import annotations

from typing import Sequence, Set, Tuple

__all__ = ["PhaseBlacklist", "split_trusted_suffix"]


def split_trusted_suffix(
    path: Sequence[int], suffix_length: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Split a path field into ``(far_prefix, trusted_suffix)``.

    The trusted suffix consists of the last ``suffix_length`` entries -- the
    nodes closest to the receiver, whose ids were appended by honest
    forwarders whenever the receiver is far enough from every Byzantine node
    (Lemma 11's argument).  The far prefix is everything else and is the part
    subject to blacklisting.
    """
    if suffix_length <= 0:
        return tuple(path), ()
    if suffix_length >= len(path):
        return (), tuple(path)
    return tuple(path[:-suffix_length]), tuple(path[-suffix_length:])


class PhaseBlacklist:
    """The blacklist ``BL`` of one node for one phase."""

    def __init__(self) -> None:
        self._blocked: Set[int] = set()

    def __len__(self) -> int:
        return len(self._blocked)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._blocked

    @property
    def blocked(self) -> frozenset:
        """Read-only view of the blacklisted ids."""
        return frozenset(self._blocked)

    def reset(self) -> None:
        """Clear the blacklist (start of a new phase, Line 2)."""
        self._blocked.clear()

    def add_path(self, path: Sequence[int], suffix_length: int) -> int:
        """Blacklist the far prefix of ``path`` (Lines 31-32).

        Returns the number of newly blacklisted ids.
        """
        far_prefix, _ = split_trusted_suffix(path, suffix_length)
        before = len(self._blocked)
        self._blocked.update(far_prefix)
        return len(self._blocked) - before

    def blocks_path(self, path: Sequence[int], suffix_length: int) -> bool:
        """Whether the far prefix of ``path`` intersects the blacklist (Line 21)."""
        blocked = self._blocked
        if not blocked:
            return False
        if suffix_length > 0:
            end = len(path) - suffix_length
            if end <= 0:
                return False
            return not blocked.isdisjoint(path[:end])
        return not blocked.isdisjoint(path)
