"""Deterministic randomness management for reproducible experiments.

Every run of the simulator derives one independent ``random.Random`` per node
(plus one for the adversary and one for the environment) from a single master
seed, so that experiments are exactly reproducible, yet per-node streams do
not interfere with each other regardless of the order in which nodes are
evaluated.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable

__all__ = ["split_seed", "spawn_rngs", "coin_stream"]


def split_seed(master_seed: int, *labels: object) -> int:
    """Derive a child seed from ``master_seed`` and an arbitrary label path.

    Uses SHA-256 over the textual representation so the derivation is stable
    across Python versions and processes (unlike ``hash``).
    """
    digest = hashlib.sha256()
    digest.update(str(master_seed).encode("utf-8"))
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def spawn_rngs(master_seed: int, keys: Iterable[object]) -> Dict[object, random.Random]:
    """One independent ``random.Random`` per key, all derived from ``master_seed``."""
    return {key: random.Random(split_seed(master_seed, key)) for key in keys}


def coin_stream(master_seed: int, *labels: object) -> random.Random:
    """An independent named ``random.Random`` derived from ``master_seed``.

    Used by protocols that need randomness tied to a stable label path (e.g.
    the per-node coin streams of the BenOr consensus family, labelled by node
    *identifier*) rather than to the engine's per-index node streams -- the
    draws are then reproducible across execution backends and process
    boundaries for a given master seed.
    """
    return random.Random(split_seed(master_seed, *labels))
