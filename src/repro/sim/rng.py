"""Deterministic random-number streams.

Every source of randomness in a simulation (network jitter, workload
generation, client think times, ...) draws from a named stream derived from a
single root seed.  Two runs with the same root seed therefore produce
identical traces regardless of the order in which subsystems are constructed,
and changing one subsystem's draws does not perturb another's.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RngRegistry"]


class RngRegistry:
    """Factory of independent, reproducible :class:`random.Random` streams."""

    def __init__(self, root_seed: int) -> None:
        self._root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def root_seed(self) -> int:
        return self._root_seed

    def stream(self, name: str) -> random.Random:
        """Return the stream called ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = self.fresh(name)
        return stream

    def fresh(self, name: str) -> random.Random:
        """A new stream called ``name``, at its start and not kept: for a
        name that is asked for once (:meth:`stream` keeps what it makes)."""
        material = f"saguaro-rng:{self._root_seed}:{name}".encode()
        return random.Random(int.from_bytes(hashlib.sha256(material).digest()[:8], "big"))

    def spawn(self, name: str) -> "RngRegistry":
        """Derive a child registry (e.g. one per experiment repetition)."""
        material = f"saguaro-rng-child:{self._root_seed}:{name}".encode()
        seed = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        return RngRegistry(seed)
