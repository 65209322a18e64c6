"""Deterministic per-component random streams.

Every stochastic component (workload generators, jitter models, failure
injectors) draws from its own named ``numpy.random.Generator`` derived from
one root seed, so adding a component never perturbs the draws seen by the
others and every experiment is exactly reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngRegistry:
    """Factory of independent, deterministically-seeded random generators."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream seed mixes the registry seed with a stable hash of the
        name, so streams are independent of creation order.
        """
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(child_seed)
            self._streams[name] = gen
        return gen

    def substream(self, name: str, key: int | str) -> np.random.Generator:
        """An indexed member of a named stream family.

        ``substream("load.cohort", 7)`` and ``substream("load.cohort", 8)``
        are statistically independent generators with no shared state, so
        two client cohorts drawing inter-arrival times never perturb each
        other's sequences — adding, removing, or reordering cohorts leaves
        every other cohort's draws bit-identical.  Each (name, key) pair
        maps to one cached generator; the split is by seed derivation, not
        by jumping a shared stream, so there is no cross-talk by
        construction.
        """
        return self.stream(f"{name}[{key}]")


def exponential_interarrival(rng: np.random.Generator, rate: float) -> float:
    """One exponential inter-arrival gap (seconds) for a Poisson process
    of ``rate`` events/second.  Deterministic given the generator state."""
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    return float(rng.exponential(1.0 / rate))
