"""Tier factory: build the right backend class from a profile name.

Policies name tiers with DSL-friendly strings ("Memcached", "EBS", "S3",
"LocalDisk", ...); this maps each to the matching backend family.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.kernel import Simulator
from repro.storage.archival import ArchivalTier
from repro.storage.backend import StorageBackend
from repro.storage.block import BlockTier
from repro.storage.memory import MemoryTier
from repro.storage.object_store import ObjectStoreTier
from repro.storage.profiles import TierProfile, get_tier_profile

_KIND_CLASSES = {
    "memory": MemoryTier,
    "block": BlockTier,
    "object": ObjectStoreTier,
    "archival": ArchivalTier,
}


def make_tier(sim: Simulator, profile: str | TierProfile, capacity: float,
              name: str = "", rng: Optional[np.random.Generator] = None,
              ledger=None, region: str = "") -> StorageBackend:
    """Instantiate the backend class matching the profile's kind."""
    prof = profile if isinstance(profile, TierProfile) else get_tier_profile(profile)
    cls = _KIND_CLASSES[prof.kind]
    return cls(sim, prof, capacity, name=name, rng=rng, ledger=ledger,
               region=region)
