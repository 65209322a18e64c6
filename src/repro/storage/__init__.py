"""Simulated cloud storage tiers.

One backend class per storage family the paper uses — memory caches
(memcached/ElastiCache), block devices (EBS SSD/HDD, Azure attached disks),
object stores (S3, S3-IA) and archival stores (Glacier) — each driven by a
:class:`~repro.storage.profiles.TierProfile` giving its latency model,
concurrency/IOPS envelope and Table 4 prices.  Bytes are really stored
and capacities really enforced; only service *times* are modeled.
"""

from repro.storage.profiles import (
    TIER_PROFILES,
    TierProfile,
    get_tier_profile,
)
from repro.storage.backend import (
    CapacityExceededError,
    ObjectMissingError,
    StorageBackend,
    StorageError,
)
from repro.storage.memory import MemoryTier
from repro.storage.block import BlockTier
from repro.storage.object_store import ObjectStoreTier
from repro.storage.archival import ArchivalTier
from repro.storage.cost import (
    NETWORK_PRICES,
    CostLedger,
    monthly_storage_cost,
)
from repro.storage.factory import make_tier

__all__ = [
    "TierProfile",
    "TIER_PROFILES",
    "get_tier_profile",
    "StorageBackend",
    "StorageError",
    "CapacityExceededError",
    "ObjectMissingError",
    "MemoryTier",
    "BlockTier",
    "ObjectStoreTier",
    "ArchivalTier",
    "NETWORK_PRICES",
    "CostLedger",
    "monthly_storage_cost",
    "make_tier",
]
