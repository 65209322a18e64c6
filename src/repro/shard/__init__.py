"""repro.shard: consistent-hash partitioned namespace with live rebalancing.

Every namespace is a :class:`ShardManager` on the WieraService over
N >= 1 ordinary Wiera instances, its keyspace split between them by a
deterministic :class:`HashRing`; the manager owns the authoritative
epoch-numbered :class:`ShardMap`; a :class:`~repro.core.client.
WieraClient` caches one map per namespace and routes each key through
it; and a :class:`~repro.shard.rebalance.Rebalancer` grows or shrinks
the shard set live, moving only the remapped key ranges.  One shard
(``build_deployment(shards=1)``, the default) is named after its
namespace and hashes no key.
"""

from repro.shard.map import (
    HandoffSpec,
    ShardError,
    ShardGuard,
    ShardHandle,
    ShardManager,
    ShardMap,
    WrongShardError,
)
from repro.shard.rebalance import Rebalancer
from repro.shard.ring import DEFAULT_VNODES, HashRing, hash_point

__all__ = [
    "DEFAULT_VNODES",
    "HashRing",
    "hash_point",
    "HandoffSpec",
    "Rebalancer",
    "ShardError",
    "ShardGuard",
    "ShardHandle",
    "ShardManager",
    "ShardMap",
    "WrongShardError",
]
