"""repro.shard: consistent-hash partitioned namespace with live rebalancing.

Layered over the existing core: the keyspace is split across N ordinary
Wiera instances by a deterministic :class:`HashRing`; the authoritative
epoch-numbered :class:`ShardMap` lives in a :class:`ShardManager` on the
WieraService; a :class:`~repro.core.client.WieraClient` caches one map
per namespace (an unsharded namespace is a one-shard map) and routes each
key through it; and a :class:`~repro.shard.rebalance.Rebalancer` grows or
shrinks the shard set live, moving only the remapped key ranges.
Sharding is opt-in (``build_deployment(shards=1)`` is the default).
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
