"""Consistent-hash ring with virtual nodes.

Anna/Dynamo-style keyspace partitioning: every shard contributes
``vnodes`` tokens on a 64-bit ring and a key belongs to the shard whose
token is the first at-or-clockwise-after the key's point.  Tokens and key
points are SHA-256 based, so placement is a pure function of the shard-id
set — independent of the deployment seed, of insertion order, and of the
process running it.  That determinism is load-bearing: the client-side
router and the server-side ownership guards each build their view of the
partition from a :class:`ShardMap` snapshot and must always agree.

Virtual nodes smooth the load spread (±20% across shards at the default
128 vnodes) and make the minimal-movement property hold: adding a shard
to an N-shard ring remaps ~K/(N+1) of K keys and nothing else.
"""

from __future__ import annotations

import bisect
import hashlib
from functools import lru_cache
from typing import Iterable

#: default virtual nodes per shard; enough for a ±20% load spread
DEFAULT_VNODES = 128


@lru_cache(maxsize=1 << 16)
def hash_point(value: str) -> int:
    """Deterministic 64-bit ring position of an arbitrary string.

    A pure function of ``value``, memoised (bounded) because the router
    and the ownership guard each hash the key of every routed request.
    """
    digest = hashlib.sha256(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent hashing over shard ids with virtual nodes."""

    def __init__(self, shard_ids: Iterable[str] = (),
                 vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError("need at least one virtual node per shard")
        self.vnodes = vnodes
        self._shards: set[str] = set()
        self._tokens: list[int] = []
        self._owners: list[str] = []
        for shard_id in shard_ids:
            self._shards.add(shard_id)
        self._rebuild()

    # -- membership -----------------------------------------------------------
    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._shards))

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def add(self, shard_id: str) -> None:
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} already on the ring")
        self._shards.add(shard_id)
        self._rebuild()

    def remove(self, shard_id: str) -> None:
        if shard_id not in self._shards:
            raise ValueError(f"shard {shard_id!r} not on the ring")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self._shards.discard(shard_id)
        self._rebuild()

    def copy(self) -> "HashRing":
        return HashRing(self._shards, vnodes=self.vnodes)

    def _rebuild(self) -> None:
        pairs = sorted(
            (hash_point(f"{shard_id}#vn{i}"), shard_id)
            for shard_id in self._shards
            for i in range(self.vnodes))
        self._tokens = [token for token, _ in pairs]
        self._owners = [owner for _, owner in pairs]
        self._only = (next(iter(self._shards)) if len(self._shards) == 1
                      else None)

    # -- lookup -----------------------------------------------------------
    def owner(self, key: str) -> str:
        """The shard id owning ``key`` (one shard: no key is hashed)."""
        if self._only is not None:
            return self._only
        if not self._tokens:
            raise ValueError("ring has no shards")
        idx = bisect.bisect_right(self._tokens, hash_point(key))
        return self._owners[idx % len(self._owners)]

    def __repr__(self) -> str:
        return (f"<HashRing shards={len(self._shards)} "
                f"vnodes={self.vnodes}>")
