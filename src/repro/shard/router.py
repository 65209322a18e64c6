"""Client-side shard routing.

The :class:`ShardRouter` sits inside a :class:`~repro.core.client.WieraClient`
and picks the candidate instance list per *key* instead of per client:
the key's owning shard under the cached :class:`~repro.shard.map.ShardMap`,
with that shard's instances ordered by network proximity, so the existing
failover sweep and retry policy apply unchanged *within* the owning
shard.

When an instance rejects a request with
:class:`~repro.shard.map.WrongShardError` (its guard is on a newer
epoch), the client calls :meth:`refresh` — an RPC to the WieraService's
``get_shard_map`` — and re-routes.  Refreshes are idempotent and cheap:
the map is a shared immutable snapshot.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.obs.api import get_obs
from repro.shard.map import ShardMap


class ShardRouter:
    """Key → candidate-instance routing against a cached shard map."""

    def __init__(self, client, service_node, base_id: str):
        self.client = client
        self.service_node = service_node   # the WieraService WUI node
        self.base_id = base_id
        self.map: Optional[ShardMap] = None
        self._by_shard: dict[str, list[dict]] = {}
        self.refreshes = 0
        metrics = get_obs(client.sim).metrics
        self._m_refreshes = metrics.counter("router.refreshes",
                                            client=client.node.name)
        self._m_redirects = metrics.counter("router.wrong_shard",
                                            client=client.node.name)

    def install(self, shard_map: ShardMap) -> None:
        """Cache ``shard_map``, pre-ordering each shard by proximity."""
        if self.map is not None and shard_map.epoch < self.map.epoch:
            return   # never go backwards in epochs
        client = self.client

        def distance(info) -> float:
            return client.network.oneway_latency(
                client.host, info["node"].host, include_dynamics=False)

        self.map = shard_map
        self._by_shard = {
            shard_id: sorted(infos, key=distance)
            for shard_id, infos in shard_map.shards.items()}

    def candidates(self, key: str) -> list[dict]:
        """Proximity-ordered instances of the shard owning ``key``."""
        return self._by_shard[self.map.owner(key)]

    def note_redirect(self) -> None:
        self._m_redirects.inc()

    def refresh(self) -> Generator:
        """Pull the current map from the service (epoch-mismatch recovery)."""
        result = yield from self.client.node.invoke(
            self.service_node, "get_shard_map", {"base_id": self.base_id})
        self.install(result["map"])
        self.refreshes += 1
        self._m_refreshes.inc()
        return self.map
