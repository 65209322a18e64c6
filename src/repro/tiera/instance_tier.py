"""Modular instances (§3.2.2): a Tiera instance used as a storage tier.

An :class:`InstanceTier` plugs into a local instance's tier table but its
reads/writes are RPCs against a *remote* Tiera instance's tier — this is
how INTERMEDIATE-DATA encapsulates RAW-BIG-DATA-INSTANCES as a read-only
tier, and how several regions share one centralized S3-IA tier for cold
data (§5.3 / Fig. 10).

It quacks like a :class:`~repro.storage.backend.StorageBackend` for the
operations the policy engine uses; membership is tracked through a local
known-keys set (updated on writes/deletes, and markable by global policies
that rewire object locations without moving bytes).
"""

from __future__ import annotations

from typing import Generator

from repro.sim.rpc import RpcNode
from repro.storage.backend import ObjectMissingError, StorageError
from repro.storage.profiles import TierProfile


class InstanceTier:
    """A remote Tiera instance's tier, viewed as a local tier."""

    def __init__(self, sim, owner_node: RpcNode, remote_node: RpcNode,
                 remote_tier: str, name: str = "",
                 remote_profile: TierProfile | None = None,
                 read_only: bool = False,
                 estimated_oneway: float = 0.05):
        self.sim = sim
        self.owner_node = owner_node
        self.remote_node = remote_node
        self.remote_tier = remote_tier
        self.name = name or f"{remote_node.name}:{remote_tier}"
        self.read_only = read_only
        self.region = ""
        base = remote_profile.read_latency if remote_profile else 0.001
        wbase = remote_profile.write_latency if remote_profile else 0.001
        # Synthesized profile: remote tier latency plus the network RTT, so
        # read-preference ordering treats this tier honestly.
        self.profile = TierProfile(
            name=self.name, kind="instance",
            read_latency=base + 2 * estimated_oneway,
            write_latency=wbase + 2 * estimated_oneway,
            read_throughput=(remote_profile.read_throughput
                             if remote_profile else 100 * 1024 * 1024),
            write_throughput=(remote_profile.write_throughput
                              if remote_profile else 100 * 1024 * 1024),
            volatile=remote_profile.volatile if remote_profile else False,
            storage_price=(remote_profile.storage_price
                           if remote_profile else 0.0))
        self._known: set[str] = set()
        self.capacity = float(1 << 60)
        self.used_bytes = 0
        self.reads = 0
        self.writes = 0
        self.deletes = 0

    # -- membership -------------------------------------------------------
    def __contains__(self, skey: str) -> bool:
        return skey in self._known

    def __len__(self) -> int:
        return len(self._known)

    def mark_known(self, skey: str) -> None:
        """Record that the remote tier holds ``skey`` even though this
        instance did not write it (used when a global policy centralizes
        cold data written elsewhere)."""
        self._known.add(skey)

    @property
    def fill_fraction(self) -> float:
        return 0.0

    # -- data path -------------------------------------------------------------
    def write(self, skey: str, data: bytes) -> Generator:
        if self.read_only:
            raise StorageError(f"{self.name} is a read-only instance tier")
        result = yield from self.owner_node.invoke(
            self.remote_node, "tier_put",
            {"tier": self.remote_tier, "skey": skey, "data": bytes(data)})
        if not result.get("stored"):
            raise StorageError(f"{self.name}: remote store failed")
        self._known.add(skey)
        self.used_bytes += len(data)
        self.writes += 1

    def read(self, skey: str) -> Generator:
        if skey not in self._known:
            raise ObjectMissingError(f"{self.name}: no object {skey!r}")
        result = yield from self.owner_node.invoke(
            self.remote_node, "tier_get",
            {"tier": self.remote_tier, "skey": skey})
        self.reads += 1
        return result["data"]

    def delete(self, skey: str) -> Generator:
        if self.read_only:
            raise StorageError(f"{self.name} is a read-only instance tier")
        if skey not in self._known:
            raise ObjectMissingError(f"{self.name}: no object {skey!r}")
        yield from self.owner_node.invoke(
            self.remote_node, "tier_delete",
            {"tier": self.remote_tier, "skey": skey})
        self._known.discard(skey)
        self.deletes += 1

    def grow(self, additional: float) -> None:
        raise StorageError("instance tiers cannot be grown locally")

    def wipe(self) -> None:
        self._known.clear()
        self.used_bytes = 0

    def __repr__(self) -> str:
        return f"<InstanceTier {self.name} -> {self.remote_node.name}>"
