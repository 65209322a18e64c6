"""Curator-like client recipe for the global lock service.

Gives instances a tiny acquire/release interface that hides the RPC and
tracks what this client currently holds (so a crashing instance's locks can
be deliberately abandoned and reclaimed by lease expiry, mirroring
ephemeral znodes).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim.rpc import RpcNode


class GlobalLockClient:
    """Client-side handle on the lock service for one owner identity."""

    def __init__(self, node: RpcNode, lock_service_node: RpcNode,
                 owner: Optional[str] = None, lease: float = 30.0,
                 handshake: bool = True):
        self.node = node
        self.service = lock_service_node
        self.owner = owner or node.name
        self.lease = lease
        #: Curator's InterProcessMutex creates a sequential znode and then
        #: reads the children to learn its position — two round trips to
        #: Zookeeper before the lock is known to be held.
        self.handshake = handshake
        self.held: set[str] = set()

    def acquire(self, key: str) -> Generator:
        """``yield from`` this to block until the global lock is granted."""
        if self.handshake:
            yield from self.node.invoke(self.service, "holder", {"key": key})
        result = yield from self.node.invoke(
            self.service, "acquire",
            {"key": key, "owner": self.owner, "lease": self.lease})
        self.held.add(key)
        return result

    def release(self, key: str) -> Generator:
        if key not in self.held:
            raise RuntimeError(f"{self.owner} does not hold lock {key!r}")
        result = yield from self.node.invoke(
            self.service, "release", {"key": key, "owner": self.owner})
        self.held.discard(key)
        return result

    def renew(self, key: str) -> Generator:
        result = yield from self.node.invoke(
            self.service, "renew",
            {"key": key, "owner": self.owner, "lease": self.lease})
        return result
