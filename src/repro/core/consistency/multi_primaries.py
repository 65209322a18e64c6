"""MultiPrimaries consistency (Figure 3(a)).

Every replica accepts writes.  A put (1) acquires the global Zookeeper
lock for the key, (2) stores locally per the local policy, (3) broadcasts
the update to all other instances *synchronously*, and (4) releases the
lock.  The application-perceived put latency is therefore

    lock RTT + local store + max peer RTT + release RTT

which is what makes the ~400 ms baseline of Fig. 7 fall out of the WAN
geometry when the lock service sits in US East and replicas span four
regions.  A remove is a write and takes the same path.  Reads and replica
updates are ``GlobalProtocol``'s: the local read is the latest, and the
LWW apply meets no conflict since the sender holds the lock (§4.2).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.consistency.base import GlobalProtocol, ProtocolError


class MultiPrimariesProtocol(GlobalProtocol):
    """Strong consistency via a global lock and synchronous broadcast."""

    name = "multi_primaries"

    def attach(self, instance) -> None:
        if instance.lock_client is None:
            raise ProtocolError(
                f"{instance.instance_id}: MultiPrimaries requires a global "
                "lock client (Zookeeper)")
        super().attach(instance)

    @staticmethod
    def _locked(instance, key: str, body: Generator) -> Generator:
        """Run the write ``body`` holding the global lock on ``key``."""
        yield from instance.lock_client.acquire(key)
        try:
            result = yield from body
        except GeneratorExit:
            # The operation is being torn down (simulation shutdown); we
            # cannot issue the release RPC from a closing generator — drop
            # the handle and let the lease expiry reclaim the lock, the
            # same way Zookeeper reclaims a crashed client's ephemerals.
            instance.lock_client.held.discard(key)
            raise
        except BaseException:
            yield from instance.lock_client.release(key)
            raise
        yield from instance.lock_client.release(key)
        return result

    def on_put(self, instance, key: str, data: bytes, tags=(),
               src: str = "app") -> Generator:
        def write():
            version = yield from instance.local_put(key, data, tags=tags)
            yield from self.broadcast_sync(
                instance, "replica_update",
                self.update_args(instance, key, version, data))
            return version

        version = yield from self._locked(instance, key, write())
        return {"version": version, "region": instance.region,
                "consistency": self.name}

    def on_remove(self, instance, key: str,
                  version: Optional[int] = None,
                  src: str = "app") -> Generator:
        """Same lock + synchronous broadcast as a put: a lazy remove would
        let a get on a peer observe the key after the remove returned."""
        def write():
            removed = yield from instance.local_remove(key, version)
            yield from self.broadcast_sync(
                instance, "replica_remove",
                self.remove_args(instance, key, version))
            return removed

        removed = yield from self._locked(instance, key, write())
        return {"removed": removed}
