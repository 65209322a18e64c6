"""MultiPrimaries consistency (Figure 3(a)).

Every replica accepts writes.  A put (1) acquires the global Zookeeper
lock for the key, (2) stores locally per the local policy, (3) broadcasts
the update to all other instances *synchronously*, and (4) releases the
lock.  The application-perceived put latency is therefore

    lock RTT + local store + max peer RTT + release RTT

which is what makes the ~400 ms baseline of Fig. 7 fall out of the WAN
geometry when the lock service sits in US East and replicas span four
regions.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.consistency.base import GlobalProtocol, ProtocolError


class MultiPrimariesProtocol(GlobalProtocol):
    """Strong consistency via a global lock and synchronous broadcast."""

    name = "multi_primaries"

    def __init__(self):
        self.locked_puts = 0

    def attach(self, instance) -> None:
        if instance.lock_client is None:
            raise ProtocolError(
                f"{instance.instance_id}: MultiPrimaries requires a global "
                "lock client (Zookeeper)")

    def on_put(self, instance, key: str, data: bytes, tags=(),
               src: str = "app") -> Generator:
        yield from instance.lock_client.acquire(key)
        try:
            version = yield from instance.local_put(key, data, tags=tags)
            args = self.update_args(instance, key, version, data)
            yield from self.broadcast_sync(instance, "replica_update", args,
                                           size=len(data) + 512)
            self.locked_puts += 1
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
        return {"version": version, "region": instance.region,
                "consistency": self.name}

    def on_remove(self, instance, key: str,
                  version: Optional[int] = None,
                  src: str = "app") -> Generator:
        """Removes are writes: same lock + synchronous broadcast as puts.

        The base-class async broadcast would let a concurrent get on a peer
        observe the key after the remove returned — a silent violation of
        the strong-consistency contract this protocol sells.
        """
        yield from instance.lock_client.acquire(key)
        try:
            removed = yield from instance.local_remove(key, version)
            args = self.remove_args(instance, key, version)
            yield from self.broadcast_sync(instance, "replica_remove", args,
                                           size=256)
        except GeneratorExit:
            instance.lock_client.held.discard(key)
            raise
        except BaseException:
            yield from instance.lock_client.release(key)
            raise
        yield from instance.lock_client.release(key)
        return {"removed": removed, "strong": True}

    def on_get(self, instance, key: str,
               version: Optional[int] = None) -> Generator:
        # All replicas are synchronously up to date: local read is latest.
        data, meta, record = yield from instance.read_version(key, version)
        return {"data": data, "version": meta.version,
                "latest_local": record.latest_version, "strong": True}

    def on_replica_update(self, instance, args: dict) -> Generator:
        # The sender holds the global lock for this key, so the update can
        # be applied directly — no conflict is possible (§4.2).
        result = yield from instance.apply_replica_update(
            key=args["key"], version=args["version"],
            last_modified=args["last_modified"], data=args["data"],
            origin=args.get("origin", ""))
        return result
