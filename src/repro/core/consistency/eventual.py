"""Eventual consistency (Figure 4).

A put stores to the local replica and queues the update for background
distribution to all other regions; the application sees only the local
store latency (<10 ms in Fig. 7).  There is no global order of puts, so
each instance resolves write-write conflicts on incoming updates with
last-write-wins (§4.2).

The queue, its retries and the optional anti-entropy repairer
(:mod:`repro.core.consistency.repair`) are ``GlobalProtocol``'s; a write
here commits locally and enqueues.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.consistency.base import GlobalProtocol


class EventualConsistencyProtocol(GlobalProtocol):
    """Local commit + lazy replication + LWW conflict resolution."""

    name = "eventual"
    lazy = True

    def on_put(self, instance, key: str, data: bytes, tags=(),
               src: str = "app") -> Generator:
        version = yield from instance.local_put(key, data, tags=tags)
        self.queue_for(instance).enqueue(
            self.update_args(instance, key, version, data))
        return {"version": version, "region": instance.region,
                "consistency": self.name}

    def on_remove(self, instance, key: str,
                  version: Optional[int] = None,
                  src: str = "app") -> Generator:
        """Remove locally, propagate lazily through the replication queue
        so remove propagation gets the same retry/repair guarantees."""
        removed = yield from instance.local_remove(key, version)
        self.queue_for(instance).enqueue(
            self.remove_args(instance, key, version))
        return {"removed": removed}
