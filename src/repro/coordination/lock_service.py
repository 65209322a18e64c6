"""A Zookeeper-like global lock service.

Per-key exclusive locks with FIFO waiter queues (Curator's InterProcessMutex
over sequential ephemeral znodes grants in arrival order).  Locks carry an
optional lease: if the holder does not release (or renew) within the lease,
the lock is revoked and granted onward — the ephemeral-znode behaviour that
keeps a crashed client from wedging the system.

The service is an RPC service: ``acquire`` replies only once the lock is
granted, so callers simply ``yield from node.invoke(lock_node, "acquire",
...)`` and the WAN round trip plus any queueing is charged naturally.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.obs.api import get_obs
from repro.obs.trace import NULL_SPAN
from repro.sim.kernel import Event, Simulator
from repro.sim.rpc import Message, RpcNode


class LockServiceError(RuntimeError):
    pass


@dataclass
class LockState:
    """Bookkeeping for one lock key."""

    holder: Optional[str] = None
    acquired_at: float = 0.0
    lease_expires: float = float("inf")
    waiters: deque = field(default_factory=deque)  # (owner, grant Event)


class LockService:
    """Exclusive, FIFO, leased locks keyed by string."""

    def __init__(self, sim: Simulator, node: RpcNode,
                 default_lease: float = 30.0,
                 service_time: float = 0.0005):
        self.sim = sim
        self.node = node
        self.default_lease = default_lease
        self.service_time = service_time
        self._locks: dict[str, LockState] = {}
        self.grants = 0
        self.releases = 0
        self.expirations = 0
        self._obs = get_obs(sim)
        self._wait_hist = self._obs.metrics.histogram("lock.wait",
                                                      node=node.name)
        self._expire_counter = self._obs.metrics.counter("lock.expirations",
                                                         node=node.name)
        node.register("acquire", self.rpc_acquire)
        node.register("release", self.rpc_release)
        node.register("renew", self.rpc_renew)
        node.register("holder", self.rpc_holder)

    # -- RPC handlers -----------------------------------------------------
    def rpc_acquire(self, msg: Message) -> Generator:
        key = msg.args["key"]
        owner = msg.args["owner"]
        lease = msg.args.get("lease", self.default_lease)
        tracer = self._obs.tracer
        span = (tracer.span("lock:acquire", cat="lock",
                            component=self.node.name, key=key, owner=owner)
                if tracer.enabled else NULL_SPAN)
        with span:
            arrived = self.sim.now
            yield self.sim.timeout(self.service_time)
            state = self._locks.setdefault(key, LockState())
            if state.holder is None:
                self._grant(key, state, owner, lease)
                self._wait_hist.observe(self.sim.now - arrived)
                return {"granted": True, "holder": owner}
            if state.holder == owner:
                # Re-entrant acquisition just refreshes the lease.
                state.lease_expires = self.sim.now + lease
                self._wait_hist.observe(self.sim.now - arrived)
                return {"granted": True, "holder": owner, "reentrant": True}
            grant = Event(self.sim)
            state.waiters.append((owner, lease, grant))
            span.set(queued=True)
            yield grant
            self._wait_hist.observe(self.sim.now - arrived)
            return {"granted": True, "holder": owner}

    def rpc_release(self, msg: Message) -> Generator:
        key = msg.args["key"]
        owner = msg.args["owner"]
        tracer = self._obs.tracer
        span = (tracer.span("lock:release", cat="lock",
                            component=self.node.name, key=key, owner=owner)
                if tracer.enabled else NULL_SPAN)
        with span:
            yield self.sim.timeout(self.service_time)
            state = self._locks.get(key)
            if state is None or state.holder != owner:
                raise LockServiceError(
                    f"release of {key!r} by non-holder {owner!r} "
                    f"(holder={state.holder if state else None})")
            self.releases += 1
            self._pass_on(key, state)
            return {"released": True}

    def rpc_renew(self, msg: Message) -> Generator:
        key = msg.args["key"]
        owner = msg.args["owner"]
        lease = msg.args.get("lease", self.default_lease)
        yield self.sim.timeout(self.service_time)
        state = self._locks.get(key)
        if state is None or state.holder != owner:
            return {"renewed": False}
        state.lease_expires = self.sim.now + lease
        return {"renewed": True}

    def rpc_holder(self, msg: Message) -> Generator:
        yield self.sim.timeout(self.service_time)
        state = self._locks.get(msg.args["key"])
        return {"holder": state.holder if state else None,
                "queued": len(state.waiters) if state else 0}

    # -- internals -------------------------------------------------------------
    def _grant(self, key: str, state: LockState, owner: str, lease: float) -> None:
        state.holder = owner
        state.acquired_at = self.sim.now
        state.lease_expires = self.sim.now + lease
        self.grants += 1
        self.sim.process(self._lease_watch(key, owner, state.lease_expires),
                         name=f"lease:{key}")

    def _pass_on(self, key: str, state: LockState) -> None:
        if state.waiters:
            owner, lease, grant = state.waiters.popleft()
            self._grant(key, state, owner, lease)
            grant.succeed()
        else:
            del self._locks[key]

    def _lease_watch(self, key: str, owner: str, expires: float) -> Generator:
        """Revoke the lock if the lease runs out unrenewed."""
        while True:
            yield self.sim.timeout(max(0.0, expires - self.sim.now))
            state = self._locks.get(key)
            if state is None or state.holder != owner:
                return  # released normally (or already revoked)
            if self.sim.now >= state.lease_expires:
                self.expirations += 1
                self._expire_counter.inc()
                self._pass_on(key, state)
                return
            expires = state.lease_expires  # lease was renewed; keep watching

    # -- introspection -----------------------------------------------------------
    def held_keys(self) -> list[str]:
        return sorted(k for k, s in self._locks.items() if s.holder)
