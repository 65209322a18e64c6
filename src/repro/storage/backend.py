"""Base simulated storage backend.

A backend really stores bytes in a dict and enforces its capacity; reads
and writes are generators that consume modeled service time (base latency +
streaming time, under an optional IOPS completion cap).  Subclasses add
family-specific behaviour (volatility, restore jobs, request billing).
"""

from __future__ import annotations

from typing import Generator, Iterator, Optional

import numpy as np

from repro.obs.api import get_obs
from repro.obs.trace import NULL_SPAN, traced
from repro.sim.kernel import Event, Simulator
from repro.sim.primitives import SerialServer, wake_at
from repro.storage.profiles import TierProfile, get_tier_profile


class StorageError(RuntimeError):
    """Base class for storage failures."""


class CapacityExceededError(StorageError):
    """A write would overflow the tier's provisioned capacity."""


class ObjectMissingError(StorageError, KeyError):
    """Read or delete of a key the tier does not hold."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return RuntimeError.__str__(self)


class StorageBackend:
    """One storage tier instance: capacity, contents, timing, accounting."""

    def __init__(self, sim: Simulator, profile: str | TierProfile,
                 capacity: float, name: str = "",
                 rng: Optional[np.random.Generator] = None,
                 ledger=None, region: str = ""):
        self.sim = sim
        self.profile = (profile if isinstance(profile, TierProfile)
                        else get_tier_profile(profile))
        if capacity <= 0:
            raise StorageError(f"capacity must be positive, got {capacity}")
        self.capacity = float(capacity)
        self.name = name or self.profile.name
        self.region = region
        self._data: dict[str, bytes] = {}
        self.used_bytes = 0
        self._rng = rng
        self._jitters: list[float] = []    # the next draws, last first
        self._ledger = ledger
        # IOPS cap: a serialized completion channel; each op holds it for
        # at least 1/iops seconds, so completions are spaced at the
        # device's rate.
        self._iops_channel: Optional[SerialServer] = None
        if self.profile.iops != float("inf"):
            self._iops_channel = SerialServer(sim)
        self.reads = 0
        self.writes = 0
        self.deletes = 0
        self._obs = get_obs(sim)
        self._op_counter = {
            op: self._obs.metrics.counter("storage.ops", tier=self.name, op=op)
            for op in ("read", "write", "delete")}

    # -- capacity & contents -------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[str]:
        return iter(self._data.keys())

    @property
    def fill_fraction(self) -> float:
        return self.used_bytes / self.capacity

    def preload(self, key: str, data: bytes) -> None:
        """Install bytes instantly (zero simulated time).

        Setup-phase helper for experiments that need terabytes "already
        there" (e.g. the prepared SysBench file, the populated RUBiS
        database) — not part of the timed data path.
        """
        data = bytes(data)
        previous = len(self._data.get(key, b""))
        new_used = self.used_bytes - previous + len(data)
        if new_used > self.capacity:
            raise CapacityExceededError(
                f"{self.name}: preload of {len(data)}B would overflow")
        self._data[key] = data
        self.used_bytes = new_used
        if self._ledger is not None:
            self._ledger.record_usage(self)

    # -- timing helpers -------------------------------------------------------
    def _jitter(self) -> float:
        """One access's lognormal service-time factor, from the tier's own
        stream drawn 256 at a time: what one draw per access would give."""
        sigma = self.profile.jitter_sigma
        if self._rng is None or sigma <= 0:
            return 1.0
        if not self._jitters:
            self._jitters = self._rng.lognormal(0.0, sigma, 256).tolist()[::-1]
        return self._jitters.pop()

    def _occupy(self, nbytes: int, write: bool) -> Optional[Event]:
        """The event an access of ``nbytes`` waits on for its service time
        (``None`` if it takes none), honouring the IOPS completion cap.

        On a capped tier ops complete one at a time in arrival order, each
        holding the channel for ``max(service, 1/iops)``: the op reserves
        its slot on the channel's virtual clock and sleeps once until its
        completion time.  An op interrupted while it waits leaves its slot
        spent; the channel itself cannot wedge.
        """
        service = self.profile.service_time(nbytes, write) * self._jitter()
        if self._iops_channel is not None:
            spacing = 1.0 / self.profile.iops
            done = self._iops_channel.reserve(max(service, spacing))
            return wake_at(self.sim, done)
        return self.sim.timeout(service) if service > 0 else None

    # -- data path -------------------------------------------------------------
    def write(self, key: str, data: bytes) -> Generator:
        """Store ``data`` under ``key`` (overwrite allowed); yields time."""
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError(f"storage data must be bytes, got {type(data)}")
        data = bytes(data)
        tracer = self._obs.tracer
        if tracer.enabled:
            return traced(tracer, self._write(key, data), "storage:write",
                          cat="storage", component=self.name, key=key,
                          bytes=len(data))
        return self._write(key, data)

    def _write(self, key: str, data: bytes) -> Generator:
        size = len(data)
        previous = len(self._data.get(key, b""))
        new_used = self.used_bytes - previous + size
        if new_used > self.capacity:
            raise CapacityExceededError(
                f"{self.name}: writing {size}B would use {new_used}B "
                f"of {self.capacity}B")
        wait = self._occupy(size, write=True)
        if wait is not None:
            yield wait
        # Commit after the service time so concurrent readers cannot
        # observe a write that has not completed.
        previous = len(self._data.get(key, b""))
        self._data[key] = data
        self.used_bytes += size - previous
        self.writes += 1
        self._op_counter["write"].value += 1
        if self._ledger is not None:
            self._ledger.record_put(self)
            self._ledger.record_usage(self)

    def read(self, key: str) -> Generator:
        """Return the bytes stored under ``key``; yields time."""
        if key not in self._data:
            raise ObjectMissingError(f"{self.name}: no object {key!r}")
        tracer = self._obs.tracer
        if tracer.enabled:
            return traced(tracer, self._read(key), "storage:read",
                          cat="storage", component=self.name, key=key,
                          bytes=len(self._data[key]))
        return self._read(key)

    def _read(self, key: str) -> Generator:
        wait = self._occupy(len(self._data[key]), write=False)
        if wait is not None:
            yield wait
        self.reads += 1
        self._op_counter["read"].value += 1
        if self._ledger is not None:
            self._ledger.record_get(self)
        data = self._data.get(key)
        if data is None:
            raise ObjectMissingError(
                f"{self.name}: object {key!r} deleted during read")
        return data

    def delete(self, key: str) -> Generator:
        """Remove ``key``; yields a small metadata-update time."""
        if key not in self._data:
            raise ObjectMissingError(f"{self.name}: no object {key!r}")
        tracer = self._obs.tracer
        span = (tracer.span("storage:delete", cat="storage",
                            component=self.name, key=key)
                if tracer.enabled else NULL_SPAN)
        with span:
            yield self.sim.timeout(self.profile.write_latency * 0.5)
            data = self._data.pop(key, None)
            if data is not None:
                self.used_bytes -= len(data)
            self.deletes += 1
            self._op_counter["delete"].inc()
            if self._ledger is not None:
                self._ledger.record_usage(self)

    def grow(self, additional: float) -> None:
        """Extend provisioned capacity (the Tiera ``grow`` response)."""
        if additional <= 0:
            raise StorageError("grow() requires a positive amount")
        self.capacity += additional
        if self._ledger is not None:
            self._ledger.record_usage(self)

    def wipe(self) -> None:
        """Drop all contents instantly (volatile tier losing its host)."""
        self._data.clear()
        self.used_bytes = 0

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name} "
                f"{self.used_bytes}/{int(self.capacity)}B {len(self)} objs>")
