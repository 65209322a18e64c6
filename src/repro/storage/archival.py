"""Archival tier (Glacier).

Writes behave like an object store, but reads require a *restore job*: the
first read of an object starts a retrieval whose first byte arrives after
``profile.retrieval_delay`` (hours for Glacier), and the read waits it
out.  Once restored, an object stays readable for
:data:`RESTORE_WINDOW`.  This reproduces the asymmetry the paper leans on
in §3.3.3: Glacier is for cold data you essentially never read
synchronously.
"""

from __future__ import annotations

from typing import Generator

from repro.storage.backend import StorageBackend

#: seconds a restored object stays readable (Glacier's one-day restore)
RESTORE_WINDOW = 24 * 3600.0


class ArchivalTier(StorageBackend):
    """Glacier-like tier with restore jobs and a restored-copy window."""

    UNBOUNDED = float(1 << 60)

    def __init__(self, sim, profile, capacity: float | None = None,
                 **kwargs):
        super().__init__(sim, profile,
                         self.UNBOUNDED if capacity is None else capacity,
                         **kwargs)
        if self.profile.kind != "archival":
            raise ValueError(
                f"ArchivalTier requires an archival profile, got {self.profile.name}")
        self._ready_at: dict[str, float] = {}  # key -> restore completion time
        self.restores_started = 0

    def is_restored(self, key: str) -> bool:
        ready = self._ready_at.get(key)
        return (ready is not None
                and ready <= self.sim.now <= ready + RESTORE_WINDOW)

    def restore_pending(self, key: str) -> bool:
        ready = self._ready_at.get(key)
        return ready is not None and self.sim.now < ready

    def request_restore(self, key: str) -> float:
        """Start (or refresh) a restore job; returns the ready time."""
        if key not in self._data:
            from repro.storage.backend import ObjectMissingError
            raise ObjectMissingError(f"{self.name}: no object {key!r}")
        if self.is_restored(key):
            return self.sim.now
        if self.restore_pending(key):
            return self._ready_at[key]
        ready_at = self.sim.now + self.profile.retrieval_delay
        self._ready_at[key] = ready_at
        self.restores_started += 1
        return ready_at

    def read(self, key: str) -> Generator:
        """Read an archived object, waiting out its restore job (simulated
        hours) unless a restored copy is still readable."""
        if not self.is_restored(key):
            ready_at = self.request_restore(key)
            yield self.sim.timeout(max(0.0, ready_at - self.sim.now))
        data = yield from super().read(key)
        return data
