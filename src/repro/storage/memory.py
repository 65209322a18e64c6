"""In-memory cache tier (memcached / ElastiCache).

Volatile: contents vanish when the hosting VM crashes.  An
:class:`LruMemoryTier` evicts, as a cache in front of durable tiers (Tiera's
PersistentInstance keeps "a small Memcached area to cache the most recently
written data").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator

from repro.storage.backend import CapacityExceededError, StorageBackend


class MemoryTier(StorageBackend):
    """memcached-like tier; it never evicts (see :class:`LruMemoryTier`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not self.profile.volatile:
            raise ValueError(
                f"MemoryTier requires a volatile profile, got {self.profile.name}")

    def on_host_crash(self) -> None:
        """Volatile memory loses everything when the host dies."""
        self.wipe()


class LruMemoryTier(MemoryTier):
    """A memory tier that evicts least-recently-used entries to fit a write."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lru: OrderedDict[str, None] = OrderedDict()
        self.evictions = 0

    def write(self, key: str, data: bytes) -> Generator:
        self._make_room(len(data), exclude=key)
        yield from super().write(key, data)
        self._lru[key] = None
        self._lru.move_to_end(key)

    def read(self, key: str) -> Generator:
        data = yield from super().read(key)
        if key in self._lru:
            self._lru.move_to_end(key)
        return data

    def delete(self, key: str) -> Generator:
        yield from super().delete(key)
        self._lru.pop(key, None)

    def _make_room(self, incoming: int, exclude: str) -> None:
        """Evict least-recently-used entries until ``incoming`` bytes fit."""
        if incoming > self.capacity:
            raise CapacityExceededError(
                f"{self.name}: object of {incoming}B exceeds tier capacity")
        while (self.used_bytes - len(self._data.get(exclude, b""))
               + incoming > self.capacity) and self._lru:
            victim = next(iter(self._lru))
            if victim == exclude:
                self._lru.move_to_end(victim)
                if len(self._lru) == 1:
                    break
                continue
            self._lru.pop(victim)
            dropped = self._data.pop(victim, b"")
            self.used_bytes -= len(dropped)
            self.evictions += 1

    def on_host_crash(self) -> None:
        super().on_host_crash()
        self._lru.clear()
