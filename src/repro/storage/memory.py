"""In-memory cache tier (memcached / ElastiCache).

Volatile: contents vanish when the hosting VM crashes.  The tier never
evicts: a write that does not fit fails with
:class:`~repro.storage.backend.CapacityExceededError`, and a policy that
wants a bounded cache says so with its own rules (a ``filled`` event, or a
timer that moves data to a durable tier).
"""

from __future__ import annotations

from repro.storage.backend import StorageBackend


class MemoryTier(StorageBackend):
    """memcached-like tier; it never evicts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not self.profile.volatile:
            raise ValueError(
                f"MemoryTier requires a volatile profile, got {self.profile.name}")

    def on_host_crash(self) -> None:
        """Volatile memory loses everything when the host dies."""
        self.wipe()
