"""Block-device tiers (EBS SSD/HDD, Azure attached disks).

Every read and write is served by the device: there is no OS buffer cache
in front of it.  The paper measures block tiers the same way — EBS shows
<1 ms regardless of type while the buffer cache is warm, so it disables
the cache with O_DIRECT / memory pressure to measure native latency
(§5.4.1).
"""

from __future__ import annotations

from repro.storage.backend import StorageBackend


class BlockTier(StorageBackend):
    """EBS-like block tier, read and written with direct I/O."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.profile.kind != "block":
            raise ValueError(
                f"BlockTier requires a block profile, got {self.profile.name}")
