"""Per-tier performance and price profiles.

Latency model per operation::

    service_time = base_latency + nbytes / throughput        (+ jitter)

with an optional device-level IOPS cap implemented as serialized completion
spacing (at most ``iops`` completions per second regardless of queue
depth) — this is how Azure's flat 500-IOPS attached-disk throttle shows up
in Fig. 11.  Base latencies are calibrated to the paper's Fig. 9 (4 KB ops
in US East: EBS-SSD ~1-2 ms native, EBS-HDD ~8-10 ms, S3 tens of ms, S3-IA
slightly above S3) and Fig. 10.  The prices are the paper's Table 4 (AWS US
East), stated here and nowhere else: :mod:`repro.storage.cost` reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import GB, HOUR, MB, MS


@dataclass(frozen=True)
class TierProfile:
    """Static description of one storage service's behaviour and pricing."""

    name: str
    kind: str                  # memory | block | object | archival
    read_latency: float        # base seconds per read
    write_latency: float       # base seconds per write
    read_throughput: float     # bytes/sec streaming
    write_throughput: float    # bytes/sec streaming
    iops: float = float("inf")  # completion-rate cap
    volatile: bool = False     # data lost if the host crashes
    storage_price: float = 0.0  # $ per GB-month provisioned/stored
    put_price: float = 0.0      # $ per 10,000 put requests
    get_price: float = 0.0      # $ per 10,000 get requests
    retrieval_delay: float = 0.0  # archival first-byte delay, seconds
    jitter_sigma: float = 0.05    # lognormal sigma on service time

    def service_time(self, nbytes: int, write: bool) -> float:
        if write:
            return self.write_latency + nbytes / self.write_throughput
        return self.read_latency + nbytes / self.read_throughput


TIER_PROFILES: dict[str, TierProfile] = {
    # In-memory cache (memcached / ElastiCache).  Sub-millisecond; data is
    # volatile.  Priced at the ElastiCache node-equivalent $/GB-month.
    "memcached": TierProfile(
        name="memcached", kind="memory",
        read_latency=0.15 * MS, write_latency=0.18 * MS,
        read_throughput=1.2 * GB, write_throughput=1.0 * GB,
        volatile=True, storage_price=22.0, jitter_sigma=0.03),
    # EBS gp2 SSD: ~1-2 ms native 4 KB latency once the OS buffer cache is
    # out of the picture (the paper throttles memory to measure this).
    "ebs_ssd": TierProfile(
        name="ebs_ssd", kind="block",
        read_latency=1.1 * MS, write_latency=1.4 * MS,
        read_throughput=160 * MB, write_throughput=160 * MB,
        iops=10000, storage_price=0.10, jitter_sigma=0.08),
    # EBS magnetic: seek-bound, ~8-10 ms.
    "ebs_hdd": TierProfile(
        name="ebs_hdd", kind="block",
        read_latency=8.2 * MS, write_latency=9.0 * MS,
        read_throughput=90 * MB, write_throughput=90 * MB,
        iops=200, storage_price=0.05, put_price=0.0005, get_price=0.0005,
        jitter_sigma=0.12),
    # Azure attached disk with host cache off: throttled to 500 IOPS flat.
    "azure_disk": TierProfile(
        name="azure_disk", kind="block",
        read_latency=0.05 * MS, write_latency=0.05 * MS,
        read_throughput=120 * MB, write_throughput=120 * MB,
        iops=500, storage_price=0.05, jitter_sigma=0.05),
    # S3 standard: HTTP object store, tens of ms.
    "s3": TierProfile(
        name="s3", kind="object",
        read_latency=24.0 * MS, write_latency=52.0 * MS,
        read_throughput=60 * MB, write_throughput=45 * MB,
        storage_price=0.03, put_price=0.05, get_price=0.004,
        jitter_sigma=0.15),
    # S3 Infrequent Access: same data path, slightly higher first-byte
    # latency, cheaper storage but pricier requests.
    "s3_ia": TierProfile(
        name="s3_ia", kind="object",
        read_latency=28.0 * MS, write_latency=58.0 * MS,
        read_throughput=55 * MB, write_throughput=42 * MB,
        storage_price=0.0125, put_price=0.10, get_price=0.01,
        jitter_sigma=0.15),
    # Glacier: cheap, archival; reads require a restore job (hours).
    "glacier": TierProfile(
        name="glacier", kind="archival",
        read_latency=60.0 * MS, write_latency=80.0 * MS,
        read_throughput=30 * MB, write_throughput=30 * MB,
        storage_price=0.007, put_price=0.05, get_price=0.05,
        retrieval_delay=3.5 * HOUR, jitter_sigma=0.10),
}

# Convenience aliases used by the policy DSL figures.
TIER_ALIASES = {
    "localmemory": "memcached",
    "memory": "memcached",
    "elasticache": "memcached",
    "localdisk": "ebs_ssd",
    "ebs": "ebs_ssd",
    "disk": "ebs_ssd",
    "cheapestarchival": "glacier",
    "archival": "glacier",
    "s3-ia": "s3_ia",
}


def get_tier_profile(name: str) -> TierProfile:
    """Look up a profile by canonical name or DSL alias (case-insensitive)."""
    key = name.lower().replace(" ", "")
    key = TIER_ALIASES.get(key, key)
    try:
        return TIER_PROFILES[key]
    except KeyError:
        raise KeyError(
            f"unknown storage tier {name!r}; known: "
            f"{sorted(TIER_PROFILES)} plus aliases {sorted(TIER_ALIASES)}"
        ) from None
