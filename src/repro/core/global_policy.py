"""Global policy specification: what a Wiera instance *is*.

A :class:`GlobalPolicySpec` bundles the per-region placements (each with
its local Tiera policy), the consistency protocol between them, and the
optional dynamic rules — DynamicConsistency (Figure 5(a)), ChangePrimary
(Figure 5(b)), cold-data management (Figure 6(a)) and its centralized
variant (§5.3), get-load balancing (§3.2.3), and minimum-replica failure
handling (§4.4).

Specs are plain data, produced either programmatically, by the policy DSL
compiler, or from the built-in policy library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.tiera.policy import LocalPolicy


@dataclass(frozen=True)
class RegionPlacement:
    """One Tiera instance to launch: where, on what, with which policy."""

    region: str
    local_policy: LocalPolicy
    provider: str = "aws"
    primary: bool = False


@dataclass(frozen=True)
class DynamicConsistencySpec:
    """Switch between strong/weak consistency on sustained latency
    violations (Figure 5(a): 800 ms / 30 s)."""

    op: str = "put"
    latency_threshold: float = 0.8
    period: float = 30.0
    strong: str = "multi_primaries"
    weak: str = "eventual"


@dataclass(frozen=True)
class ChangePrimarySpec:
    """Move the primary towards the load (Figure 5(b))."""

    window: float = 30.0        # put-history window examined
    period: float = 15.0        # how long the imbalance must persist
    check_interval: float = 5.0


@dataclass(frozen=True)
class ColdDataSpec:
    """Demote data idle longer than ``age`` to a cheaper tier; optionally
    keep a single centralized replica for the whole Wiera instance."""

    age: float
    target_tier: str
    check_interval: float = 600.0
    centralize: bool = False
    central_region: Optional[str] = None


@dataclass(frozen=True)
class FailureSpec:
    """Keep at least ``min_replicas`` instances alive (§4.4).  Deaths are
    detected by the deployment-wide TSM's pings, not per policy."""

    min_replicas: int = 1


@dataclass(frozen=True)
class AutoscaleSpec:
    """Close the loop: watch load signals, actuate the shard count (see
    :mod:`repro.autoscale`).

    The controller compares the offered rate against the deployment's
    current capacity (``shards x target_per_shard``) with the fixed bands
    of :mod:`repro.autoscale.controller`: above ``HIGH_WATER`` of capacity
    (or on any shed load) it grows the shard count toward demand; below
    ``LOW_WATER`` of the capacity *after* a removal, sustained for
    ``scale_down_windows`` consecutive decision windows, it shrinks by one
    shard.  ``cooldown`` seconds must pass after an action before the
    next, and one action runs at a time — the controller never races its
    own migrations.

    Attached by ``build_deployment(autoscale=...)``; without it no
    controller is constructed.
    """

    #: ops/sec one shard is sized to absorb (calibrate from the
    #: scale-out bench: achieved_per_sim_sec at 1 shard)
    target_per_shard: float
    decision_interval: float = 5.0
    min_shards: int = 1
    max_shards: int = 8
    #: quiet period after an action completes before the next decision acts
    cooldown: float = 10.0
    #: consecutive calm windows required before scaling down
    scale_down_windows: int = 3

    def __post_init__(self):
        if self.target_per_shard <= 0:
            raise ValueError(
                f"target_per_shard must be positive: {self.target_per_shard}")
        if self.decision_interval <= 0:
            raise ValueError(f"decision_interval must be positive: "
                             f"{self.decision_interval}")
        if self.min_shards < 1:
            raise ValueError(f"min_shards must be >= 1: {self.min_shards}")
        if self.max_shards < self.min_shards:
            raise ValueError(f"max_shards {self.max_shards} < min_shards "
                             f"{self.min_shards}")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0: {self.cooldown}")
        if self.scale_down_windows < 1:
            raise ValueError(f"scale_down_windows must be >= 1: "
                             f"{self.scale_down_windows}")


@dataclass(frozen=True)
class RedundancySpec:
    """Erasure-coded redundancy (repro.ec): store every object as
    ``k + m`` fragments on distinct instances, any ``k`` of which
    reconstruct it.  ``k=1`` degenerates to full replication with
    ``m + 1`` copies, so one knob covers both redundancy shapes.

    ``redundancy=None`` on the global policy (the default) constructs
    nothing — runs are bit-identical to pre-EC builds.
    """

    #: data fragments (1 = full replication)
    k: int = 1
    #: parity fragments = simultaneous fragment losses survived
    m: int = 2
    #: reject candidate schemes surviving fewer than this many losses
    durability_floor: int = 1
    #: fragment-repair loop period; None disables background repair
    repair_interval: Optional[float] = None
    #: repair window width: manifest reads, object repairs and remap
    #: applies in flight per round (repro.ec.repair); 1 = one at a time,
    #: same pipeline
    repair_concurrency: int = 8
    #: (key-prefix, k, m) scheme overrides installed at launch
    overrides: tuple[tuple[str, int, int], ...] = ()
    #: (k, m) candidates the optimizer prices against each other
    candidates: tuple[tuple[int, int], ...] = (
        (1, 1), (1, 2), (2, 1), (2, 2), (4, 2))

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1: {self.k}")
        if self.m < 0:
            raise ValueError(f"m must be >= 0: {self.m}")
        if self.k + self.m > 255:
            raise ValueError(
                f"GF(256) caps k + m at 255: {self.k + self.m}")
        if self.durability_floor < 0:
            raise ValueError(
                f"durability_floor must be >= 0: {self.durability_floor}")
        for prefix, k, m in self.overrides:
            if k < 1 or m < 0 or k + m > 255:
                raise ValueError(
                    f"override {prefix!r}: invalid scheme k={k} m={m}")
        if self.repair_interval is not None and self.repair_interval <= 0:
            raise ValueError(
                f"repair_interval must be positive: {self.repair_interval}")
        if self.repair_concurrency < 1:
            raise ValueError(
                f"repair_concurrency must be >= 1: {self.repair_concurrency}")


@dataclass(frozen=True)
class GlobalPolicySpec:
    """A complete Wiera instance definition."""

    name: str
    placements: tuple[RegionPlacement, ...]
    consistency: str = "eventual"   # multi_primaries|primary_backup|eventual|local
    sync_replication: bool = True   # primary_backup: copy vs queue
    queue_interval: float = 1.0     # flush period for lazy replication
    get_from: Optional[str] = None  # None=local, "primary", or instance index tag
    #: anti-entropy digest-exchange period; None disables repair entirely
    #: (the default, so fault-free runs are bit-identical with or without it)
    repair_interval: Optional[float] = None
    #: a size, not a switch (replica traffic always ships as one batch RPC
    #: per peer): a replication queue flushes early once this many bytes
    #: are pending, and one anti-entropy / bulk-copy message carries at
    #: most this much payload.  0 = timer-only flush, one key per message.
    batch_bytes: float = 0.0
    dynamic: Optional[DynamicConsistencySpec] = None
    change_primary: Optional[ChangePrimarySpec] = None
    cold: Optional[ColdDataSpec] = None
    #: shed an overloaded instance's gets to a cool peer (§3.2.3's
    #: RequestsMonitoring + forward pairing, repro.core.loadbalance)
    load_balance: bool = False
    failure: Optional[FailureSpec] = None
    #: erasure-coded redundancy plane (repro.ec); None (the default)
    #: constructs nothing — runs are bit-identical to pre-EC builds
    redundancy: Optional[RedundancySpec] = None

    def __post_init__(self):
        if not isinstance(self.placements, tuple):
            object.__setattr__(self, "placements", tuple(self.placements))
        if not self.placements:
            raise ValueError(f"policy {self.name!r} places no instances")
        primaries = [p for p in self.placements if p.primary]
        if self.consistency == "primary_backup" and len(primaries) != 1:
            raise ValueError(
                f"policy {self.name!r}: primary_backup requires exactly one "
                f"primary placement, found {len(primaries)}")
        if self.consistency not in ("multi_primaries", "primary_backup",
                                    "eventual", "local"):
            raise ValueError(f"unknown consistency {self.consistency!r}")
        if self.batch_bytes < 0:
            raise ValueError(
                f"batch_bytes must be >= 0: {self.batch_bytes}")
        if self.redundancy is not None:
            r = self.redundancy
            if self.consistency == "primary_backup":
                raise ValueError(
                    f"policy {self.name!r}: redundancy is incompatible with "
                    "primary_backup (fragments have no single write path)")
            if self.dynamic is not None or self.change_primary is not None:
                raise ValueError(
                    f"policy {self.name!r}: redundancy cannot be combined "
                    "with dynamic consistency or change_primary")
            if len(self.placements) < r.k + r.m:
                raise ValueError(
                    f"policy {self.name!r}: EC({r.k},{r.m}) needs "
                    f"{r.k + r.m} placements, found {len(self.placements)}")

    def regions(self) -> list[str]:
        return [p.region for p in self.placements]
