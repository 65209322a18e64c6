"""Per-object redundancy choice: replication vs EC(k, m), and where.

The optimizer extends the paper's §5.3 cost arithmetic from "which tier"
to "which redundancy shape": for a given object size and access rate it
prices every candidate (k, m) scheme at the tier profile's Table 4 prices —
storage byte-months for ``n/k`` expansion, request charges for ``n``
fragment puts and ``k`` fragment gets, inter-region egress for the
fragments that live away from the reader — and picks the cheapest scheme
that still clears a durability floor (fragments the object can lose) and
the read/write latency budgets implied by the RTT matrix.

It is deliberately pure: no simulator types, just sites, an RTT callable
and arithmetic (the frontier benchmark and ``examples/ec_placement.py``
call it with no deployment at all).

Replication appears as the degenerate scheme ``k = 1`` — EC(1, 2) *is*
3x replication — so "replicate or encode" and "which (k, m)" collapse
into one argmin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.ec.codec import Codec
from repro.storage.cost import (monthly_storage_cost, network_cost,
                                request_cost)

#: read-latency budget: seconds to gather k fragments
READ_BUDGET = 0.5
#: write-latency budget: seconds to land the ack floor
WRITE_BUDGET = 1.0


@dataclass(frozen=True)
class SchemeEstimate:
    """Priced-out candidate: one (k, m) scheme at concrete sites."""

    k: int
    m: int
    sites: tuple[str, ...]          # chosen fragment sites, nearest-first
    storage_dollars: float          # $/month for n fragments
    request_dollars: float          # $/month for fragment puts + gets
    egress_dollars: float           # $/month moving remote fragments
    read_latency: float             # time to gather the k nearest fragments
    write_latency: float            # time to land the ack floor
    durability: int                 # fragment losses survived (= m)

    @property
    def n(self) -> int:
        return self.k + self.m

    @property
    def total_dollars(self) -> float:
        return (self.storage_dollars + self.request_dollars
                + self.egress_dollars)

    @property
    def overhead(self) -> float:
        """Stored-bytes expansion factor (n / k)."""
        return self.n / self.k


@dataclass(frozen=True)
class RedundancyPlan:
    """The optimizer's answer for one object or key-class."""

    chosen: SchemeEstimate
    rejected: tuple[SchemeEstimate, ...] = field(default=())

    @property
    def is_replication(self) -> bool:
        return self.chosen.k == 1


class RedundancyOptimizer:
    """Min-cost redundancy selection under durability/latency budgets."""

    def __init__(self, spec, sites: Sequence[str],
                 rtt: Callable[[str, str], float],
                 tier: str = "s3"):
        """``sites`` are candidate fragment regions; ``rtt(a, b)`` is the
        round-trip time between two of them (0 for a == b); ``tier`` names
        the profile whose Table 4 prices the stored fragments pay."""
        self.spec = spec
        self.sites = list(sites)
        self.rtt = rtt
        self.tier = tier

    # -- pricing one candidate --------------------------------------------
    def evaluate(self, k: int, m: int, size: int,
                 reads_per_month: float, writes_per_month: float,
                 reader_region: str) -> Optional[SchemeEstimate]:
        """Price EC(k, m) for an object read mostly from ``reader_region``.

        Returns None when the site set cannot host n distinct fragments.
        """
        n = k + m
        if n > len(self.sites):
            return None
        by_distance = sorted(
            self.sites,
            key=lambda s: (0.0 if s == reader_region
                           else self.rtt(reader_region, s), s))
        chosen = tuple(by_distance[:n])
        frag_bytes = Codec.fragment_length(size, k)
        storage = monthly_storage_cost(self.tier, n * frag_bytes)
        requests = request_cost(self.tier,
                                puts=round(writes_per_month * n),
                                gets=round(reads_per_month * k))
        # A read pulls the k nearest fragments; the ones not co-located
        # with the reader cross a region boundary.  A write ships all n.
        read_sites = chosen[:k]
        remote_read = sum(1 for s in read_sites if s != reader_region)
        remote_all = sum(1 for s in chosen if s != reader_region)
        egress = network_cost(
            (reads_per_month * remote_read
             + writes_per_month * remote_all) * frag_bytes, "inter_region")

        def lat(site: str) -> float:
            return (0.0 if site == reader_region
                    else self.rtt(reader_region, site))
        read_latency = max((lat(s) for s in read_sites), default=0.0)
        ack = min(n, k + 1)
        write_latency = max((lat(s) for s in chosen[:ack]), default=0.0)
        return SchemeEstimate(
            k=k, m=m, sites=chosen, storage_dollars=storage,
            request_dollars=requests, egress_dollars=egress,
            read_latency=read_latency, write_latency=write_latency,
            durability=m)

    # -- the argmin --------------------------------------------------------
    def choose(self, size: int, reads_per_month: float,
               writes_per_month: float,
               reader_region: str) -> RedundancyPlan:
        """Cheapest candidate meeting the floor and budgets.

        Candidates that miss the durability floor are discarded outright;
        if *no* candidate fits both latency budgets, the durable candidate
        with the lowest read latency wins (availability over dollars).
        """
        spec = self.spec
        estimates = []
        for k, m in spec.candidates:
            est = self.evaluate(k, m, size, reads_per_month,
                                writes_per_month, reader_region)
            if est is not None:
                estimates.append(est)
        if not estimates:
            raise ValueError(
                f"no (k, m) candidate fits {len(self.sites)} sites")
        durable = [e for e in estimates if e.durability >= spec.durability_floor]
        if not durable:
            raise ValueError(
                f"no candidate meets durability floor {spec.durability_floor}")
        feasible = [e for e in durable
                    if e.read_latency <= READ_BUDGET
                    and e.write_latency <= WRITE_BUDGET]
        pool = feasible or durable
        ranked = sorted(pool, key=lambda e: (e.total_dollars,
                                             e.read_latency, e.k, e.m))
        if not feasible:
            # Budgets are infeasible at this geometry: serve reads as fast
            # as durability allows rather than optimizing a broken bill.
            ranked = sorted(pool, key=lambda e: (e.read_latency,
                                                 e.total_dollars, e.k, e.m))
        chosen = ranked[0]
        rejected = tuple(e for e in estimates if e is not chosen)
        return RedundancyPlan(chosen=chosen, rejected=rejected)
