"""Hosts and the network facade: transfers, dynamics, failures.

The :class:`Network` is the single authority on "how long does it take to
move N bytes from host A to host B right now".  It layers, in order:
per-message NIC delays (VM throttling), egress-link serialization
(bandwidth), propagation latency (topology), and *runtime dynamics* —
injected extra delays on hosts or region pairs, host crashes, partitions.
The dynamics hooks are what the Fig. 7 experiment uses to simulate the
network/storage delays that trip the DynamicConsistency policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.net.link import SEGMENT_BYTES, BandwidthLink
from repro.net.topology import Topology
from repro.net.vmprofiles import VmProfile, get_profile
from repro.obs.api import get_obs
from repro.obs.trace import traced
from repro.sim.kernel import Simulator
from repro.sim.primitives import wake_at


class NetworkError(RuntimeError):
    """A transfer could not be carried out (partition, unreachable)."""


class HostDownError(NetworkError):
    """The destination host has crashed or been stopped."""


@dataclass
class _Injection:
    """An extra delay active during [start, end)."""

    start: float
    end: float
    extra: float

    def active_extra(self, now: float) -> float:
        return self.extra if self.start <= now < self.end else 0.0


class Host:
    """A simulated machine: placement, VM envelope, and liveness."""

    def __init__(self, sim: Simulator, name: str, region: str,
                 provider: str = "aws", vm: str | VmProfile = "generic"):
        self.sim = sim
        self.name = name
        self.region = region
        self.provider = provider
        self.vm: VmProfile = vm if isinstance(vm, VmProfile) else get_profile(vm)
        self.egress = BandwidthLink(sim, self.vm.network_bw, name=f"{name}.egress")
        self.down = False

    def crash(self) -> None:
        self.down = True

    def recover(self) -> None:
        self.down = False

    def __repr__(self) -> str:
        return f"<Host {self.name} {self.provider}/{self.region} {'DOWN' if self.down else 'up'}>"


class Network:
    """Topology + hosts + dynamics; produces transfer generators."""

    def __init__(self, sim: Simulator, topology: Optional[Topology] = None):
        self.sim = sim
        self.topology = topology or Topology()
        self.hosts: dict[str, Host] = {}
        self._host_injections: dict[str, list[_Injection]] = {}
        self._pair_injections: dict[frozenset[str], list[_Injection]] = {}
        self._partitions: dict[frozenset[str], float] = {}  # pair -> end time
        #: optional CostLedger billing egress; set by build_deployment
        self.ledger = None
        self._obs = get_obs(sim)
        self._msg_counter = self._obs.metrics.counter("net.messages")
        self._bytes_counter = self._obs.metrics.counter("net.bytes")
        self._chunk_counter = self._obs.metrics.counter("net.chunks")

    # -- host management ----------------------------------------------------
    def add_host(self, name: str, region: str, provider: str = "aws",
                 vm: str | VmProfile = "generic") -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host name {name!r}")
        host = Host(self.sim, name, region, provider, vm)
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        return self.hosts[name]

    # -- dynamics -------------------------------------------------------------
    def inject_host_delay(self, host: str | Host, extra: float,
                          start: float | None = None,
                          duration: float = float("inf")) -> None:
        """Add ``extra`` seconds to every message to/from ``host``.

        This is the knob the Fig. 7 experiment turns: "We inject delays into
        an instance to simulate network or storage delay."
        """
        name = host.name if isinstance(host, Host) else host
        begin = self.sim.now if start is None else start
        self._host_injections.setdefault(name, []).append(
            _Injection(begin, begin + duration, extra))

    def inject_pair_delay(self, region_a: str, region_b: str, extra: float,
                          start: float | None = None,
                          duration: float = float("inf")) -> None:
        begin = self.sim.now if start is None else start
        key = frozenset((region_a, region_b))
        self._pair_injections.setdefault(key, []).append(
            _Injection(begin, begin + duration, extra))

    def partition(self, region_a: str, region_b: str,
                  duration: float = float("inf")) -> None:
        """Drop connectivity between two regions for ``duration`` seconds."""
        key = frozenset((region_a, region_b))
        self._partitions[key] = self.sim.now + duration

    def heal_partition(self, region_a: str, region_b: str) -> None:
        self._partitions.pop(frozenset((region_a, region_b)), None)

    def is_partitioned(self, region_a: str, region_b: str) -> bool:
        key = frozenset((region_a, region_b))
        end = self._partitions.get(key)
        if end is None:
            return False
        if self.sim.now >= end:
            # Elapsed partition: reap it so long fault-heavy runs don't
            # re-examine dead entries on every reachability check.
            del self._partitions[key]
            return False
        return True

    # -- latency queries ------------------------------------------------------
    def _live_injections(self, table: dict, key) -> list[_Injection]:
        """Injections under ``key`` that can still fire, pruning the rest.

        Without pruning, every expired ``inject_*_delay`` window is scanned
        by every message for the remainder of the run — an unbounded
        slowdown in long fault-heavy simulations.
        """
        injections = table.get(key)
        if not injections:
            return []
        now = self.sim.now
        live = [inj for inj in injections if now < inj.end]
        if len(live) != len(injections):
            if live:
                table[key] = live
            else:
                del table[key]
        return live

    def injected_extra(self, src: Host, dst: Host,
                       at: Optional[float] = None) -> float:
        """Injected delay on src→dst traffic at instant ``at`` (default:
        now), from the injection windows registered so far."""
        when = self.sim.now if at is None else at
        extra = 0.0
        for name in (src.name, dst.name):
            for inj in self._live_injections(self._host_injections, name):
                extra += inj.active_extra(when)
        for inj in self._live_injections(
                self._pair_injections, frozenset((src.region, dst.region))):
            extra += inj.active_extra(when)
        return extra

    def oneway_latency(self, src: Host, dst: Host,
                       include_dynamics: bool = True,
                       at: Optional[float] = None) -> float:
        """One-way message latency (excluding bandwidth queueing) at
        instant ``at`` (default: now)."""
        if src is dst:
            base = 0.0   # same machine: loopback, no NIC or propagation cost
        else:
            base = self.topology.oneway(src.region, src.provider,
                                        dst.region, dst.provider)
            base += src.vm.nic_delay + dst.vm.nic_delay
        # No injection scheduled is the common, fault-free case.
        if include_dynamics and (self._host_injections
                                 or self._pair_injections):
            base += self.injected_extra(src, dst, at)
        return base

    def rtt(self, src: Host, dst: Host) -> float:
        return 2.0 * self.oneway_latency(src, dst)

    def check_reachable(self, src: Host, dst: Host) -> None:
        if dst.down:
            raise HostDownError(f"host {dst.name} is down")
        if src.down:
            raise HostDownError(f"source host {src.name} is down")
        if self.is_partitioned(src.region, dst.region):
            raise NetworkError(
                f"partition between {src.region} and {dst.region}")

    # -- transfer -------------------------------------------------------------
    def transmit(self, src: Host, dst: Host, nbytes: int) -> Generator:
        """Move ``nbytes`` from src to dst; yields until delivery completes.

        Raises :class:`NetworkError`/:class:`HostDownError` if the
        destination is unreachable at send time.

        A transfer goes onto the sender's egress link in segments of at
        most :data:`~repro.net.link.SEGMENT_BYTES`, and costs one kernel
        event per segment.  Each leading segment is reserved only when the
        previous one is out, so whatever was reserved meanwhile goes
        first, and reachability is re-checked in between: a crash or
        partition mid-transfer aborts with only the segments already sent
        on the wire.  For the final segment — the whole message, when it
        fits in one — the link is reserved (:meth:`BandwidthLink.reserve`
        returns the instant the last byte leaves), the propagation
        latency *for that instant* is added, and the sender sleeps once
        until delivery.  The latency is taken from the injection windows
        registered when the final segment is reserved: a delay injected
        while it is still serializing is not applied to the message.
        """
        tracer = self._obs.tracer
        if tracer.enabled:
            return traced(tracer, self._transmit(src, dst, nbytes),
                          "net:transmit", cat="net", component=src.name,
                          dst=dst.name, bytes=nbytes)
        return self._transmit(src, dst, nbytes)

    def _transmit(self, src: Host, dst: Host, nbytes: int) -> Generator:
        start = self.sim.now
        self._admit(src, dst, nbytes)
        if src is not dst:
            last = nbytes
            if last > SEGMENT_BYTES:
                last = yield from self._leading_segments(src, dst, last)
            finish = src.egress.reserve(last)
            arrival = finish + self.oneway_latency(src, dst, at=finish)
            if arrival > start:
                yield wake_at(self.sim, arrival)
        # Destination may have died while the message was in flight.
        if dst.down:
            raise HostDownError(
                f"host {dst.name} went down mid-transfer")

    def _admit(self, src: Host, dst: Host, nbytes: int) -> None:
        """Send-time admission of one message: reachability check, message
        and byte counters, egress billing.  Raises if ``dst`` cannot be
        reached; consumes no simulated time."""
        if dst.down or src.down or self._partitions:
            self.check_reachable(src, dst)
        self._msg_counter.value += 1
        self._bytes_counter.value += nbytes
        if self.ledger is not None and src is not dst:
            # Billed once per transfer, however many segments carry it.
            scope = ("intra_dc" if src.region == dst.region
                     else "inter_region")
            self.ledger.record_network(nbytes, scope)

    def _leading_segments(self, src: Host, dst: Host,
                          nbytes: int) -> Generator:
        """Put all but the final segment of an admitted transfer larger
        than ``SEGMENT_BYTES`` on ``src``'s egress link, one at a time.
        Returns the size of the final segment, which the caller reserves
        (``net.chunks`` counts it here with the others)."""
        while nbytes > SEGMENT_BYTES:
            yield from src.egress.transmit(SEGMENT_BYTES)
            self._chunk_counter.inc()
            nbytes -= SEGMENT_BYTES
            # Time passed since the segment was reserved: the world may
            # have changed under the transfer.
            self.check_reachable(src, dst)
        self._chunk_counter.inc()
        return nbytes
