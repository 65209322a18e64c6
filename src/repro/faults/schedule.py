"""Deterministic fault injection: scripted crashes, partitions, delays.

A :class:`FaultSchedule` is a list of :class:`FaultEvent` entries applied
at scripted sim times by one background process, so a chaos run is exactly
reproducible: the same schedule against the same seed produces the same
event sequence, and an *empty* schedule leaves the simulation bit-identical
to one with no schedule at all (the injector process consumes no sim time).

Targets:

* hosts (by :class:`~repro.net.network.Host`, ``TieraServer``, or name) —
  ``crash``/``restart``.  Crashing a Tiera server wipes its instances'
  volatile tiers, exactly like :meth:`TieraServer.crash`.
* region pairs — ``partition``/``heal`` and latency spikes, mapping onto
  the :class:`~repro.net.network.Network` dynamics hooks the Fig. 7
  experiment already uses.

Every applied event increments the ``faults.injected{kind=...}`` counter in
the shared metrics registry and is appended to :attr:`FaultSchedule.applied`
for assertions and reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.obs.api import get_obs
from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault: what happens, to whom, when, for how long."""

    at: float
    kind: str                    # crash|restart|partition|heal|delay
    target: tuple                # (host,) or (region_a, region_b)
    duration: Optional[float] = None
    extra: float = 0.0           # injected latency for kind == "delay"


class FaultSchedule:
    """Scripted, deterministic fault injection for one simulation."""

    def __init__(self, sim: Simulator, network, servers=(), name: str = "faults"):
        self.sim = sim
        self.network = network
        self.name = name
        # host-name -> TieraServer, so crashing a server host also wipes
        # volatile tiers and stops instance background work.
        self._servers = {server.host.name: server for server in servers}
        self.events: list[FaultEvent] = []
        self.applied: list[tuple[float, str, tuple]] = []
        self._proc = None
        self._timer = None   # the sleep to the next scripted fault
        self._metrics = get_obs(sim).metrics

    # -- schedule construction ------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultSchedule":
        if self._proc is not None and self._proc.is_alive:
            raise RuntimeError("cannot extend a schedule that is running")
        self.events.append(event)
        return self

    def crash(self, at: float, host,
              duration: Optional[float] = None) -> "FaultSchedule":
        """Kill ``host`` at ``at``; restart it after ``duration`` if given."""
        name = self._host_name(host)
        self.add(FaultEvent(at=at, kind="crash", target=(name,)))
        if duration is not None:
            self.add(FaultEvent(at=at + duration, kind="restart",
                                target=(name,)))
        return self

    def restart(self, at: float, host) -> "FaultSchedule":
        return self.add(FaultEvent(at=at, kind="restart",
                                   target=(self._host_name(host),)))

    def partition(self, at: float, region_a: str, region_b: str,
                  duration: Optional[float] = None) -> "FaultSchedule":
        """Cut connectivity between two regions; heal after ``duration``."""
        self.add(FaultEvent(at=at, kind="partition",
                            target=(region_a, region_b), duration=duration))
        if duration is not None:
            self.add(FaultEvent(at=at + duration, kind="heal",
                                target=(region_a, region_b)))
        return self

    def heal(self, at: float, region_a: str, region_b: str) -> "FaultSchedule":
        return self.add(FaultEvent(at=at, kind="heal",
                                   target=(region_a, region_b)))

    def latency_spike(self, at: float, extra: float, host=None,
                      regions: Optional[tuple[str, str]] = None,
                      duration: float = float("inf")) -> "FaultSchedule":
        """Add ``extra`` seconds to messages touching a host or region pair."""
        if (host is None) == (regions is None):
            raise ValueError("latency_spike needs exactly one of host/regions")
        target = (self._host_name(host),) if host is not None else tuple(regions)
        return self.add(FaultEvent(at=at, kind="delay", target=target,
                                   duration=duration, extra=extra))

    def windows(self) -> list[tuple[float, float]]:
        """``(start, end)`` of every scripted fault: a crash until its
        host's restart, a partition until its heal, a delay for its
        duration; one never closed ends at infinity."""
        inf = float("inf")
        spans, opened = [], {}
        for _, event in sorted(enumerate(self.events),
                               key=lambda pair: (pair[1].at, pair[0])):
            target = frozenset(event.target)
            if event.kind == "crash" or (event.kind == "partition"
                                         and event.duration is None):
                opened.setdefault(target, event.at)
            elif event.kind in ("restart", "heal"):
                if target in opened:
                    spans.append((opened.pop(target), event.at))
            else:       # a self-healing partition, or a delay
                spans.append((event.at, event.at + (event.duration or inf)))
        return spans + [(start, inf) for start in opened.values()]

    def _host_name(self, host) -> str:
        name = getattr(getattr(host, "host", host), "name", host)
        if not isinstance(name, str):
            raise TypeError(f"cannot resolve host target {host!r}")
        return name

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "FaultSchedule":
        """Launch the injector process (idempotent)."""
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.sim.process(self._run(),
                                          name=f"faults:{self.name}")
        return self

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()    # a no-op once it has fired
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("fault schedule stopped")
        self._proc = None

    @property
    def active(self) -> bool:
        return self._proc is not None and self._proc.is_alive

    # -- execution ------------------------------------------------------------
    def _run(self) -> Generator:
        # Stable order: scripted time first, insertion order as tie-break.
        ordered = sorted(enumerate(self.events),
                         key=lambda pair: (pair[1].at, pair[0]))
        for _, event in ordered:
            if event.at > self.sim.now:
                self._timer = self.sim.timeout(event.at - self.sim.now)
                yield self._timer
            self._apply(event)

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == "crash":
            self._crash_target(event.target[0])
        elif kind == "restart":
            self._restart_target(event.target[0])
        elif kind == "partition":
            self.network.partition(*event.target,
                                   duration=(event.duration
                                             if event.duration is not None
                                             else float("inf")))
        elif kind == "heal":
            self.network.heal_partition(*event.target)
        elif kind == "delay":
            if len(event.target) == 1:
                self.network.inject_host_delay(
                    event.target[0], event.extra,
                    duration=event.duration or float("inf"))
            else:
                self.network.inject_pair_delay(
                    *event.target, event.extra,
                    duration=event.duration or float("inf"))
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
        self._metrics.counter("faults.injected", kind=kind).inc()
        self.applied.append((self.sim.now, kind, event.target))

    def _crash_target(self, name: str) -> None:
        server = self._servers.get(name)
        if server is not None:
            server.crash()
        else:
            self.network.host(name).crash()

    def _restart_target(self, name: str) -> None:
        server = self._servers.get(name)
        if server is not None:
            server.recover()
        else:
            self.network.host(name).recover()
