"""Signal plane for the autoscaler: what the controller watches.

The controller never instruments the data path itself — every signal is
derived from state other subsystems already maintain:

* **offered rate and shed arrivals** — windowed deltas of the load
  engine's ``load.*`` counters in the shared metrics registry (every
  cohort records them; the reader sums across cohorts).
* **queue depth** — arrivals waiting for a pooled connection, summed
  across the deployment's cohorts (the leading indicator: queues grow
  before shed starts).
* **per-host egress utilization** — bytes clocked through each Tiera
  host's egress link over the window divided by the link's capacity;
  the binding resource for large-value read traffic.

All reads are pull-based and free of simulated time: sampling a window
costs zero sim-seconds, so an idle autoscaler perturbs nothing but the
kernel event count of its own timer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

#: counters summed across cohorts for the headline rates
_LOAD_COUNTERS = ("load.offered", "load.shed")


@dataclass(frozen=True)
class SignalSample:
    """One decision window's worth of observed load."""

    offered_rate: float = 0.0
    shed: int = 0                 # arrivals shed during the window
    queue_depth: int = 0          # arrivals waiting right now
    egress_utilization: float = 0.0   # worst host, 0..1 (0 if unbounded)


class SignalReader:
    """Windowed view over the metrics registry, cohorts, and network.

    ``engine_provider`` is a zero-arg callable returning the deployment's
    :class:`~repro.load.engine.LoadEngine` (or None while no cohorts
    exist yet — the harness creates the engine lazily, usually *after*
    the autoscaler starts).  ``hosts_provider`` returns the Tiera hosts
    whose egress links to watch.
    """

    def __init__(self, metrics, engine_provider: Optional[Callable] = None,
                 hosts_provider: Optional[Callable] = None):
        self.metrics = metrics
        self.engine_provider = engine_provider
        self.hosts_provider = hosts_provider
        self._last_totals: dict[str, int] = {}
        self._last_egress: dict[str, int] = {}
        self._last_time: Optional[float] = None

    # -- raw totals ---------------------------------------------------------
    def _counter_totals(self) -> dict[str, int]:
        totals = dict.fromkeys(_LOAD_COUNTERS, 0)
        for metric in self.metrics:
            if metric.kind == "counter" and metric.name in totals:
                totals[metric.name] += metric.value
        return totals

    def _queue_depth(self) -> int:
        engine = self.engine_provider() if self.engine_provider else None
        if engine is None:
            return 0
        return sum(cohort.queued for cohort in engine)

    def _egress_utilization(self, now: float, interval: float) -> float:
        hosts = self.hosts_provider() if self.hosts_provider else ()
        worst = 0.0
        seen: dict[str, int] = {}
        for host in hosts:
            link = host.egress
            if host.name in seen:
                continue
            seen[host.name] = link.bytes_sent
            if link.rate == float("inf"):
                continue
            sent = link.bytes_sent - self._last_egress.get(host.name, 0)
            worst = max(worst, sent / (link.rate * interval))
        self._last_egress = seen
        return worst

    # -- the sampling entry point -------------------------------------------
    def sample(self, now: float) -> SignalSample:
        """Observe one window ending at ``now``; deltas are measured
        against the previous call."""
        interval = (now - self._last_time
                    if self._last_time is not None else 0.0)
        interval = max(interval, 1e-12)
        totals = self._counter_totals()
        deltas = {name: totals[name] - self._last_totals.get(name, 0)
                  for name in totals}
        self._last_totals = totals

        utilization = self._egress_utilization(now, interval)
        if self._last_time is None:
            # First observation: no window yet, report a quiet sample.
            self._last_time = now
            return SignalSample(queue_depth=self._queue_depth())
        self._last_time = now
        return SignalSample(
            offered_rate=deltas["load.offered"] / interval,
            shed=deltas["load.shed"],
            queue_depth=self._queue_depth(),
            egress_utilization=utilization,
        )
