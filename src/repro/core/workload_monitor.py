"""Workload monitor (§3.1).

"The workload monitor aggregates workload related information such as
users' locations (number of requests from each instance), access patterns,
and object sizes."  This component polls every instance of a Wiera
instance over RPC and keeps a windowed aggregate that the data-placement
advisor (and operators) can consult.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.net.network import NetworkError
from repro.sim.primitives import Loop
from repro.util.stats import OnlineStats


@dataclass
class WorkloadSnapshot:
    """One polling round's view of the whole Wiera instance."""

    time: float
    requests_by_region: dict[str, int] = field(default_factory=dict)

    @property
    def total_requests(self) -> int:
        return sum(self.requests_by_region.values())


class WorkloadMonitor:
    """Periodically polls instance stats and derives demand aggregates."""

    def __init__(self, tim, poll_interval: float = 10.0,
                 history: int = 64):
        self.tim = tim
        self.sim = tim.sim
        self.snapshots: deque[WorkloadSnapshot] = deque(maxlen=history)
        self.object_size = OnlineStats()
        self._last_counts: dict[str, tuple[int, int]] = {}
        self.loop = Loop(tim.sim, "workload-mon", poll_interval,
                         self.poll_once)

    # -- polling -------------------------------------------------------------
    def poll_once(self) -> Generator:
        snapshot = WorkloadSnapshot(time=self.sim.now)
        for record in self.tim.instances.values():
            if record.down:
                continue
            try:
                stats = yield from self.tim.node.invoke(record.node, "stats")
            except NetworkError:
                continue
            region = stats["region"]
            puts, gets = stats["puts_from_app"], stats["gets_from_app"]
            prev_puts, prev_gets = self._last_counts.get(
                record.instance_id, (0, 0))
            self._last_counts[record.instance_id] = (puts, gets)
            dp = max(0, puts - prev_puts)
            dg = max(0, gets - prev_gets)
            snapshot.requests_by_region[region] = (
                snapshot.requests_by_region.get(region, 0) + dp + dg)
        self.snapshots.append(snapshot)
        self._observe_sizes()
        return snapshot

    def _observe_sizes(self) -> None:
        for record in self.tim.instances.values():
            if record.down:
                continue
            for obj in record.instance.meta.records():
                meta = obj.latest()
                if meta is not None:
                    self.object_size.add(meta.size)
                break  # sample one record per instance per round — cheap

    # -- aggregates --------------------------------------------------------------
    def demand_by_region(self, window: Optional[int] = None) -> dict[str, int]:
        """Summed request deltas per client-facing region.

        ``window`` counts polling rounds from the most recent backwards;
        ``None`` means the whole retained history and ``0`` means an
        empty window (no rounds), never the full history.
        """
        if window is None:
            rounds = self.snapshots
        elif window > 0:
            rounds = list(self.snapshots)[-window:]
        else:
            rounds = []
        out: dict[str, int] = {}
        for snap in rounds:
            for region, n in snap.requests_by_region.items():
                out[region] = out.get(region, 0) + n
        return out
