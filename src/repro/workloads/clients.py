"""Geo-distributed client populations with time-varying activity.

The Fig. 8 / Table 3 experiment runs 10 clients per region and models "the
number of active clients ... with a normal distribution to mimic the
workload in different regions of the world" — activity rises and falls as
a Gaussian bell over time, peaking region after region (Asia East, then EU
West, then US West), like the sun moving across timezones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class RegionActivity:
    """Gaussian activity curve for one region's client pool."""

    region: str
    peak_time: float            # seconds: center of the bell
    sigma: float                # seconds: spread of the bell
    max_clients: int = 10
    min_clients: int = 0

    def active_clients(self, t: float) -> int:
        level = math.exp(-((t - self.peak_time) ** 2)
                         / (2.0 * self.sigma ** 2))
        count = round(self.max_clients * level)
        return max(self.min_clients, min(self.max_clients, count))


@dataclass
class GeoClientPopulation:
    """Activity curves for several regions, staggered in time."""

    activities: dict[str, RegionActivity] = field(default_factory=dict)

    @classmethod
    def staggered(cls, regions: list[str], first_peak: float,
                  stagger: float, sigma: float,
                  max_clients: int = 10,
                  min_clients: int = 0) -> "GeoClientPopulation":
        """Peaks at first_peak, first_peak+stagger, ... in region order."""
        pop = cls()
        for i, region in enumerate(regions):
            pop.activities[region] = RegionActivity(
                region=region, peak_time=first_peak + i * stagger,
                sigma=sigma, max_clients=max_clients,
                min_clients=min_clients)
        return pop

    def active_clients(self, region: str, t: float) -> int:
        return self.activities[region].active_clients(t)

    def is_active(self, region: str, client_index: int, t: float) -> bool:
        """Client ``i`` of a region is active when i < active count —
        clients wake in a fixed order, so activity is deterministic."""
        return client_index < self.active_clients(region, t)

    def activity_gate(self, sim, region: str, client_index: int):
        """A zero-arg callable suitable for YcsbClient's ``is_active``."""
        def gate() -> bool:
            return self.is_active(region, client_index, sim.now)
        return gate
