"""Regions and the inter-region propagation-latency matrix.

The default one-way latencies are scaled to public WAN measurements between
the four regions the paper deploys in (AWS US East/Virginia, US West/N.
California, EU West/Ireland, Asia East/Tokyo).  They were chosen so that the
paper's headline numbers fall out of the geometry: e.g. a put forwarded from
EU West to a primary in Asia East costs one RTT ~= 220 ms, matching the
216.6 ms static-primary latency in Table 3.
"""

from __future__ import annotations

from repro.util.units import MS

US_EAST = "us-east"
US_WEST = "us-west"
EU_WEST = "eu-west"
ASIA_EAST = "asia-east"

REGIONS = (US_EAST, US_WEST, EU_WEST, ASIA_EAST)

# One-way propagation delay in milliseconds between region pairs.
DEFAULT_ONEWAY_MS: dict[frozenset[str], float] = {
    frozenset((US_EAST, US_WEST)): 35.0,
    frozenset((US_EAST, EU_WEST)): 40.0,
    frozenset((US_EAST, ASIA_EAST)): 85.0,
    frozenset((US_WEST, EU_WEST)): 70.0,
    frozenset((US_WEST, ASIA_EAST)): 55.0,
    frozenset((EU_WEST, ASIA_EAST)): 110.0,
}

# Within one provider's DC in a region.
INTRA_DC_MS = 0.25
# Between two providers' DCs in the same region (paper: AWS<->Azure US East
# RTT is around 2 ms; that figure includes VM NIC overheads, so the raw
# propagation component here is 2 x 1.0 ms round trip before NIC delays).
CROSS_PROVIDER_SAME_REGION_MS = 1.0


class Topology:
    """Latency lookup between (region, provider) endpoints.

    ``oneway_ms`` replaces the default matrix (milliseconds per region
    pair); unknown pairs raise so configuration errors surface early.
    """

    def __init__(self, oneway_ms: dict[frozenset[str], float] | None = None):
        self._oneway: dict[frozenset[str], float] = dict(
            DEFAULT_ONEWAY_MS if oneway_ms is None else oneway_ms)
        self.intra_dc = INTRA_DC_MS * MS
        self.cross_provider_same_region = CROSS_PROVIDER_SAME_REGION_MS * MS

    def oneway(self, region_a: str, provider_a: str,
               region_b: str, provider_b: str) -> float:
        """One-way propagation latency in seconds between two endpoints."""
        if region_a == region_b:
            if provider_a == provider_b:
                return self.intra_dc
            return self.cross_provider_same_region
        key = frozenset((region_a, region_b))
        ms = self._oneway.get(key)
        if ms is None:
            raise KeyError(f"no latency configured between {region_a} and {region_b}")
        return ms * MS

    def rtt(self, region_a: str, provider_a: str,
            region_b: str, provider_b: str) -> float:
        return 2.0 * self.oneway(region_a, provider_a, region_b, provider_b)
