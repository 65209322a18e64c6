"""Cost model: Table 4 dollar arithmetic and runtime cost accounting.

Table 4's prices are stated once, on each tier's
:class:`~repro.storage.profiles.TierProfile` (``storage_price``,
``put_price``, ``get_price``); this module only does arithmetic on them.

Two layers:

* **Static estimation** — :func:`monthly_storage_cost` and friends compute
  the dollar arithmetic the paper does in §5.3 (e.g. moving 8 TB of cold
  data from EBS SSD to S3-IA saves $700/month per instance).
* **Runtime accounting** — :class:`CostLedger` integrates byte-hours,
  counts billable requests per tier and network egress per byte, so any
  simulated experiment can report its accumulated bill.
"""

from __future__ import annotations

from repro.storage.profiles import TIER_PROFILES, TierProfile
from repro.util.units import GB, HOUR

#: Hours per billing month (AWS convention: 730).
HOURS_PER_MONTH = 730.0

# Network prices ($/GB), Table 4: free within a DC, $0.02/GB between AWS
# regions, $0.09/GB out to the Internet.
NETWORK_PRICES: dict[str, float] = {
    "intra_dc": 0.0,
    "inter_region": 0.02,
    "internet": 0.09,
}


def price_for(tier_name: str) -> TierProfile:
    """The profile carrying ``tier_name``'s Table 4 prices (canonical
    profile names only)."""
    try:
        return TIER_PROFILES[tier_name]
    except KeyError:
        raise KeyError(f"no prices for tier {tier_name!r}") from None


def monthly_storage_cost(tier_name: str, nbytes: float) -> float:
    """Dollars per month to keep ``nbytes`` on ``tier_name``."""
    return price_for(tier_name).storage_price * (nbytes / GB)


def request_cost(tier_name: str, puts: int = 0, gets: int = 0) -> float:
    profile = price_for(tier_name)
    return (profile.put_price * puts / 10_000
            + profile.get_price * gets / 10_000)


def network_cost(nbytes: float, scope: str = "inter_region") -> float:
    return NETWORK_PRICES[scope] * (nbytes / GB)


def migration_savings(nbytes: float, src_tier: str, dst_tier: str) -> float:
    """Monthly saving from moving ``nbytes`` from src to dst tier."""
    return (monthly_storage_cost(src_tier, nbytes)
            - monthly_storage_cost(dst_tier, nbytes))


class CostLedger:
    """Accumulates one deployment's bill as the simulation runs.

    Storage is billed by integrating *stored bytes x time* (GB-hours scaled
    to the monthly rate); requests and network bytes are counted per
    category as they happen.
    """

    def __init__(self, sim):
        self.sim = sim
        self._last_update: dict[str, float] = {}
        self._last_bytes: dict[str, float] = {}
        self._gb_hours: dict[str, float] = {}
        self._puts: dict[str, int] = {}
        self._gets: dict[str, int] = {}
        self._net_bytes: dict[str, float] = {}
        self._tier_names: dict[str, str] = {}  # ledger key -> profile name

    # -- hooks driven by backends/network -------------------------------------
    def _key(self, backend) -> str:
        key = f"{backend.region}/{backend.name}" if backend.region else backend.name
        self._tier_names[key] = backend.profile.name
        return key

    def record_usage(self, backend) -> None:
        """Integrate stored-byte time up to now, then snapshot the level."""
        key = self._key(backend)
        last_t = self._last_update.get(key, 0.0)
        last_b = self._last_bytes.get(key, 0.0)
        elapsed_hours = (self.sim.now - last_t) / HOUR
        self._gb_hours[key] = (self._gb_hours.get(key, 0.0)
                               + (last_b / GB) * elapsed_hours)
        self._last_update[key] = self.sim.now
        self._last_bytes[key] = backend.used_bytes

    def record_put(self, backend) -> None:
        key = self._key(backend)
        self._puts[key] = self._puts.get(key, 0) + 1

    def record_get(self, backend) -> None:
        key = self._key(backend)
        self._gets[key] = self._gets.get(key, 0) + 1

    def record_network(self, nbytes: float, scope: str = "inter_region") -> None:
        if scope not in NETWORK_PRICES:
            raise KeyError(f"unknown network scope {scope!r}")
        self._net_bytes[scope] = self._net_bytes.get(scope, 0.0) + nbytes

    # -- reporting -------------------------------------------------------------
    def finalize(self, backends=()) -> None:
        for backend in backends:
            self.record_usage(backend)

    def storage_dollars(self) -> float:
        total = 0.0
        for key, gb_hours in self._gb_hours.items():
            profile = price_for(self._tier_names[key])
            total += profile.storage_price * gb_hours / HOURS_PER_MONTH
        return total

    def request_dollars(self) -> float:
        total = 0.0
        # Sorted: float addition is not associative, and ``set`` order
        # varies with the process's hash seed.
        for key in sorted(set(self._puts) | set(self._gets)):
            profile = price_for(self._tier_names[key])
            total += profile.put_price * self._puts.get(key, 0) / 10_000
            total += profile.get_price * self._gets.get(key, 0) / 10_000
        return total

    def network_dollars(self) -> float:
        return sum(NETWORK_PRICES[scope] * (b / GB)
                   for scope, b in self._net_bytes.items())

    def total_dollars(self) -> float:
        return (self.storage_dollars() + self.request_dollars()
                + self.network_dollars())
