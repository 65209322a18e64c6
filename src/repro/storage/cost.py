"""Cost model: the Table 4 price book and runtime cost accounting.

Two layers:

* **Static estimation** — :func:`monthly_storage_cost` and friends compute
  the dollar arithmetic the paper does in §5.3 (e.g. moving 8 TB of cold
  data from EBS SSD to S3-IA saves $700/month per instance).
* **Runtime accounting** — :class:`CostLedger` integrates byte-hours,
  counts billable requests per tier and network egress per byte, so any
  simulated experiment can report its accumulated bill.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import GB, HOUR

#: Hours per billing month (AWS convention: 730).
HOURS_PER_MONTH = 730.0


@dataclass(frozen=True)
class PriceEntry:
    """Prices for one storage tier, Table 4 layout."""

    storage: float      # $/GB-month
    put_per_10k: float  # $/10,000 put requests
    get_per_10k: float  # $/10,000 get requests


# Table 4 of the paper (AWS US East), keyed by canonical profile name.
PRICE_BOOK: dict[str, PriceEntry] = {
    "ebs_ssd": PriceEntry(storage=0.10, put_per_10k=0.0, get_per_10k=0.0),
    "ebs_hdd": PriceEntry(storage=0.05, put_per_10k=0.0005, get_per_10k=0.0005),
    "s3": PriceEntry(storage=0.03, put_per_10k=0.05, get_per_10k=0.004),
    "s3_ia": PriceEntry(storage=0.0125, put_per_10k=0.10, get_per_10k=0.01),
    "glacier": PriceEntry(storage=0.007, put_per_10k=0.05, get_per_10k=0.05),
    "azure_disk": PriceEntry(storage=0.05, put_per_10k=0.0, get_per_10k=0.0),
    "memcached": PriceEntry(storage=22.0, put_per_10k=0.0, get_per_10k=0.0),
}

# Network prices ($/GB), Table 4: free within a DC, $0.02/GB between AWS
# regions, $0.09/GB out to the Internet.
NETWORK_PRICES: dict[str, float] = {
    "intra_dc": 0.0,
    "inter_region": 0.02,
    "internet": 0.09,
}


def price_for(tier_name: str) -> PriceEntry:
    try:
        return PRICE_BOOK[tier_name]
    except KeyError:
        raise KeyError(f"no prices for tier {tier_name!r}") from None


def monthly_storage_cost(tier_name: str, nbytes: float) -> float:
    """Dollars per month to keep ``nbytes`` on ``tier_name``."""
    return price_for(tier_name).storage * (nbytes / GB)


def request_cost(tier_name: str, puts: int = 0, gets: int = 0) -> float:
    entry = price_for(tier_name)
    return entry.put_per_10k * puts / 10_000 + entry.get_per_10k * gets / 10_000


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
            entry = price_for(self._tier_names[key])
            total += entry.storage * gb_hours / HOURS_PER_MONTH
        return total

    def request_dollars(self) -> float:
        total = 0.0
        # Sorted: float addition is not associative, and ``set`` order
        # varies with the process's hash seed.
        for key in sorted(set(self._puts) | set(self._gets)):
            entry = price_for(self._tier_names[key])
            total += entry.put_per_10k * self._puts.get(key, 0) / 10_000
            total += entry.get_per_10k * self._gets.get(key, 0) / 10_000
        return total

    def network_dollars(self) -> float:
        return sum(NETWORK_PRICES[scope] * (b / GB)
                   for scope, b in self._net_bytes.items())

    def total_dollars(self) -> float:
        return (self.storage_dollars() + self.request_dollars()
                + self.network_dollars())
