"""repro.load — open-loop workload engine with client cohorts.

Closed-loop clients (``repro.workloads.ycsb``) measure latency; this
package measures *capacity*: deterministic arrival streams offer
operations at a configured rate whether or not the store keeps up, and
client cohorts aggregate thousands of modeled users into one kernel
process so million-user populations stay cheap.  Entirely off by
default — simulations that never construct a cohort are bit-identical
to builds without this package.
"""

from repro.load.arrivals import (
    ArrivalProcess,
    PoissonProcess,
    constant_rate,
    diurnal_rate,
    flash_crowd_rate,
    modeled_users_rate,
)
from repro.load.cohort import ClientCohort, CohortSpec, CohortStats
from repro.load.engine import LoadEngine
from repro.load.scenarios import (
    SCENARIOS,
    Scenario,
    ShiftingHotspot,
    diurnal,
    failover_storm,
    flash_crowd,
    hotspot_shift,
)

__all__ = [
    "ArrivalProcess",
    "ClientCohort",
    "CohortSpec",
    "CohortStats",
    "LoadEngine",
    "PoissonProcess",
    "SCENARIOS",
    "Scenario",
    "ShiftingHotspot",
    "constant_rate",
    "diurnal",
    "diurnal_rate",
    "failover_storm",
    "flash_crowd",
    "flash_crowd_rate",
    "hotspot_shift",
    "modeled_users_rate",
]
