"""Wiera: the geo-distributed management layer (the paper's contribution).

Public surface:

* :class:`WieraService` — WUI API (Table 1), GPM, TSM.
* :class:`GlobalPolicySpec` and friends — global policy definitions.
* Consistency protocols — MultiPrimaries / PrimaryBackup / Eventual.
* :class:`WieraClient` — application handle with proximity + failover.
* Monitors — latency/requests/cold-data dynamism (§3.2.3, §4.3).
"""

from repro.core.wiera import WieraError, WieraService
from repro.core.client import NoInstanceAvailableError, WieraClient
from repro.core.global_policy import (
    AutoscaleSpec,
    ChangePrimarySpec,
    ColdDataSpec,
    DynamicConsistencySpec,
    FailureSpec,
    GlobalPolicySpec,
    RedundancySpec,
    RegionPlacement,
)
from repro.core.loadbalance import LoadBalancer
from repro.core.tim import TieraInstanceManager, WieraInstanceError
from repro.core.tsm import TieraServerManager
from repro.core.monitoring import (
    ColdDataCoordinator,
    LatencyMonitor,
    RequestsMonitor,
)
from repro.core.workload_monitor import WorkloadMonitor, WorkloadSnapshot
from repro.core.placement import DataPlacementAdvisor, PlacementAdvice
from repro.core.consistency import (
    EventualConsistencyProtocol,
    MultiPrimariesProtocol,
    PrimaryBackupConfig,
    PrimaryBackupProtocol,
)

__all__ = [
    "WieraService",
    "WieraError",
    "WieraClient",
    "NoInstanceAvailableError",
    "GlobalPolicySpec",
    "RegionPlacement",
    "DynamicConsistencySpec",
    "ChangePrimarySpec",
    "ColdDataSpec",
    "FailureSpec",
    "RedundancySpec",
    "AutoscaleSpec",
    "TieraInstanceManager",
    "WieraInstanceError",
    "TieraServerManager",
    "LatencyMonitor",
    "RequestsMonitor",
    "ColdDataCoordinator",
    "MultiPrimariesProtocol",
    "PrimaryBackupProtocol",
    "PrimaryBackupConfig",
    "EventualConsistencyProtocol",
    "WorkloadMonitor",
    "WorkloadSnapshot",
    "DataPlacementAdvisor",
    "PlacementAdvice",
    "LoadBalancer",
]
