"""Wiera reproduction: flexible multi-tiered geo-distributed cloud storage.

A faithful, fully-offline reimplementation of the HPDC'16 Wiera system on
a deterministic discrete-event simulator.  See DESIGN.md for the system
inventory and EXPERIMENTS.md for the paper-vs-measured results.

Quickstart::

    from repro import build_deployment, GlobalPolicySpec, RegionPlacement
    from repro.tiera.policy import write_back_policy
    from repro.net import US_EAST, US_WEST

    dep = build_deployment([US_EAST, US_WEST])
    spec = GlobalPolicySpec(
        name="demo",
        placements=(RegionPlacement(US_EAST, write_back_policy()),
                    RegionPlacement(US_WEST, write_back_policy())),
        consistency="multi_primaries")
    instances = dep.start_wiera_instance("demo", spec)
    client = dep.add_client(US_WEST, instances=instances)

    def app():
        yield from client.put("hello", b"world")
        result = yield from client.get("hello")
        assert result["data"] == b"world"

    dep.drive(app())
"""

from repro.bench.harness import Deployment, build_deployment, drive
from repro.autoscale import Autoscaler
from repro.core import (
    AutoscaleSpec,
    ChangePrimarySpec,
    ColdDataSpec,
    DynamicConsistencySpec,
    FailureSpec,
    GlobalPolicySpec,
    RedundancySpec,
    RegionPlacement,
    WieraClient,
    WieraService,
)
from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.obs import MetricsRegistry, Observability, get_obs
from repro.shard import HashRing, ShardHandle, ShardMap
from repro.sim import Simulator
from repro.net import Network

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "Network",
    "Observability",
    "MetricsRegistry",
    "get_obs",
    "Deployment",
    "build_deployment",
    "drive",
    "WieraService",
    "WieraClient",
    "GlobalPolicySpec",
    "RegionPlacement",
    "DynamicConsistencySpec",
    "ChangePrimarySpec",
    "ColdDataSpec",
    "FailureSpec",
    "RedundancySpec",
    "AutoscaleSpec",
    "Autoscaler",
    "HashRing",
    "ShardHandle",
    "ShardMap",
    "FaultEvent",
    "FaultSchedule",
    "RetryPolicy",
    "__version__",
]
