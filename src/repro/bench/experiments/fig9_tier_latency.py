"""Figure 9: operation latencies for 4 KB objects per storage tier (US East).

A Tiera instance in US East exposes each tier; the application runs on the
same VM (as in §5: "clients running on the same VM where the instances are
running"), so measured latency is tier service time plus the loopback RPC.
EBS is measured with direct IO (the paper throttles memory so the OS
buffer cache cannot serve reads).

Expected shape: EBS SSD (~1-2 ms) < EBS HDD (~10 ms) < S3 < S3-IA
(tens of ms), with put > get for the object stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.reporting import ExperimentReport
from repro.core.client import WieraClient
from repro.net.network import Network
from repro.net.topology import US_EAST
from repro.shard.map import ShardMap
from repro.sim.kernel import Simulator
from repro.tiera.instance import TieraInstance
from repro.tiera.policy import LocalPolicy, Rule, TierSpec
from repro.tiera.events import InsertEvent
from repro.tiera.responses import StoreResponse
from repro.util.rng import RngRegistry
from repro.util.units import GB, KB, MS

TIERS = ("ebs_ssd", "ebs_hdd", "s3", "s3_ia")


@dataclass
class Fig9Result:
    put_ms: dict = field(default_factory=dict)
    get_ms: dict = field(default_factory=dict)


def run_fig9(object_size: int = 4 * KB, ops: int = 100,
             seed: int = 0) -> tuple:
    result = Fig9Result()
    for tier_name in TIERS:
        sim = Simulator()
        network = Network(sim)
        host = network.add_host(f"host-{tier_name}", US_EAST,
                                vm="aws.t2_micro")
        policy = LocalPolicy(
            name=f"OneTier-{tier_name}",
            tiers=(TierSpec(name="tier1", profile=tier_name,
                            capacity=16 * GB),),
            rules=(Rule(InsertEvent(tier=None),
                        (StoreResponse(to="tier1"),)),))
        instance = TieraInstance(sim, network, host, f"i-{tier_name}",
                                 US_EAST, policy, rng=RngRegistry(seed))
        instance.start()
        client = WieraClient(sim, network, host, name=f"app-{tier_name}")
        info = {"instance_id": instance.instance_id, "node": instance.node}
        client.install(ShardMap.single(instance.instance_id, [info], 1))

        def workload():
            payload = b"\xAB" * object_size
            for i in range(ops):
                yield from client.put(f"obj{i}", payload)
            for i in range(ops):
                yield from client.get(f"obj{i}")
        proc = sim.process(workload())
        sim.run(until=proc)
        result.put_ms[tier_name] = client.history.mean_latency("put") / MS
        result.get_ms[tier_name] = client.history.mean_latency("get") / MS

    report = ExperimentReport(
        exp_id="fig9",
        title=f"Operation latency for {object_size // KB} KB objects in "
              "US East, per storage tier",
        columns=["tier", "put (ms)", "get (ms)"],
        paper_claim=("EBS SSD best, EBS HDD in between, S3/S3-IA worst; "
                     "more expensive tiers are faster (Table 4 prices)"))
    for tier_name in TIERS:
        report.add_row(tier_name, result.put_ms[tier_name],
                       result.get_ms[tier_name])
    return result, report
