"""Tests for the workload monitor and automated placement advisor."""

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.core import DataPlacementAdvisor, WorkloadMonitor
from repro.net import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST, EU_WEST, ASIA_EAST)


def deploy(consistency="eventual", **kwargs):
    dep = build_deployment(REGIONS, seed=17)
    spec = GlobalPolicySpec(
        name="pl",
        placements=tuple(
            RegionPlacement(r, memory_only_policy(),
                            primary=(i == 0)) for i, r in enumerate(REGIONS)),
        consistency=consistency, **kwargs)
    instances = dep.start_wiera_instance("pl", spec)
    return dep, instances


def hammer(dep, instances, region, ops, key_prefix=""):
    client = dep.add_client(region, instances=instances,
                            name=f"load-{region}-{key_prefix}")

    def run():
        for i in range(ops):
            yield from client.put(f"{key_prefix}{region}-{i}", b"v" * 128)
            try:
                yield from client.get(f"{key_prefix}{region}-{i}")
            except Exception:
                pass  # async replication may not have landed locally yet
    dep.drive(run())


class TestWorkloadMonitor:
    def test_polling_aggregates_demand(self):
        dep, instances = deploy()
        tim = dep.tim("pl")
        monitor = WorkloadMonitor(tim, poll_interval=5.0)
        hammer(dep, instances, EU_WEST, 30)
        hammer(dep, instances, US_WEST, 5)
        dep.drive(monitor.poll_once())
        demand = monitor.demand_by_region()
        assert demand[EU_WEST] == 60      # 30 puts + 30 gets
        assert demand[US_WEST] == 10

    def test_deltas_not_cumulative(self):
        dep, instances = deploy()
        monitor = WorkloadMonitor(dep.tim("pl"), poll_interval=5.0)
        hammer(dep, instances, EU_WEST, 10)
        dep.drive(monitor.poll_once())
        dep.drive(monitor.poll_once())  # no new traffic
        assert monitor.snapshots[-1].total_requests == 0

    def test_window_zero_is_empty_not_full_history(self):
        """Regression: window=0 used to be falsy and silently returned
        the *entire* snapshot history (the autoscaler's decision window
        depends on window semantics being exact)."""
        dep, instances = deploy()
        monitor = WorkloadMonitor(dep.tim("pl"), poll_interval=5.0)
        hammer(dep, instances, EU_WEST, 10)
        dep.drive(monitor.poll_once())
        assert monitor.demand_by_region(window=None)[EU_WEST] == 20
        assert monitor.demand_by_region(window=0) == {}

    def test_window_counts_recent_rounds_only(self):
        dep, instances = deploy()
        monitor = WorkloadMonitor(dep.tim("pl"), poll_interval=5.0)
        hammer(dep, instances, EU_WEST, 10)
        dep.drive(monitor.poll_once())       # round 1: 20 requests
        hammer(dep, instances, EU_WEST, 5, key_prefix="b")
        dep.drive(monitor.poll_once())       # round 2: 10 requests
        assert monitor.demand_by_region(window=1)[EU_WEST] == 10
        assert monitor.demand_by_region(window=2)[EU_WEST] == 30
        # A window larger than history covers everything retained.
        assert monitor.demand_by_region(window=99)[EU_WEST] == 30

    def test_background_polling(self):
        dep, instances = deploy()
        monitor = WorkloadMonitor(dep.tim("pl"), poll_interval=2.0)
        monitor.loop.start()
        dep.sim.run(until=dep.sim.now + 11.0)
        monitor.loop.stop()
        assert len(monitor.snapshots) >= 4


class TestPlacementAdvisor:
    def test_primary_follows_demand(self):
        dep, instances = deploy()
        tim = dep.tim("pl")
        monitor = WorkloadMonitor(tim, poll_interval=5.0)
        advisor = DataPlacementAdvisor(tim, monitor)
        hammer(dep, instances, ASIA_EAST, 40)
        hammer(dep, instances, EU_WEST, 3)
        dep.drive(monitor.poll_once())
        region, cost = advisor.best_primary()
        assert region == ASIA_EAST
        assert cost < advisor.weighted_put_latency(US_EAST,
                                                   monitor.demand_by_region())

    def test_replica_set_covers_demand(self):
        dep, instances = deploy()
        tim = dep.tim("pl")
        monitor = WorkloadMonitor(tim, poll_interval=5.0)
        advisor = DataPlacementAdvisor(tim, monitor)
        hammer(dep, instances, ASIA_EAST, 30)
        hammer(dep, instances, EU_WEST, 30)
        dep.drive(monitor.poll_once())
        replicas = advisor.replica_set(2)
        assert set(replicas) == {ASIA_EAST, EU_WEST}

    def test_consistency_suggestion_latency_goal(self):
        dep, instances = deploy()
        tim = dep.tim("pl")
        monitor = WorkloadMonitor(tim, poll_interval=5.0)
        hammer(dep, instances, US_EAST, 10)
        dep.drive(monitor.poll_once())
        relaxed = DataPlacementAdvisor(tim, monitor, latency_goal=5.0)
        strict = DataPlacementAdvisor(tim, monitor, latency_goal=0.001)
        assert relaxed.advise().suggested_consistency == "multi_primaries"
        assert strict.advise().suggested_consistency == "eventual"

    def test_apply_actuates_change_primary(self):
        dep, instances = deploy(consistency="primary_backup",
                                sync_replication=False, queue_interval=1.0)
        tim = dep.tim("pl")
        assert tim.protocol.config.primary_id.endswith(US_EAST)
        monitor = WorkloadMonitor(tim, poll_interval=5.0)
        advisor = DataPlacementAdvisor(tim, monitor)
        hammer(dep, instances, ASIA_EAST, 40)
        dep.drive(monitor.poll_once())
        result = dep.drive(advisor.apply())
        assert result["changed"]
        assert tim.protocol.config.primary_id.endswith(ASIA_EAST)

    def test_advice_with_no_demand(self):
        dep, instances = deploy()
        tim = dep.tim("pl")
        monitor = WorkloadMonitor(tim, poll_interval=5.0)
        advisor = DataPlacementAdvisor(tim, monitor)
        advice = advisor.advise()
        assert advice.primary_region in REGIONS
        assert advice.demand == {}


class TestCostAwareAdvice:
    def test_weight_zero_is_latency_only(self):
        """Satellite regression: cost_weight=0 (the default) must produce
        advice identical to a latency-only advisor — the price book is
        never consulted."""
        dep, instances = deploy()
        tim = dep.tim("pl")
        monitor = WorkloadMonitor(tim, poll_interval=5.0)
        hammer(dep, instances, ASIA_EAST, 25)
        hammer(dep, instances, EU_WEST, 10)
        dep.drive(monitor.poll_once())
        plain = DataPlacementAdvisor(tim, monitor).advise()
        weighted = DataPlacementAdvisor(tim, monitor,
                                        cost_weight=0.0).advise()
        assert weighted == plain

    def test_cost_weight_penalizes_expensive_region(self):
        """A huge cost_weight makes the advisor avoid the region carrying
        the most stored bytes (highest storage dollars), even though it
        has the most demand."""
        dep, instances = deploy()
        tim = dep.tim("pl")
        monitor = WorkloadMonitor(tim, poll_interval=5.0)
        hammer(dep, instances, ASIA_EAST, 40)
        dep.drive(monitor.poll_once())
        latency_only = DataPlacementAdvisor(tim, monitor)
        assert latency_only.best_primary()[0] == ASIA_EAST
        # pile bytes onto the asia-east instance so its storage bill
        # dwarfs everyone else's
        inst = dep.instance("pl", ASIA_EAST)
        for backend in inst.tiers.values():
            backend.preload("ballast", b"x" * (64 << 20))
            break
        costly = DataPlacementAdvisor(tim, monitor, cost_weight=1e6)
        demand = monitor.demand_by_region()
        assert (costly.region_monthly_cost(ASIA_EAST, demand)
                > costly.region_monthly_cost(US_EAST, demand))
        assert costly.best_primary()[0] != ASIA_EAST
