"""Tests for repro.autoscale: spec validation, signal windows, and the
shard lever with hysteresis and cooldown.

The lever tests drive demand synthetically — a pump process increments a
``load.offered`` counter at a controlled rate — so each decision branch
is exercised deterministically without standing up full cohorts; the
end-to-end flash-crowd path (real cohorts, real shed) is the
``autoscale`` gate of ``benchmarks/gates.py``
(``benchmarks/bench_autoscale.py``).
"""

import pytest

from repro import (
    AutoscaleSpec,
    GlobalPolicySpec,
    RegionPlacement,
    build_deployment,
)
from repro.net import US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST)


def _policy_spec():
    return GlobalPolicySpec(
        name="as",
        placements=tuple(RegionPlacement(r, memory_only_policy())
                         for r in REGIONS),
        consistency="eventual")


def _autoscaled_dep(aspec, servers_per_region=3, seed=5):
    dep = build_deployment(list(REGIONS), seed=seed,
                           servers_per_region=servers_per_region,
                           autoscale=aspec)
    handle = dep.start_sharded_instance("as", _policy_spec())
    scaler = dep.autoscalers["as"]
    return dep, handle, scaler


def _pump(dep, rate):
    """Background process emitting ``rate[0]`` offered ops per sim-second
    into the metrics registry (the signal the reader watches)."""
    counter = dep.obs.metrics.counter("load.offered", cohort="pump")

    def run():
        while True:
            counter.inc(int(rate[0]))
            yield dep.sim.timeout(1.0)
    dep.sim.process(run(), name="pump")
    return counter


class TestAutoscaleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscaleSpec(target_per_shard=0)
        with pytest.raises(ValueError):
            AutoscaleSpec(target_per_shard=10, decision_interval=0)
        with pytest.raises(ValueError):
            AutoscaleSpec(target_per_shard=10, min_shards=0)
        with pytest.raises(ValueError):
            AutoscaleSpec(target_per_shard=10, min_shards=4, max_shards=2)
        with pytest.raises(ValueError):
            AutoscaleSpec(target_per_shard=10, scale_down_windows=0)

    def test_defaults_off(self):
        assert build_deployment(list(REGIONS)).autoscale is None


class TestHarnessWiring:
    def test_no_spec_means_no_controller_and_plain_handle(self):
        """The handle of a one-shard namespace: one shard, named after
        the namespace, whose instances carry no guard; no controller."""
        dep = build_deployment(list(REGIONS), seed=5)
        handle = dep.start_sharded_instance("as", _policy_spec())
        assert list(handle.map.shards) == ["as"]
        assert all(rec.instance.shard_guard is None
                   for rec in dep.tim("as").instances.values())
        assert dep.autoscalers == {}

    def test_spec_autoscale_attaches_controller_even_at_one_shard(self):
        aspec = AutoscaleSpec(target_per_shard=100.0)
        dep = build_deployment(list(REGIONS), seed=5, autoscale=aspec)
        handle = dep.start_sharded_instance("as", _policy_spec())
        assert list(handle.map.shards) == ["as"]
        assert "as" in dep.autoscalers
        assert dep.autoscalers["as"].shards == 1


class TestShardLever:
    def test_scale_up_tracks_demand_and_scale_down_needs_calm_streak(self):
        aspec = AutoscaleSpec(target_per_shard=100.0, decision_interval=2.0,
                              cooldown=0.0, scale_down_windows=2,
                              max_shards=3)
        dep, handle, scaler = _autoscaled_dep(aspec)
        # Demand for ~3 shards: ceil(250 / (0.85*100)) = 3.  (Set before
        # the pump starts: its first tick runs inside sim.process().)
        rate = [250.0]
        _pump(dep, rate)
        dep.sim.run(until=dep.sim.now + 10.0)
        assert scaler.shards == 3
        ups = [d for d in scaler.decisions if d.action == "scale_up"]
        assert ups and ups[0].desired == 3
        assert dep.metric_total("autoscale.scale_ups", namespace="as") == 2

        # One calm window is not enough (hysteresis)...
        rate[0] = 10.0
        first_calm = dep.sim.now
        dep.sim.run(until=first_calm + 3.0)
        assert scaler.shards == 3
        # ...but a sustained streak shrinks one shard at a time.
        dep.sim.run(until=first_calm + 40.0)
        assert scaler.shards == 1
        downs = [d for d in scaler.decisions if d.action == "scale_down"]
        assert len(downs) == 2
        assert dep.metric_total("autoscale.scale_downs", namespace="as") == 2
        # The floor holds: calm forever never drops below min_shards.
        assert all(d.shards > 1 for d in downs)

    def test_shed_forces_scale_up_to_ceiling_even_below_rate_band(self):
        # Shed means the queue overflowed: offered_rate under-reports
        # demand, so the controller jumps to max_shards in one burst.
        aspec = AutoscaleSpec(target_per_shard=1000.0, decision_interval=2.0,
                              cooldown=0.0, max_shards=2)
        dep, handle, scaler = _autoscaled_dep(aspec)
        shed = dep.obs.metrics.counter("load.shed", cohort="pump")

        def shedder():
            yield dep.sim.timeout(1.0)
            shed.inc(5)
        dep.sim.process(shedder(), name="shedder")
        dep.sim.run(until=dep.sim.now + 5.0)
        assert scaler.shards == 2
        assert [d.action for d in scaler.decisions][0] == "scale_up"

    def test_cooldown_and_in_flight_guard_skip_decisions(self):
        aspec = AutoscaleSpec(target_per_shard=100.0, decision_interval=2.0,
                              cooldown=30.0, max_shards=4)
        dep, handle, scaler = _autoscaled_dep(aspec)
        rate = [300.0]
        _pump(dep, rate)
        # The first hot window triggers one scale-up burst (several
        # sim-seconds of rebalancing); every window after that lands in
        # the 30 s cooldown.
        dep.sim.run(until=dep.sim.now + 20.0)
        # One action, then cooldown mutes the loop despite hot signals.
        acted = [d for d in scaler.decisions if d.action == "scale_up"]
        skipped = [d for d in scaler.decisions
                   if d.action == "skip_cooldown"]
        assert len(acted) == 1
        assert skipped, "hot windows during cooldown must be audited"

    def test_audit_records_carry_signals(self):
        aspec = AutoscaleSpec(target_per_shard=100.0, decision_interval=2.0)
        dep, handle, scaler = _autoscaled_dep(aspec)
        dep.sim.run(until=dep.sim.now + 5.0)
        audit = scaler.audit()
        assert audit
        for row in audit:
            assert {"time", "offered_rate", "shed", "queue_depth",
                    "egress_utilization", "shards", "desired", "action",
                    "reason", "took", "detail"} <= set(row)
        assert dep.metric_total("autoscale.decisions",
                                namespace="as") == len(audit)
