"""Focused tests for the monitor components themselves."""

import pytest

from repro import (
    DynamicConsistencySpec,
    GlobalPolicySpec,
    RegionPlacement,
    build_deployment,
)
from repro.core.monitoring import LatencyMonitor
from repro.net import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST, EU_WEST, ASIA_EAST)


def deploy(**kwargs):
    dep = build_deployment(REGIONS, seed=19)
    spec = GlobalPolicySpec(
        name="m",
        placements=tuple(RegionPlacement(r, memory_only_policy())
                         for r in REGIONS),
        consistency="multi_primaries", **kwargs)
    instances = dep.start_wiera_instance("m", spec)
    return dep, instances


class TestProbeEstimate:
    def test_estimate_matches_strong_put_anatomy(self):
        """The probe-based estimate lands near the real strong put cost."""
        dep, instances = deploy()
        tim = dep.tim("m")
        monitor = LatencyMonitor(tim, DynamicConsistencySpec())
        client = dep.add_client(US_WEST, instances=instances)

        def measure():
            estimate = yield from monitor.probe_estimate()
            result = yield from client.put("k", b"v")
            return estimate, result["latency"]
        estimate, actual = dep.drive(measure())
        # worst-instance estimate should bound the US West put and be the
        # same order of magnitude
        assert estimate == pytest.approx(actual, rel=0.8)
        assert estimate >= 0.2

    def test_estimate_sees_injected_delay(self):
        dep, instances = deploy()
        tim = dep.tim("m")
        monitor = LatencyMonitor(tim, DynamicConsistencySpec())

        def measure():
            before = yield from monitor.probe_estimate()
            for other in REGIONS:
                if other != US_WEST:
                    dep.network.inject_pair_delay(US_WEST, other, 0.4)
            after = yield from monitor.probe_estimate()
            return before, after
        before, after = dep.drive(measure())
        assert after > before + 0.5  # at least one extra round trip

    def test_estimate_skips_down_instances(self):
        dep, instances = deploy()
        tim = dep.tim("m")
        monitor = LatencyMonitor(tim, DynamicConsistencySpec())
        dep.instance("m", ASIA_EAST).host.down = True

        def measure():
            value = yield from monitor.probe_estimate()
            return value
        # must not raise even though probes to Asia fail
        assert dep.drive(measure()) > 0

    def test_partition_from_lock_service_keeps_weak_mode(self):
        """An instance the network cuts off from the lock service (US East)
        estimates ``inf`` — no strong put from there can take the lock — so
        a weak-mode monitor keeps probing and stays weak."""
        dep, instances = deploy()
        tim = dep.tim("m")
        monitor = LatencyMonitor(tim, DynamicConsistencySpec())
        dep.network.partition(EU_WEST, US_EAST)

        def measure():
            value = yield from monitor.probe_estimate()
            return value
        assert dep.drive(measure()) == float("inf")

        monitor.mode = "weak"
        monitor.loop.start()
        dep.sim.run(until=dep.sim.now + 60.0)
        monitor.loop.stop()
        assert monitor.mode == "weak"
        assert len(monitor.signal_log) >= 10
        assert {signal for _, signal, _ in monitor.signal_log} == {
            float("inf")}


class TestViolationClocks:
    def test_sparse_samples_keep_verdict(self):
        dep, instances = deploy()
        tim = dep.tim("m")
        spec = DynamicConsistencySpec(latency_threshold=0.1, period=30.0)
        monitor = LatencyMonitor(tim, spec)
        iid = next(iter(tim.instances))
        # one violating sample, then silence
        monitor._hist(iid).observe(0.5)
        assert monitor._update_violation_clocks() is not None
        dep.sim.run(until=dep.sim.now + 60.0)
        # no fresh samples: the clock keeps running, not resetting
        longest = monitor._update_violation_clocks()
        assert longest is not None and longest >= 60.0

    def test_healthy_sample_clears_clock(self):
        dep, instances = deploy()
        tim = dep.tim("m")
        spec = DynamicConsistencySpec(latency_threshold=0.1, period=30.0)
        monitor = LatencyMonitor(tim, spec)
        iid = next(iter(tim.instances))
        monitor._hist(iid).observe(0.5)
        monitor._update_violation_clocks()
        # Let the violating sample age out of the 4 s window, then record
        # a healthy one — the shared registry histogram is append-only.
        dep.sim.run(until=dep.sim.now + 10.0)
        monitor._hist(iid).observe(0.05)
        assert monitor._update_violation_clocks() is None

    def test_monitor_only_counts_app_requests(self):
        dep, instances = deploy()
        tim = dep.tim("m")
        monitor = LatencyMonitor(tim, DynamicConsistencySpec(op="put"))
        record = next(iter(tim.instances.values()))
        instance = record.instance
        instance._notify_latency("put", 1.0, "app")
        instance._notify_latency("put", 9.0, "peer-x")   # forwarded: not counted
        instance._notify_latency("get", 9.0, "app")      # wrong op: not counted
        assert monitor._hist(record.instance_id).values_since(0.0) == [1.0]
