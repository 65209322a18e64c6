"""Tests for runtime dynamism: consistency switching, primary migration,
gating/draining semantics, and the monitors driving them."""


from repro import (
    ChangePrimarySpec,
    DynamicConsistencySpec,
    GlobalPolicySpec,
    RegionPlacement,
    build_deployment,
)
from repro.net import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import write_back_policy
from repro.util.units import MS

REGIONS = (US_EAST, US_WEST, EU_WEST)


def deploy(consistency="multi_primaries", regions=REGIONS, **kwargs):
    dep = build_deployment(regions, seed=9)
    spec = GlobalPolicySpec(
        name="dyn",
        placements=tuple(
            RegionPlacement(r, write_back_policy(),
                            primary=(i == 0)) for i, r in enumerate(regions)),
        consistency=consistency, **kwargs)
    instances = dep.start_wiera_instance("dyn", spec)
    return dep, instances


class TestSwitchConsistency:
    def test_manual_switch_roundtrip(self):
        dep, instances = deploy("multi_primaries")
        tim = dep.tim("dyn")
        client = dep.add_client(US_WEST, instances=instances)

        def app():
            yield from client.put("k", b"v1")
            result = yield from tim.switch_consistency("eventual")
            assert result["to"] == "eventual"
            r = yield from client.put("k", b"v2")
            fast = r["latency"]
            yield from tim.switch_consistency("multi_primaries")
            r = yield from client.put("k", b"v3")
            slow = r["latency"]
            return fast, slow

        fast, slow = dep.drive(app())
        assert fast < 10 * MS < slow
        assert [(s[1], s[2]) for s in tim.switch_log] == [
            ("multi_primaries", "eventual"),
            ("eventual", "multi_primaries")]

    def test_switch_drains_queued_updates_first(self):
        dep, instances = deploy("eventual", queue_interval=300.0)
        tim = dep.tim("dyn")
        client = dep.add_client(US_WEST, instances=instances)

        def app():
            yield from client.put("k", b"v")
            # queue interval is huge: the update is still pending
            yield from tim.switch_consistency("multi_primaries")
        dep.drive(app())
        # After the switch, every replica must have the queued update.
        for region in REGIONS:
            inst = dep.instance("dyn", region)
            assert inst.meta.get_record("k") is not None, region

    def test_requests_blocked_while_switching(self):
        dep, instances = deploy("multi_primaries")
        tim = dep.tim("dyn")
        client = dep.add_client(US_WEST, instances=instances)
        order = []

        def switcher():
            result = yield from tim.switch_consistency("eventual")
            order.append(("switched", dep.sim.now))
            return result

        def putter():
            yield dep.sim.timeout(0.001)  # arrive mid-switch
            result = yield from client.put("k", b"v")
            order.append(("put-done", dep.sim.now))
            return result

        p1 = dep.sim.process(switcher())
        p2 = dep.sim.process(putter())
        dep.sim.run(until=dep.sim.all_of([p1, p2]))
        # The put must never straddle the switch: either it slipped in
        # before the gates closed — then the drain waited for it, so the
        # switch completed after it — or it was gated and ran entirely
        # under the new protocol (eventual => local-speed latency).
        times = dict(order)
        if times["put-done"] <= times["switched"]:
            assert p2.value["consistency"] == "multi_primaries"
        else:
            assert p2.value["consistency"] == "eventual"
            assert p2.value["latency"] < 10 * MS


class TestLatencyMonitorSwitching:
    def test_sustained_violation_switches_then_recovers(self):
        dep, instances = deploy(
            "multi_primaries", regions=(US_EAST, US_WEST, EU_WEST, ASIA_EAST),
            dynamic=DynamicConsistencySpec(latency_threshold=0.8, period=10.0))
        tim = dep.tim("dyn")
        client = dep.add_client(US_WEST, instances=instances)
        usw = dep.instance("dyn", US_WEST)

        def workload():
            while True:
                yield from client.put("k", b"v")
                yield dep.sim.timeout(1.0)

        dep.sim.process(workload())
        t0 = dep.sim.now
        dep.network.inject_host_delay(usw.host, 0.3, start=t0 + 5,
                                      duration=30)
        dep.sim.run(until=t0 + 80)
        kinds = [(s[2]) for s in tim.switch_log]
        assert kinds == ["eventual", "multi_primaries"]
        weak_at = tim.switch_log[0][0] - t0
        strong_at = tim.switch_log[1][0] - t0
        assert 14 <= weak_at <= 25       # 5s start + 10s period + checks
        assert strong_at >= 35           # after the injection ends at 35s

    def test_transient_violation_ignored(self):
        dep, instances = deploy(
            "multi_primaries", regions=(US_EAST, US_WEST, EU_WEST),
            dynamic=DynamicConsistencySpec(latency_threshold=0.8, period=15.0))
        tim = dep.tim("dyn")
        client = dep.add_client(US_WEST, instances=instances)
        usw = dep.instance("dyn", US_WEST)

        def workload():
            while True:
                yield from client.put("k", b"v")
                yield dep.sim.timeout(1.0)

        dep.sim.process(workload())
        t0 = dep.sim.now
        dep.network.inject_host_delay(usw.host, 0.3, start=t0 + 5,
                                      duration=5)  # < period
        dep.sim.run(until=t0 + 60)
        assert tim.switch_log == []


class TestChangePrimary:
    def test_forwarding_majority_moves_primary(self):
        dep, instances = deploy(
            "primary_backup", sync_replication=False, queue_interval=2.0,
            change_primary=ChangePrimarySpec(window=20.0, period=6.0,
                                             check_interval=2.0))
        tim = dep.tim("dyn")
        initial = tim.protocol.config.primary_id
        assert initial.endswith(US_EAST)
        # Hammer puts from EU West only.
        client = dep.add_client(EU_WEST, instances=instances)

        def workload():
            for _ in range(120):
                yield from client.put("k", b"v")
                yield dep.sim.timeout(0.5)
        dep.drive(workload())
        assert tim.protocol.config.primary_id.endswith(EU_WEST)
        history = tim.protocol.config.history
        assert len(history) >= 2

    def test_change_primary_explicit(self):
        dep, instances = deploy("primary_backup", sync_replication=True)
        tim = dep.tim("dyn")
        new_id = next(iid for iid, rec in tim.instances.items()
                      if rec.region == EU_WEST)

        def change():
            result = yield from tim.change_primary(new_id)
            return result
        result = dep.drive(change())
        assert result["changed"]
        assert tim.protocol.config.primary_id == new_id
        # Puts from anywhere now land at the new primary.
        client = dep.add_client(US_WEST, instances=instances)

        def app():
            result = yield from client.put("k", b"v")
            return result
        result = dep.drive(app())
        assert result["primary"] == new_id

    def test_change_to_same_primary_is_noop(self):
        dep, instances = deploy("primary_backup")
        tim = dep.tim("dyn")
        current = tim.protocol.config.primary_id

        def change():
            result = yield from tim.change_primary(current)
            return result
        assert dep.drive(change())["changed"] is False
