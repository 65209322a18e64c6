"""Tests for get-load balancing (RequestsMonitoring + forward, §3.2.3)."""

from collections import deque
from functools import lru_cache

from hypothesis import given, strategies as st

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.core.loadbalance import THRESHOLD_RPS
from repro.net import EU_WEST, US_EAST, US_WEST
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST, EU_WEST)


def deploy(lb=False):
    dep = build_deployment(REGIONS, seed=23)
    spec = GlobalPolicySpec(
        name="lb",
        placements=tuple(RegionPlacement(r, memory_only_policy())
                         for r in REGIONS),
        consistency="multi_primaries",
        load_balance=lb)
    instances = dep.start_wiera_instance("lb", spec)
    return dep, instances


def seed_key(dep, instances):
    client = dep.add_client(US_EAST, instances=instances, name="seeder")

    def seed():
        yield from client.put("hot", b"payload" * 64)
    dep.drive(seed())


@lru_cache(maxsize=None)
def _instance():
    """One deployed instance; each example below installs its own log."""
    dep, _ = deploy()
    dep.sim.run(until=3600.0)
    return dep.instance("lb", US_EAST)


class _Walked(deque):
    """A get log that counts the entries a reverse walk visits."""

    visited = 0

    def __reversed__(self):
        for t in super().__reversed__():
            self.visited += 1
            yield t


class TestGetsInWindow:
    """The balancer reads every instance's recent gets each round; the count
    walks back from the newest get and stops at the window's edge."""

    @given(ages=st.lists(st.floats(0.0, 3600.0), max_size=200),
           window=st.one_of(st.floats(0.0, 3600.0),
                            st.sampled_from([0.0, 5.0, 60.0, 3600.0])))
    def test_matches_a_full_count(self, ages, window):
        inst = _instance()
        now = inst.sim.now
        inst.get_log = deque(sorted(now - age for age in ages))
        expected = sum(1 for t in inst.get_log if t >= now - window)
        assert inst.gets_in_window(window) == expected

    def test_stops_at_the_cutoff(self):
        inst = _instance()
        now = inst.sim.now
        inst.get_log = _Walked([now - 3000.0 + i * 0.1 for i in range(10_000)]
                               + [now - 1.0, now - 0.5, now])
        assert inst.gets_in_window(5.0) == 3
        assert inst.get_log.visited == 4


class TestRedirectMechanism:
    def test_manual_redirect_forwards_fraction(self):
        dep, instances = deploy()
        seed_key(dep, instances)
        tim = dep.tim("lb")
        east = dep.instance("lb", US_EAST)
        west_id = next(iid for iid, rec in tim.instances.items()
                       if rec.region == US_WEST)

        def install():
            yield tim.node.call(east.node, "ctl_set_redirect",
                                {"peer": west_id, "fraction": 1.0})
        dep.drive(install())
        client = dep.add_client(US_EAST, instances=instances, name="reader")

        def read():
            result = yield from client.get("hot")
            return result
        result = dep.drive(read())
        assert result["data"] == b"payload" * 64
        assert east.redirected_gets == 1
        # the redirected read paid the WAN trip to US West
        assert result["latency"] > 0.06

    def test_clearing_redirect(self):
        dep, instances = deploy()
        seed_key(dep, instances)
        east = dep.instance("lb", US_EAST)
        east.get_redirect = ("whatever", 1.0)

        def clear():
            yield east.node.call(east.node, "ctl_set_redirect",
                                 {"peer": None})
        dep.drive(clear())
        assert east.get_redirect is None


class TestLoadBalancerMonitor:
    def test_overload_installs_then_clears(self):
        dep, instances = deploy(lb=True)
        seed_key(dep, instances)
        tim = dep.tim("lb")
        east = dep.instance("lb", US_EAST)
        balancer = next(m for m in tim.monitors
                        if type(m).__name__ == "LoadBalancer")
        client = dep.add_client(US_EAST, instances=instances, name="hammer")

        # ~90 gets/s at the east instance (threshold 50) for 20 seconds
        stop_at = dep.sim.now + 20.0

        def hammer():
            while dep.sim.now < stop_at:
                yield from client.get("hot")
                yield dep.sim.timeout(0.01)
        proc = dep.sim.process(hammer())
        dep.sim.run(until=proc)
        assert balancer.redirects_installed >= 1
        assert east.redirected_gets > 0
        # after the storm, the redirect is removed (hysteresis)
        dep.sim.run(until=dep.sim.now + 30.0)
        assert east.get_redirect is None
        assert balancer.redirects_cleared >= 1

    def test_no_redirect_below_threshold(self):
        dep, instances = deploy(lb=True)
        seed_key(dep, instances)
        client = dep.add_client(US_EAST, instances=instances, name="calm")

        def trickle():
            for _ in range(20):
                yield from client.get("hot")
                yield dep.sim.timeout(1.0)
        dep.drive(trickle())
        east = dep.instance("lb", US_EAST)
        assert east.get_redirect is None
        assert east.redirected_gets == 0

    def test_no_shed_when_all_hot(self):
        """No peer with headroom -> no redirect (shedding would just move
        the overload around)."""
        dep, instances = deploy(lb=True)
        seed_key(dep, instances)
        clients = [dep.add_client(r, instances=instances, name=f"h-{r}")
                   for r in REGIONS]
        stop_at = dep.sim.now + 15.0

        def hammer(c):
            while dep.sim.now < stop_at:
                try:
                    yield from c.get("hot")
                except Exception:
                    pass
                yield dep.sim.timeout(0.01)
        procs = [dep.sim.process(hammer(c)) for c in clients]
        dep.sim.run(until=dep.sim.all_of(procs))
        tim = dep.tim("lb")
        balancer = next(m for m in tim.monitors
                        if type(m).__name__ == "LoadBalancer")
        # every instance is over the threshold, so none has headroom
        assert min(balancer._rates().values()) > THRESHOLD_RPS
        assert balancer.redirects_installed == 0
