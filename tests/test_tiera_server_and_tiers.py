"""Tests for TieraServer lifecycle and modular instance tiers (§3.2.2)."""

import pytest

from repro.net import HostDownError, Network, US_EAST, US_WEST
from repro.sim import Simulator
from repro.sim.rpc import RpcNode
from repro.storage.backend import ObjectMissingError, StorageError
from repro.tiera import InstanceTier, TieraServer
from repro.tiera.policy import memory_only_policy, write_back_policy
from repro.util.rng import RngRegistry


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim)
    return sim, net


def run(sim, gen):
    proc = sim.process(gen)
    return sim.run(until=proc)


class TestTieraServer:
    def test_spawn_and_list(self, world):
        sim, net = world
        host = net.add_host("srv", US_EAST)
        server = TieraServer(sim, net, host, US_EAST)
        ctl = RpcNode(sim, net, net.add_host("mgr", US_EAST), name="mgr")

        def main():
            result = yield ctl.call(server.node, "spawn_instance", {
                "instance_id": "i1", "policy": write_back_policy()})
            listing = yield ctl.call(server.node, "list_instances")
            return result, listing

        result, listing = run(sim, main())
        assert result["instance_id"] == "i1"
        assert listing["instances"] == ["i1"]
        [flush] = server.instances["i1"].loops   # the write-back timer
        assert flush.running

    def test_duplicate_spawn_rejected(self, world):
        sim, net = world
        server = TieraServer(sim, net, net.add_host("srv", US_EAST), US_EAST)
        ctl = RpcNode(sim, net, net.add_host("mgr", US_EAST), name="mgr")

        def main():
            yield ctl.call(server.node, "spawn_instance", {
                "instance_id": "i1", "policy": memory_only_policy()})
            try:
                yield ctl.call(server.node, "spawn_instance", {
                    "instance_id": "i1", "policy": memory_only_policy()})
            except RuntimeError:
                return "rejected"

        assert run(sim, main()) == "rejected"

    def test_stop_instance(self, world):
        sim, net = world
        server = TieraServer(sim, net, net.add_host("srv", US_EAST), US_EAST)
        ctl = RpcNode(sim, net, net.add_host("mgr", US_EAST), name="mgr")

        def main():
            yield ctl.call(server.node, "spawn_instance", {
                "instance_id": "i1", "policy": memory_only_policy()})
            r1 = yield ctl.call(server.node, "stop_instance",
                                {"instance_id": "i1"})
            r2 = yield ctl.call(server.node, "stop_instance",
                                {"instance_id": "i1"})
            return r1, r2

        r1, r2 = run(sim, main())
        assert r1["stopped"] and not r2["stopped"]

    def test_crash_makes_unreachable_and_wipes_memory(self, world):
        sim, net = world
        server = TieraServer(sim, net, net.add_host("srv", US_EAST), US_EAST)
        ctl = RpcNode(sim, net, net.add_host("mgr", US_EAST), name="mgr")

        def spawn_and_fill():
            result = yield ctl.call(server.node, "spawn_instance", {
                "instance_id": "i1", "policy": write_back_policy()})
            inst = server.instances["i1"]
            yield from inst.local_put("k", b"v")
            return inst

        inst = run(sim, spawn_and_fill())
        server.crash()
        assert "k#v1" not in inst.tier("tier1")

        def ping():
            yield ctl.call(server.node, "ping")

        p = sim.process(ping())
        with pytest.raises(HostDownError):
            sim.run(until=p)

    def test_ping_reports_instances(self, world):
        sim, net = world
        server = TieraServer(sim, net, net.add_host("srv", US_EAST), US_EAST)
        ctl = RpcNode(sim, net, net.add_host("mgr", US_EAST), name="mgr")

        def main():
            yield ctl.call(server.node, "spawn_instance", {
                "instance_id": "i1", "policy": memory_only_policy()})
            pong = yield ctl.call(server.node, "ping")
            return pong

        pong = run(sim, main())
        assert pong["alive"] and pong["instances"] == 1


class TestInstanceTier:
    @pytest.fixture
    def pair(self, world):
        """A local instance in US West using a US East instance as a tier."""
        sim, net = world
        from repro.tiera import TieraInstance
        remote_host = net.add_host("rh", US_EAST)
        remote = TieraInstance(sim, net, remote_host, "remote", US_EAST,
                               memory_only_policy(), rng=RngRegistry(1))
        local_host = net.add_host("lh", US_WEST)
        owner = RpcNode(sim, net, local_host, name="owner")
        tier = InstanceTier(sim, owner, remote.node, "tier1",
                            name="shared",
                            remote_profile=remote.tier("tier1").profile,
                            estimated_oneway=0.035)
        return sim, remote, tier

    def test_write_read_roundtrip_over_rpc(self, pair):
        sim, remote, tier = pair
        run(sim, tier.write("obj", b"payload"))
        assert "obj" in tier
        assert run(sim, tier.read("obj")) == b"payload"
        # bytes actually live at the remote instance
        assert remote.tier("tier1")._data["obj"] == b"payload"

    def test_latency_includes_wan(self, pair):
        sim, remote, tier = pair
        t0 = sim.now
        run(sim, tier.write("obj", b"p"))
        assert sim.now - t0 >= 2 * 0.035

    def test_read_unknown_key_raises_locally(self, pair):
        sim, remote, tier = pair
        with pytest.raises(ObjectMissingError):
            run(sim, tier.read("ghost"))

    def test_mark_known_enables_remote_read(self, pair):
        sim, remote, tier = pair
        remote.tier("tier1").preload("orphan", b"central-data")
        tier.mark_known("orphan")
        assert run(sim, tier.read("orphan")) == b"central-data"

    def test_delete(self, pair):
        sim, remote, tier = pair
        run(sim, tier.write("obj", b"p"))
        run(sim, tier.delete("obj"))
        assert "obj" not in tier
        assert "obj" not in remote.tier("tier1")

    def test_read_only_enforced(self, world):
        sim, net = world
        from repro.tiera import TieraInstance
        remote = TieraInstance(sim, net, net.add_host("rh", US_EAST),
                               "remote", US_EAST, memory_only_policy(),
                               rng=RngRegistry(1))
        owner = RpcNode(sim, net, net.add_host("lh", US_WEST), name="owner")
        tier = InstanceTier(sim, owner, remote.node, "tier1", read_only=True)
        with pytest.raises(StorageError):
            run(sim, tier.write("obj", b"p"))

    def test_grow_unsupported(self, pair):
        _, _, tier = pair
        with pytest.raises(StorageError):
            tier.grow(100)

    def test_profile_reflects_rtt(self, pair):
        _, remote, tier = pair
        base = remote.tier("tier1").profile.read_latency
        assert tier.profile.read_latency >= base + 2 * 0.035
