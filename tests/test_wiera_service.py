"""Tests for the Wiera service: WUI API (Table 1), launch protocol, GPM."""

import pytest

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.core.wiera import WieraError
from repro.net import EU_WEST, US_EAST, US_WEST
from repro.sim.rpc import RpcNode
from repro.tiera.policy import memory_only_policy

REGIONS = (US_EAST, US_WEST)


def spec(name="svc", consistency="eventual"):
    return GlobalPolicySpec(
        name=name,
        placements=tuple(RegionPlacement(r, memory_only_policy())
                         for r in REGIONS),
        consistency=consistency)


class TestWuiApi:
    def test_start_get_stop(self):
        dep = build_deployment(REGIONS)
        instances = dep.start_wiera_instance("w1", spec())
        assert len(instances) == 2
        listed = dep.wiera.get_instances("w1")
        assert {i["instance_id"] for i in listed} == \
            {i["instance_id"] for i in instances}
        result = dep.drive(dep.wiera.stop_instances("w1"))
        assert result["stopped"]
        with pytest.raises(WieraError):
            dep.wiera.get_instances("w1")
        # the Tiera servers no longer host the instances
        for server in dep.servers.values():
            assert not server.instances

    def test_duplicate_wiera_instance_rejected(self):
        dep = build_deployment(REGIONS)
        dep.start_wiera_instance("w1", spec())
        with pytest.raises(WieraError):
            dep.start_wiera_instance("w1", spec())

    def test_stop_stops_every_shard_of_a_namespace(self):
        dep = build_deployment(REGIONS, shards=2)
        handle = dep.start_sharded_instance("sh", spec("sh"))
        assert sorted(handle.map.shards) == ["sh-s0", "sh-s1"]
        result = dep.drive(dep.wiera.stop_instances("sh"))
        assert result == {"stopped": True}
        assert dep.wiera.tims == {}
        with pytest.raises(WieraError):
            dep.wiera.get_instances("sh")
        for server in dep.servers.values():
            assert not server.instances

    def test_one_name_names_one_namespace(self):
        """A plain launch cannot take a sharded namespace's name: its
        instances would be reachable by no client."""
        dep = build_deployment(REGIONS, shards=2)
        dep.start_sharded_instance("sh", spec("sh"))
        with pytest.raises(WieraError):
            dep.start_wiera_instance("sh", spec("sh"))
        assert sorted(dep.wiera.get_shard_map("sh").shards) == \
            ["sh-s0", "sh-s1"]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_get_instances_lists_live_members_after_a_death(self, shards):
        """A death that starts no §4.4 recovery publishes nothing; the
        instance list and the map a client fetches skip the dead
        instance at the published epoch."""
        from repro.core.global_policy import FailureSpec
        dep = build_deployment(REGIONS, shards=shards)
        dep.start_sharded_instance("w", GlobalPolicySpec(
            name="w", placements=spec().placements, consistency="eventual",
            failure=FailureSpec(min_replicas=1)))
        dep.server(US_WEST).host.crash()
        dep.sim.run(until=dep.sim.now + 30.0)   # heartbeats miss it
        listed = dep.wiera.get_instances("w")
        assert len(listed) == shards
        assert {info["region"] for info in listed} == {US_EAST}
        assert dep.wiera.get_shard_map("w").epoch == 1

    def test_stop_unknown_is_graceful(self):
        dep = build_deployment(REGIONS)
        result = dep.drive(dep.wiera.stop_instances("ghost"))
        assert result == {"stopped": False}

    def test_multiple_wiera_instances_coexist(self):
        dep = build_deployment(REGIONS)
        i1 = dep.start_wiera_instance("a", spec("a"))
        i2 = dep.start_wiera_instance("b", spec("b"))
        ids = {i["instance_id"] for i in i1} | {i["instance_id"] for i in i2}
        assert len(ids) == 4
        # independent data planes
        c1 = dep.add_client(US_EAST, instances=i1)
        c2 = dep.add_client(US_EAST, instances=i2)

        def app():
            yield from c1.put("k", b"from-a")
            yield from c2.put("k", b"from-b")
            g1 = yield from c1.get("k")
            g2 = yield from c2.get("k")
            return g1["data"], g2["data"]
        d1, d2 = dep.drive(app())
        assert (d1, d2) == (b"from-a", b"from-b")

    def test_rpc_form_of_wui(self):
        """Applications can also drive the WUI over (simulated) RPC."""
        dep = build_deployment(REGIONS)
        app_node = RpcNode(dep.sim, dep.network,
                           dep.network.add_host("app", EU_WEST), name="app")

        def main():
            started = yield app_node.call(
                dep.wiera.node, "start_instances",
                {"wiera_instance_id": "rpc-w", "policy": spec("rpc-w")})
            listed = yield app_node.call(
                dep.wiera.node, "get_instances",
                {"wiera_instance_id": "rpc-w"})
            stopped = yield app_node.call(
                dep.wiera.node, "stop_instances",
                {"wiera_instance_id": "rpc-w"})
            return started, listed, stopped
        started, listed, stopped = dep.drive(main())
        assert len(started["instances"]) == 2
        assert len(listed["instances"]) == 2
        assert stopped["stopped"]

    def test_launch_wires_peers_and_lock_clients(self):
        dep = build_deployment(REGIONS)
        dep.start_wiera_instance("w", spec())
        tim = dep.tim("w")
        for iid, rec in tim.instances.items():
            peers = rec.instance.peers
            assert iid not in peers
            assert len(peers) == 1
            assert rec.instance.lock_client is not None
            assert rec.instance.wiera is tim

    def test_launch_takes_simulated_time(self):
        dep = build_deployment(REGIONS)
        t0 = dep.sim.now
        dep.start_wiera_instance("w", spec())
        # spawn RPCs + peer propagation over the WAN cost real time
        assert dep.sim.now > t0

    def test_gpm_stores_policy(self):
        dep = build_deployment(REGIONS)
        s = spec()
        dep.start_wiera_instance("w", s)
        assert dep.wiera.shard_manager("w").spec is s

    def test_primary_backup_requires_primary_placement(self):
        with pytest.raises(ValueError):
            GlobalPolicySpec(
                name="bad",
                placements=tuple(RegionPlacement(r, memory_only_policy())
                                 for r in REGIONS),
                consistency="primary_backup")

    def test_unknown_consistency_rejected(self):
        with pytest.raises(ValueError):
            GlobalPolicySpec(
                name="bad",
                placements=(RegionPlacement(US_EAST, memory_only_policy()),),
                consistency="quantum")

