"""Tests for failure handling (§4.4): heartbeat detection, replica
re-creation, resync, and client failover."""

import pytest

from repro import (
    FailureSpec,
    GlobalPolicySpec,
    RegionPlacement,
    build_deployment,
)
from repro.net import EU_WEST, US_EAST, US_WEST
from repro.obs.check import check, check_quiescent
from repro.tiera.policy import disk_only_policy, write_back_policy

REGIONS = (US_EAST, US_WEST, EU_WEST)


def deploy(min_replicas=3, heartbeat=2.0, missed=2, regions=REGIONS,
           spare_in=None):
    dep = build_deployment(regions, heartbeat_interval=heartbeat, seed=13)
    if spare_in:
        # a second server in one region, available as a respawn target
        host = dep.network.add_host(f"spare-{spare_in}", spare_in,
                                    vm="aws.t2_micro")
        from repro.tiera import TieraServer
        spare = TieraServer(dep.sim, dep.network, host, spare_in,
                            rng=dep.rng)
        dep.servers[(spare_in, "aws-spare")] = spare
        dep.drive(spare.connect_to_tsm(dep.wiera.node))
    dep.wiera.tsm.missed_threshold = missed
    spec = GlobalPolicySpec(
        name="ft",
        placements=tuple(RegionPlacement(r, write_back_policy())
                         for r in regions),
        consistency="eventual", queue_interval=0.5,
        failure=FailureSpec(min_replicas=min_replicas))
    instances = dep.start_wiera_instance("ft", spec)
    return dep, instances


def ssd_world(shards=1):
    """``examples/failure.py``'s world: one EBS SSD replica in each of US
    West (the first instance), US East and EU West, a spare server in
    every region, and at least three live replicas (per shard)."""
    regions = (US_WEST, US_EAST, EU_WEST)
    dep = build_deployment(list(regions), seed=4, servers_per_region=2,
                           shards=shards)
    ssd = disk_only_policy(profile="ebs_ssd")
    spec = GlobalPolicySpec(
        name="ft", placements=tuple(RegionPlacement(r, ssd) for r in regions),
        consistency="eventual", failure=FailureSpec(min_replicas=3))
    if shards > 1:
        return dep, dep.start_sharded_instance("ft", spec)
    instances = dep.start_wiera_instance("ft", spec)
    return dep, instances, dep.tim("ft")


def seed(dep, writer, keys, copies: int) -> None:
    """Put every key once, then let replication land everywhere."""
    def puts():
        for key in keys:
            yield from writer.put(key, key.encode() * copies)
        yield dep.sim.timeout(5.0)
    dep.drive(puts())


def crash_host_of(dep, record) -> None:
    dep.wiera.tsm.servers[record.server_id].server.crash()


def rows_of(dep, *records) -> list[list[str]]:
    """Each record's ``store_rows(detail=True)``, namespace and instance
    stripped, so that replicas holding the same writes compare equal."""
    rows = {rec.instance_id: [] for rec in records}
    for row in dep.store_rows(detail=True):
        _ns, iid, rest = row.split("/", 2)
        if iid in rows:
            rows[iid].append(rest)
    return [rows[rec.instance_id] for rec in records]


def replacement_of(tim, instances):
    originals = {info["instance_id"] for info in instances}
    return next(rec for rec in tim.instances.values()
                if rec.instance_id not in originals)


class TestHeartbeat:
    def test_death_detected(self):
        dep, instances = deploy()
        server = dep.server(US_WEST)
        server.crash()
        dep.sim.run(until=dep.sim.now + 15.0)
        assert dep.wiera.tsm.deaths_detected == 1
        record = dep.wiera.tsm.servers[server.server_id]
        assert not record.alive

    def test_healthy_servers_stay_alive(self):
        dep, instances = deploy()
        dep.sim.run(until=dep.sim.now + 30.0)
        assert dep.wiera.tsm.deaths_detected == 0


class TestReplicaRecovery:
    def test_replacement_spawned_and_resynced(self):
        dep, instances = deploy(min_replicas=3, spare_in=US_WEST)
        client = dep.add_client(US_EAST, instances=instances)

        def seed():
            for i in range(5):
                yield from client.put(f"k{i}", f"v{i}".encode())
        dep.drive(seed())
        dep.sim.run(until=dep.sim.now + 5.0)  # let replication land

        tim = dep.tim("ft")
        # crash the server actually hosting the US West instance
        hosting_id = next(rec.server_id for rec in tim.instances.values()
                          if rec.region == US_WEST)
        victim = dep.wiera.tsm.servers[hosting_id].server
        victim.crash()
        dep.sim.run(until=dep.sim.now + 40.0)

        live = [rec for rec in tim.instances.values() if not rec.down]
        assert len(live) >= 3, [(r.instance_id, r.down)
                                for r in tim.instances.values()]
        replacements = [rec for rec in live if "-r" in rec.instance_id]
        assert replacements, [r.instance_id for r in live]
        replacement = replacements[0]
        # the live peers brought the replacement level with a survivor
        survivor = next(rec for rec in live if rec.region == US_EAST)
        rows, theirs = rows_of(dep, replacement, survivor)
        assert len(rows) == 5 and rows == theirs
        assert check_quiescent(dep) == []

    def test_puts_racing_the_recovery_converge(self):
        """A US East writer puts every 10 ms across the crash: replica
        updates reach the replacement while the live peers sync it, and
        each lands through the one merge."""
        dep, instances, tim = ssd_world()
        writer = dep.add_client(US_EAST, instances=instances)
        keys = [f"row{i}" for i in range(20)]
        seed(dep, writer, keys, copies=128)
        end = dep.sim.now + 30.0

        def writes():
            i = 0
            while dep.sim.now < end:
                yield from writer.put(keys[i % len(keys)], b"%d" % i * 64)
                i += 1
                yield dep.sim.timeout(0.01)
        dep.sim.process(writes())
        dep.sim.run(until=dep.sim.now + 2.0)
        crash_host_of(dep, tim.instances[instances[0]["instance_id"]])
        dep.sim.run(until=end + 10.0)    # the writes stop, the queues flush
        live = tim.alive_records()
        assert replacement_of(tim, instances) in live and len(live) == 3
        rows = rows_of(dep, *live)
        assert len(rows[0]) == len(keys)
        assert all(other == rows[0] for other in rows[1:])
        assert check_quiescent(dep) == []

    def test_a_peer_crashing_mid_sync_leaves_the_rest_to_the_next(self):
        """The first live peer dies a second into bringing the replacement
        up to date; the next one supplies every key it did not."""
        dep, instances, tim = ssd_world()
        writer = dep.add_client(US_EAST, instances=instances)
        keys = [f"row{i}" for i in range(200)]
        seed(dep, writer, keys, copies=16)
        crash_host_of(dep, tim.instances[instances[0]["instance_id"]])
        while len(tim.instances) == len(instances):
            dep.sim.run(until=dep.sim.now + 0.05)
        replacement = replacement_of(tim, instances)
        dep.sim.run(until=dep.sim.now + 1.0)
        first = next(rec for rec in tim.alive_records()
                     if rec is not replacement)
        held = sum(1 for key in keys
                   if replacement.instance.meta.get_record(key))
        assert 0 < held < len(keys)       # the crash lands mid-sync
        crash_host_of(dep, first)
        dep.sim.run(until=dep.sim.now + 60.0)
        survivor = next(rec for rec in tim.alive_records()
                        if rec.region == EU_WEST)
        rows, theirs = rows_of(dep, replacement, survivor)
        assert len(rows) == len(keys) and rows == theirs
        assert check_quiescent(dep) == []

    def test_no_recovery_below_threshold(self):
        dep, instances = deploy(min_replicas=1)
        tim = dep.tim("ft")
        dep.server(US_WEST).crash()
        dep.sim.run(until=dep.sim.now + 30.0)
        # 2 live >= min_replicas=1: no respawn
        assert len(tim.instances) == 3
        assert sum(1 for rec in tim.instances.values() if rec.down) == 1


class TestClientFailover:
    def test_reads_fail_over_to_next_closest(self):
        dep, instances = deploy(min_replicas=1)
        client = dep.add_client(US_WEST, instances=instances)

        def seed():
            yield from client.put("k", b"v")
        dep.drive(seed())
        dep.sim.run(until=dep.sim.now + 5.0)
        assert client.route("k")[0]["region"] == US_WEST
        dep.server(US_WEST).crash()

        def read():
            result = yield from client.get("k")
            return result
        result = dep.drive(read())
        assert result["data"] == b"v"
        assert dep.metric_total("client.failovers") >= 1

    def test_all_down_raises(self):
        from repro.core.client import NoInstanceAvailableError
        dep, instances = deploy(min_replicas=1)
        client = dep.add_client(US_WEST, instances=instances)
        for region in REGIONS:
            dep.server(region).crash()

        def read():
            yield from client.get("k")
        proc = dep.sim.process(read())
        with pytest.raises(NoInstanceAvailableError):
            dep.sim.run(until=proc)

    def test_client_with_no_instances(self):
        from repro.core.client import NoInstanceAvailableError
        dep, _ = deploy(min_replicas=1)
        client = dep.add_client(US_WEST)
        assert client.map is None
        with pytest.raises(NoInstanceAvailableError):
            dep.drive(client.get("k"))
        assert client.history.outcome == ["NoInstanceAvailableError"]


class TestClientLearnsMembership:
    """A client attached before the crash moves to the replacement by
    itself: the TIM publishes the next map epoch once the replacement is
    caught up, a reply names it, and the client refreshes its map."""

    KEYS = [f"row{i}" for i in range(20)]

    def read_across_the_crash(self, dep, app, tim, record, keys):
        """Seed, crash ``record``'s host, then get ``keys`` in turn every
        100 ms for 30 s.  Returns, at the app's one refresh, the gets
        ``record``'s replacement had served and the keys it held."""
        seed(dep, app, self.KEYS, copies=128)
        crash_host_of(dep, record)
        at_refresh = []

        def reader():
            end = dep.sim.now + 30.0
            i = 0
            while dep.sim.now < end:
                epoch = app.map.epoch
                yield from app.get(keys[i % len(keys)])
                if app.map.epoch != epoch:
                    new = next(rec.instance for rec in tim.alive_records()
                               if "-r" in rec.instance_id)
                    at_refresh.append((new.gets_from_app, sum(
                        1 for key in keys if new.meta.get_record(key))))
                i += 1
                yield dep.sim.timeout(0.1)
        dep.drive(reader())
        assert len(at_refresh) == 1
        assert dep.metric_total("router.refreshes",
                                client=app.node.name) == 1
        return at_refresh[0]

    def assert_served_by(self, dep, app, replacement, at_refresh, keys):
        served, held = at_refresh
        # Caught up before it was published; not read before the refresh;
        # read for every get after it.
        assert held == len(keys) and served == 0
        gets = app.history.op.count("get")
        assert replacement.instance.gets_from_app > gets // 3
        assert app.route(keys[0])[0]["instance_id"] \
            == replacement.instance_id
        # No get failed or read behind the seed, across the crash and the
        # replacement's catch-up.
        check([app.history]).assert_holds()
        assert set(app.history.outcome) == {None}
        assert check_quiescent(dep) == []

    def test_an_unsharded_client_reads_from_the_replacement(self):
        dep, instances, tim = ssd_world()
        app = dep.add_client(US_WEST, instances=instances, name="app")
        victim = tim.instances[instances[0]["instance_id"]]
        at_refresh = self.read_across_the_crash(dep, app, tim, victim,
                                                self.KEYS)
        replacement = replacement_of(tim, instances)
        assert app.map.epoch == tim.manager.epoch == 2
        assert replacement.instance_id in {
            info["instance_id"] for info in app.map.shards["ft"]}
        east = dep.instance("ft", US_EAST)
        assert east.gets_from_app + replacement.instance.gets_from_app \
            == app.history.op.count("get")
        self.assert_served_by(dep, app, replacement, at_refresh, self.KEYS)

    def test_a_sharded_client_reads_its_shard_from_the_replacement(self):
        dep, handle = ssd_world(shards=2)
        app = dep.add_client(US_WEST, sharded=handle, name="app")
        tim = dep.tim("ft-s0")
        originals = tim.members()
        victim = next(rec for rec in tim.instances.values()
                      if rec.region == US_WEST)
        own = [key for key in self.KEYS if handle.map.owner(key) == "ft-s0"]
        at_refresh = self.read_across_the_crash(dep, app, tim, victim, own)
        replacement = replacement_of(tim, originals)
        shard_map = dep.wiera.get_shard_map("ft")
        assert app.map is shard_map and shard_map.epoch == 2
        assert replacement.instance_id in {
            info["instance_id"] for info in shard_map.shards["ft-s0"]}
        assert victim.instance_id not in {
            info["instance_id"] for info in shard_map.shards["ft-s0"]}
        # The replacement's guard is at the new epoch, for its own shard.
        guard = replacement.instance.shard_guard
        assert (guard.shard_id, guard.epoch) == ("ft-s0", 2)
        self.assert_served_by(dep, app, replacement, at_refresh, own)

    def test_one_crash_in_two_shards_publishes_only_caught_up_members(self):
        # Three shards on two servers a region: one US West server holds
        # two shards' instances, and its crash starts two recoveries.
        dep, handle = ssd_world(shards=3)
        app = dep.add_client(US_WEST, sharded=handle, name="app")
        west = {}
        for shard_id in handle.map.shards:
            for rec in dep.tim(shard_id).instances.values():
                if rec.region == US_WEST:
                    west.setdefault(rec.server_id, []).append(rec)
        victims = next(recs for recs in west.values() if len(recs) >= 2)
        # Enough keys that one replacement is caught up ~0.6 s before the
        # other: the first publication must not list the second.
        keys = [f"row{i}" for i in range(60)]
        seed(dep, app, keys, copies=128)
        crash_host_of(dep, victims[0])
        unsynced = []

        def listed_but_behind(shard_map):
            """Instances the map lists that lack a key of their shard."""
            return [info["instance_id"]
                    for shard_id, infos in shard_map.shards.items()
                    for info in infos
                    for key in keys
                    if shard_map.owner(key) == shard_id
                    and dep.tim(shard_id).instances[info["instance_id"]]
                    .instance.meta.get_record(key) is None]

        def reader():
            end = dep.sim.now + 30.0
            i = 0
            while dep.sim.now < end:
                yield from app.get(keys[i % len(keys)])
                unsynced.extend(listed_but_behind(
                    dep.wiera.get_shard_map("ft")))
                i += 1
                yield dep.sim.timeout(0.1)
        dep.drive(reader())
        assert unsynced == []
        shard_map = dep.wiera.get_shard_map("ft")
        assert shard_map.epoch == 3 and app.map is shard_map
        for rec in victims:
            shard_id = next(sid for sid in shard_map.shards
                            if rec.instance_id in dep.tim(sid).instances)
            listed = {info["instance_id"]
                      for info in shard_map.shards[shard_id]}
            assert rec.instance_id not in listed
            assert any("-r" in iid for iid in listed)
        check([app.history]).assert_holds()
        assert set(app.history.outcome) == {None}
        assert check_quiescent(dep) == []

    def test_a_republish_waits_for_a_running_migration(self):
        # A §4.4 replacement in a source shard is caught up while add_shard
        # migrates: its epoch is committed after the cutover's, never
        # between the cutover's guards and its commit.
        dep, handle = ssd_world(shards=2)
        app = dep.add_client(US_WEST, sharded=handle, name="app")
        seed(dep, app, self.KEYS, copies=128)
        mgr = dep.wiera.shard_manager("ft")
        tim = dep.tim("ft-s0")
        originals = tim.members()
        crash_host_of(dep, next(rec for rec in tim.instances.values()
                                if rec.region == US_WEST))
        commits = []
        commit = mgr.commit
        mgr.commit = lambda shard_map: commits.append(
            (dep.sim.now, shard_map.epoch)) or commit(shard_map)

        def grow():
            while len(tim.instances) == len(originals):
                yield dep.sim.timeout(0.01)    # the replacement is spawned
            result = yield from mgr.add_shard()
            done = dep.sim.now
            yield dep.sim.timeout(10.0)
            return result, done
        result, done = dep.drive(grow())
        assert result["epoch"] == 2
        assert [epoch for _, epoch in commits] == [2, 3]
        assert commits[1][0] >= done
        shard_map = dep.wiera.get_shard_map("ft")
        replacement = replacement_of(tim, originals)
        assert replacement.instance_id in {
            info["instance_id"] for info in shard_map.shards["ft-s0"]}
        # Every live instance guards the published ring.
        for shard_id in shard_map.shards:
            for rec in dep.tim(shard_id).alive_records():
                guard = rec.instance.shard_guard
                assert guard.shard_id == shard_id
                assert guard.ring.owner("row0") == shard_map.owner("row0")

        def read_all():
            for key in self.KEYS:
                yield from app.get(key)
        dep.drive(read_all())
        check([app.history]).assert_holds()
        assert set(app.history.outcome) == {None}
        assert check_quiescent(dep) == []

    def test_instances_seed_a_client_map_that_a_refresh_replaces(self):
        # ``add_client(instances=...)`` starts from a one-shard map of them;
        # the refresh a §4.4 publication triggers lists the namespace.
        dep, instances, tim = ssd_world()
        east = [info for info in instances if info["region"] == US_EAST]
        app = dep.add_client(US_WEST, instances=east, name="app")
        assert [info["instance_id"] for info in app.route("row0")] \
            == [east[0]["instance_id"]]
        victim = tim.instances[instances[0]["instance_id"]]
        self.read_across_the_crash(dep, app, tim, victim, self.KEYS)
        replacement = replacement_of(tim, instances)
        assert app.route("row0")[0]["instance_id"] \
            == replacement.instance_id
        assert len(app.route("row0")) == 3
        # A client seeded with one shard's instances belongs to the
        # sharded namespace, not to the shard.
        dep, handle = ssd_world(shards=2)
        pinned = dep.add_client(
            US_WEST, instances=list(handle.map.shards["ft-s1"]))
        assert pinned.namespace == "ft"
