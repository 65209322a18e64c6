"""The Wiera service: WUI + Global Policy Manager + Tiera Server Manager.

One WieraService per deployment (the paper hosts it in US East alongside
Zookeeper).  Applications drive it through the Table 1 API —
``startInstances`` / ``stopInstances`` / ``getInstances`` — exposed both as
RPC handlers (for simulated remote applications) and as plain coroutine
methods for harness code.  Wiera manages instances and policies but stays
*off the data path*: object bytes only ever flow between Tiera instances.
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

from repro.coordination.lock_service import LockService
from repro.core.global_policy import GlobalPolicySpec
from repro.core.tim import TieraInstanceManager
from repro.core.tsm import TieraServerManager
from repro.net.network import Host, Network
from repro.net.topology import US_EAST
from repro.shard.map import ShardManager, ShardMap
from repro.sim.kernel import Simulator
from repro.sim.rpc import Message, RpcNode


class WieraError(RuntimeError):
    pass


class WieraService:
    """The management plane of a Wiera deployment."""

    _ids = itertools.count(1)

    def __init__(self, sim: Simulator, network: Network,
                 host: Optional[Host] = None, region: str = US_EAST,
                 heartbeat_interval: float = 5.0):
        self.sim = sim
        self.network = network
        if host is None:
            host = network.add_host(f"wiera-{next(self._ids)}", region,
                                    provider="aws", vm="aws.t2_micro")
        self.host = host
        self.region = region
        self.node = RpcNode(sim, network, host, name=f"wui:{host.name}")
        # Zookeeper runs on the same instance as Wiera (§5 setup).
        self.lock_node = RpcNode(sim, network, host, name=f"zk:{host.name}")
        self.lock_service = LockService(sim, self.lock_node)
        # GPM state: policy id -> spec; TIMs: wiera instance id -> TIM.
        self.policies: dict[str, GlobalPolicySpec] = {}
        self.tims: dict[str, TieraInstanceManager] = {}
        # Sharded namespaces: base id -> ShardManager (each shard is an
        # ordinary Wiera instance named "{base}-s{i}" in self.tims).
        self.shard_managers: dict[str, ShardManager] = {}
        self.tsm = TieraServerManager(sim, self.node,
                                      heartbeat_interval=heartbeat_interval)
        self.node.register("start_instances", self.rpc_start_instances)
        self.node.register("stop_instances", self.rpc_stop_instances)
        self.node.register("get_instances", self.rpc_get_instances)

    # -- WUI API (Table 1), coroutine form -------------------------------------
    def start_instances(self, wiera_instance_id: str,
                        spec: GlobalPolicySpec) -> Generator:
        """Launch the Tiera instances of a new Wiera instance (§4.1 steps
        1-8); returns the instance list the application connects with."""
        if wiera_instance_id in self.tims:
            raise WieraError(f"wiera instance {wiera_instance_id!r} exists")
        self.policies[wiera_instance_id] = spec
        tim = TieraInstanceManager(self.sim, self.network, self,
                                   wiera_instance_id, spec, self.lock_node)
        self.tims[wiera_instance_id] = tim
        instances = yield from tim.launch()
        return instances

    def stop_instances(self, wiera_instance_id: str) -> Generator:
        tim = self.tims.pop(wiera_instance_id, None)
        if tim is None:
            return {"stopped": False}
        yield from tim.stop()
        self.policies.pop(wiera_instance_id, None)
        return {"stopped": True}

    def get_instances(self, wiera_instance_id: str) -> list[dict]:
        return self.get_shard_map(wiera_instance_id).all_instances()

    # -- sharded namespaces (repro.shard) -------------------------------------
    def start_sharded_instances(self, base_id: str, spec: GlobalPolicySpec,
                                shards: int) -> Generator:
        """Launch ``shards`` Wiera instances partitioning one namespace
        and publish the epoch-1 shard map."""
        if base_id in self.shard_managers:
            raise WieraError(f"sharded namespace {base_id!r} exists")
        if base_id in self.tims:
            raise WieraError(f"{base_id!r} already names a wiera instance")
        manager = ShardManager(self.sim, self, base_id, spec, shards)
        self.shard_managers[base_id] = manager
        try:
            shard_map = yield from manager.launch()
        except BaseException:
            self.shard_managers.pop(base_id, None)
            raise
        return shard_map

    def shard_manager(self, base_id: str) -> ShardManager:
        try:
            return self.shard_managers[base_id]
        except KeyError:
            raise WieraError(
                f"no sharded namespace {base_id!r}") from None

    def get_shard_map(self, base_id: str) -> ShardMap:
        """Where namespace ``base_id`` lives (one shard when unsharded)."""
        manager = self.shard_managers.get(base_id)
        if manager is not None:
            return manager.map
        tim = self.tim(base_id)
        return ShardMap.single(base_id, tim.members(), tim.epoch)

    # -- WUI API, RPC form ---------------------------------------------------
    def rpc_start_instances(self, msg: Message) -> Generator:
        instances = yield from self.start_instances(
            msg.args["wiera_instance_id"], msg.args["policy"])
        return {"instances": instances}

    def rpc_stop_instances(self, msg: Message) -> Generator:
        result = yield from self.stop_instances(msg.args["wiera_instance_id"])
        return result

    def rpc_get_instances(self, msg: Message) -> Generator:
        """Table 1's ``getInstances``, and a client's map refresh."""
        yield self.sim.timeout(0.0001)
        ns = msg.args["wiera_instance_id"]
        return {"instances": self.get_instances(ns),
                "map": self.get_shard_map(ns)}

    # -- server bootstrap helper ----------------------------------------------
    def register_servers(self, servers) -> Generator:
        """Connect a collection of Tiera servers to the TSM."""
        for server in servers:
            yield from server.connect_to_tsm(self.node)
        self.tsm.heartbeats.start()

    def tim(self, wiera_instance_id: str) -> TieraInstanceManager:
        try:
            return self.tims[wiera_instance_id]
        except KeyError:
            raise WieraError(
                f"no wiera instance {wiera_instance_id!r}") from None
