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
        # Namespaces: id -> ShardManager (its GPM state is the manager's
        # spec); every shard is a TIM named in self.tims.
        self.shard_managers: dict[str, ShardManager] = {}
        self.tims: dict[str, TieraInstanceManager] = {}
        self.tsm = TieraServerManager(sim, self.node,
                                      heartbeat_interval=heartbeat_interval)
        self.node.register("start_instances", self.rpc_start_instances)
        self.node.register("stop_instances", self.rpc_stop_instances)
        self.node.register("get_instances", self.rpc_get_instances)

    # -- WUI API (Table 1), coroutine form -------------------------------------
    def start_instances(self, namespace: str, spec: GlobalPolicySpec,
                        shards: int = 1) -> Generator:
        """Launch namespace ``namespace`` as ``shards`` Wiera instances
        (§4.1 steps 1-8 each, :mod:`repro.shard`) and publish its epoch-1
        map, which it returns."""
        if namespace in self.shard_managers or namespace in self.tims:
            raise WieraError(f"{namespace!r} already names a namespace "
                             "or a shard")
        manager = ShardManager(self.sim, self, namespace, spec, shards)
        self.shard_managers[namespace] = manager
        try:
            shard_map = yield from manager.launch()
        except BaseException:
            self.shard_managers.pop(namespace, None)
            raise
        return shard_map

    def stop_instances(self, namespace: str) -> Generator:
        """Stop every shard of ``namespace`` and forget it."""
        if namespace not in self.shard_managers:
            return {"stopped": False}
        manager = self.shard_managers.pop(namespace)
        for shard_id in [sid for sid, tim in self.tims.items()
                         if tim.manager is manager]:
            yield from manager.stop_shard(shard_id)
        return {"stopped": True}

    def get_instances(self, namespace: str) -> list[dict]:
        return self.get_shard_map(namespace).all_instances()

    def shard_manager(self, namespace: str) -> ShardManager:
        try:
            return self.shard_managers[namespace]
        except KeyError:
            raise WieraError(f"no namespace {namespace!r}") from None

    def get_shard_map(self, namespace: str) -> ShardMap:
        """Where ``namespace`` lives: its published map, each shard listing
        its members now.  A death marks an instance down and publishes
        nothing, so a map answered after one lists the live members at
        the published epoch."""
        manager = self.shard_manager(namespace)
        members = manager.members(manager.map.shards)
        if members == manager.map.shards:
            return manager.map
        return ShardMap(manager.epoch, manager.map.ring, members)

    # -- WUI API, RPC form ---------------------------------------------------
    def rpc_start_instances(self, msg: Message) -> Generator:
        shard_map = yield from self.start_instances(
            msg.args["wiera_instance_id"], msg.args["policy"])
        return {"instances": shard_map.all_instances()}

    def rpc_stop_instances(self, msg: Message) -> Generator:
        result = yield from self.stop_instances(msg.args["wiera_instance_id"])
        return result

    def rpc_get_instances(self, msg: Message) -> Generator:
        """Table 1's ``getInstances``, and a client's map refresh."""
        yield self.sim.timeout(0.0001)
        shard_map = self.get_shard_map(msg.args["wiera_instance_id"])
        return {"instances": shard_map.all_instances(), "map": shard_map}

    # -- server bootstrap helper ----------------------------------------------
    def register_servers(self, servers) -> Generator:
        """Connect a collection of Tiera servers to the TSM."""
        for server in servers:
            yield from server.connect_to_tsm(self.node)
        self.tsm.heartbeats.start()

    def tim(self, shard_id: str) -> TieraInstanceManager:
        try:
            return self.tims[shard_id]
        except KeyError:
            raise WieraError(f"no wiera instance {shard_id!r}") from None
