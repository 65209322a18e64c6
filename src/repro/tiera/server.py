"""The Tiera server: one per data center, spawns instances on request.

Mirrors §4.1: a Tiera server connects to Wiera's Tiera Server Manager on
launch ("to let Wiera know that it is ready to spawn instances"), answers
periodic health pings, and spawns/stops Tiera instances with the storage
tiers and local policy specified in each request.  Instances run within
the server process (sharing its host), as in the paper's prototype.
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

from repro.net.network import Host, Network
from repro.sim.kernel import Simulator
from repro.sim.rpc import Message, RpcNode
from repro.tiera.instance import TieraInstance
from repro.tiera.policy import LocalPolicy
from repro.util.rng import RngRegistry


class TieraServer:
    """Spawning/lifecycle agent for Tiera instances in one DC."""

    _ids = itertools.count(1)

    def __init__(self, sim: Simulator, network: Network, host: Host,
                 region: str, provider: str = "aws",
                 rng: Optional[RngRegistry] = None, ledger=None,
                 server_id: Optional[str] = None):
        self.sim = sim
        self.network = network
        self.host = host
        self.region = region
        self.provider = provider
        self.rng = rng or RngRegistry(0)
        self.ledger = ledger
        # Callers that need build-to-build determinism (the harness, so
        # two identical build_deployment() calls in one process place
        # shards identically) pass an explicit id; the process-global
        # counter is only a convenience fallback for ad-hoc constructions.
        self.server_id = server_id or f"tsrv-{region}-{next(self._ids)}"
        self.node = RpcNode(sim, network, host, name=self.server_id)
        self.instances: dict[str, TieraInstance] = {}
        self.tsm_node: Optional[RpcNode] = None

        self.node.register("spawn_instance", self.rpc_spawn_instance)
        self.node.register("stop_instance", self.rpc_stop_instance)
        self.node.register("list_instances", self.rpc_list_instances)
        self.node.register("ping", self.rpc_ping)

    # -- registration with Wiera -------------------------------------------
    def connect_to_tsm(self, tsm_node: RpcNode) -> Generator:
        """Announce readiness to the Tiera Server Manager (step 0 of §4.1)."""
        self.tsm_node = tsm_node
        result = yield from self.node.invoke(tsm_node, "register_server", {
            "server_id": self.server_id,
            "region": self.region,
            "provider": self.provider,
            "server": self,  # in-process handle, as instances run in-proc
        })
        return result

    # -- RPC handlers ---------------------------------------------------------
    def rpc_spawn_instance(self, msg: Message) -> Generator:
        instance_id = msg.args["instance_id"]
        policy: LocalPolicy = msg.args["policy"]
        if instance_id in self.instances:
            raise RuntimeError(f"{self.server_id}: instance {instance_id} exists")
        yield self.sim.timeout(0.005)  # process spawn cost
        instance = TieraInstance(
            self.sim, self.network, self.host, instance_id, self.region,
            policy, rng=self.rng, ledger=self.ledger)
        self.instances[instance_id] = instance
        instance.start()
        return {"instance_id": instance_id,
                "node": instance.node,
                "region": self.region,
                "provider": self.provider,
                # In the prototype instances run inside the server process;
                # the in-proc handle lets the TIM wire monitors directly.
                "instance": instance}

    def rpc_stop_instance(self, msg: Message) -> Generator:
        """The one place an instance ends (:meth:`TieraInstance.stop`):
        ``stopInstances`` or a retired shard."""
        instance_id = msg.args["instance_id"]
        instance = self.instances.pop(instance_id, None)
        yield self.sim.timeout(0.001)
        if instance is None:
            return {"stopped": False}
        instance.stop()
        return {"stopped": True}

    def rpc_list_instances(self, msg: Message) -> Generator:
        yield self.sim.timeout(0.0002)
        return {"instances": sorted(self.instances)}

    def rpc_ping(self, msg: Message) -> Generator:
        yield self.sim.timeout(0.00005)
        return {"server_id": self.server_id, "alive": True,
                "instances": len(self.instances)}

    # -- failure injection ---------------------------------------------------
    def crash(self) -> None:
        """Kill the host: volatile tier contents are lost, RPCs fail."""
        self.host.crash()
        for instance in self.instances.values():
            instance.on_host_crash()

    def recover(self) -> None:
        self.host.recover()
        for instance in self.instances.values():
            instance.start()

    def __repr__(self) -> str:
        return f"<TieraServer {self.server_id} instances={len(self.instances)}>"
