"""Tiera Server Manager (TSM).

Holds the registry of Tiera servers across regions/providers, checks their
health with periodic pings (§4.1: "periodically sends a 'ping' message"),
and notifies watching TIMs when a server dies so they can re-create
replicas (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.net.network import NetworkError
from repro.sim.primitives import Loop
from repro.sim.rpc import Message, RpcNode


@dataclass
class ServerRecord:
    server_id: str
    region: str
    provider: str
    node: RpcNode
    server: object        # in-proc TieraServer handle
    alive: bool = True
    missed: int = 0
    last_seen: float = 0.0

    @property
    def host(self):
        return self.node.host


class TieraServerManager:
    """Server registry + heartbeat prober + failure notifier."""

    def __init__(self, sim, node: RpcNode, heartbeat_interval: float = 5.0,
                 missed_threshold: int = 3):
        self.sim = sim
        self.node = node
        self.missed_threshold = missed_threshold
        self.servers: dict[str, ServerRecord] = {}
        self._watchers: list = []   # TIMs interested in failures
        self.heartbeats = Loop(sim, "tsm:heartbeat", heartbeat_interval,
                               self._ping_round)
        self.deaths_detected = 0
        node.register("register_server", self.rpc_register_server)

    # -- registration -----------------------------------------------------
    def rpc_register_server(self, msg: Message) -> Generator:
        yield self.sim.timeout(0.0001)
        record = ServerRecord(
            server_id=msg.args["server_id"], region=msg.args["region"],
            provider=msg.args["provider"], node=msg.args["server"].node,
            server=msg.args["server"], last_seen=self.sim.now)
        self.servers[record.server_id] = record
        return {"registered": record.server_id}

    def watch(self, tim) -> None:
        if tim not in self._watchers:
            self._watchers.append(tim)

    # -- selection ----------------------------------------------------------
    def pick_server(self, region: str, provider: str = "aws",
                    fallback_any: bool = False) -> ServerRecord:
        """Choose a live server for a placement."""
        candidates = [r for r in self.servers.values()
                      if r.region == region and r.provider == provider
                      and r.alive]
        if not candidates and fallback_any:
            candidates = [r for r in self.servers.values()
                          if r.region == region and r.alive]
        if not candidates and fallback_any:
            candidates = [r for r in self.servers.values() if r.alive]
        if not candidates:
            raise KeyError(
                f"no Tiera server available in {region}/{provider} "
                f"(registered: {sorted(self.servers)})")
        # Least-loaded first (fewest hosted instances), server id as the
        # deterministic tie-break — with one server per (region, provider)
        # this is exactly the old lowest-id choice, so single-server
        # deployments stay bit-identical; with several (see
        # ``build_deployment(servers_per_region=N)``) shard placements
        # spread across hosts instead of stacking on one egress link.
        return sorted(candidates,
                      key=lambda r: (len(r.server.instances),
                                     r.server_id))[0]

    # -- heartbeats --------------------------------------------------------------
    def _ping_round(self) -> Generator:
        for record in list(self.servers.values()):
            if not record.alive:
                continue
            try:
                yield from self.node.invoke(record.node, "ping")
                record.missed = 0
                record.last_seen = self.sim.now
            except NetworkError:
                record.missed += 1
                if record.missed >= self.missed_threshold:
                    record.alive = False
                    self.deaths_detected += 1
                    for tim in self._watchers:
                        tim.on_server_down(record.server_id)
