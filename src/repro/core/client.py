"""Wiera client library.

Applications "connect to the closest instance (placed at the head of the
list)" (§4.1 step 8) and fall back to the next-closest when an instance is
unreachable (§4.4), routing through one cached, epoch-stamped
:class:`~repro.shard.map.ShardMap` of its namespace (one shard when
unsharded).  The client exposes the full object-versioning API of
Table 2 and books every op once, in its op history
(:mod:`repro.obs.history`): app-perceived latency, the quantity every
latency figure and cohort percentile reports, and outcome.  No metric
holds a second copy of a client op's latency.

Failover now covers the full transient-error surface: alongside network
errors, a request that times out (``request_timeout``) or dies inside the
remote handler with an :class:`~repro.sim.rpc.RpcError` (e.g. the instance
crashed mid-operation) moves the client to the next instance.  When a
``retry_policy`` is set, the whole failover sweep is retried with backoff
— the paper's "connect to the closest alive instance" loop, with teeth.
Both knobs default to off so fault-free runs are unchanged.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.coordination.lock_service import LockServiceError
from repro.core.consistency.base import ProtocolError
from repro.faults.retry import RetryPolicy
from repro.net.network import Host, HostDownError, Network, NetworkError
from repro.obs.api import get_obs
from repro.obs.history import OpHistory
from repro.shard.map import ShardMap, WrongShardError
from repro.sim.kernel import Simulator
from repro.sim.rpc import RpcError, RpcNode, call_with_timeout
from repro.storage.backend import StorageError
from repro.tiera.instance import TieraError

#: errors that mean "try another instance", not "the request is invalid"
FAILOVER_ERRORS = (HostDownError, NetworkError, TimeoutError, RpcError)

#: shard-map refreshes allowed per operation before treating the
#: epoch-mismatch as a failed attempt (a redirect loop means the service
#: itself is behind, which backoff — not more refreshes — resolves)
MAX_REDIRECTS = 4


class NoInstanceAvailableError(RuntimeError):
    """Every known instance was unreachable."""


#: what a Table 2 call may end with — no candidate reachable, or a typed
#: error its handler raised; any other exception is a bug and propagates
OP_ERRORS = (NoInstanceAvailableError, StorageError, TieraError,
             ProtocolError, LockServiceError)


class WieraClient:
    """Application-side handle: a cached, proximity-ordered map of the
    namespace + failover."""

    def __init__(self, sim: Simulator, network: Network, host: Host,
                 name: Optional[str] = None,
                 request_timeout: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 rng=None):
        self.sim = sim
        self.network = network
        self.host = host
        self.node = RpcNode(sim, network, host,
                            name=name or f"client:{host.name}")
        self.service: Optional[RpcNode] = None   # serves namespace's map
        self.namespace: Optional[str] = None
        self.map: Optional[ShardMap] = None
        self._routes: dict[str, list[dict]] = {}   # shard id -> by proximity
        self._only: Optional[list[dict]] = None    # the route of one shard
        self._heard = 0      # the newest epoch a reply named
        self.request_timeout = request_timeout
        self.retry_policy = retry_policy
        self._rng = rng
        self.history = OpHistory()
        metrics = get_obs(sim).metrics
        self._failover_counter = metrics.counter("client.failovers",
                                                 client=self.node.name)
        self._retry_counter = metrics.counter("client.retries",
                                              client=self.node.name)
        self._refreshes = metrics.counter("router.refreshes",
                                          client=self.node.name)
        self._redirects = metrics.counter("router.wrong_shard",
                                          client=self.node.name)

    # -- the namespace's map --------------------------------------------------
    def connect(self, service: RpcNode, namespace: str,
                shard_map: ShardMap) -> None:
        self.service = service
        self.namespace = namespace
        self.install(shard_map)

    def install(self, shard_map: ShardMap) -> None:
        """Cache ``shard_map``, each shard's instances by proximity."""
        if self.map is not None and shard_map.epoch < self.map.epoch:
            return   # never go backwards in epochs

        def distance(info) -> float:
            return self.network.oneway_latency(
                self.host, info["node"].host, include_dynamics=False)

        self.map = shard_map
        self._routes = {shard_id: sorted(infos, key=distance)
                        for shard_id, infos in shard_map.shards.items()}
        self._only = (next(iter(self._routes.values()))
                      if len(self._routes) == 1 else None)
        self._heard = max(self._heard, shard_map.epoch)

    def route(self, key: str) -> list[dict]:
        """The instances of the shard owning ``key``, closest first (one
        shard: no key is hashed)."""
        if self._only is not None:
            return self._only
        if self.map is None:
            raise NoInstanceAvailableError("client knows no instances")
        return self._routes[self.map.owner(key)]

    def refresh(self) -> Generator:
        """Fetch and cache the namespace's current map."""
        result = yield from self.node.invoke(
            self.service, "get_instances",
            {"wiera_instance_id": self.namespace})
        self.install(result["map"])
        self._refreshes.inc()
        return self.map

    # -- Table 2 API ----------------------------------------------------------
    def _op(self, method: str, args: dict) -> Generator:
        """One Table 2 call, booked in ``history`` however it ends.

        It calls the closest instance of the owning shard, failing over
        down the list, and retries the whole sweep with backoff when a
        retry policy is configured.  A ``WrongShardError`` redirect — the
        contacted shard runs a newer map epoch — refreshes the cached map
        and re-routes without consuming a backoff attempt; a reply naming
        a newer epoch than any heard refreshes it after the op is booked."""
        key = args["key"]
        start = self.sim.now
        policy = self.retry_policy
        attempts = policy.max_attempts if policy is not None else 1
        last_error: Optional[Exception] = None
        attempt = 0
        redirects = 0
        try:
            while attempt < attempts:
                if attempt > 0:
                    self._retry_counter.inc()
                    yield self.sim.timeout(policy.backoff(attempt - 1,
                                                          rng=self._rng))
                redirected = False
                for info in self.route(key):
                    try:    # one RPC, bounded by request_timeout if set
                        if self.request_timeout is None:
                            result = yield from self.node.invoke(
                                info["node"], method, args)
                        else:
                            result = yield from call_with_timeout(
                                self.sim, self.node.call(info["node"], method,
                                                         args),
                                self.request_timeout)
                    except WrongShardError as exc:
                        last_error = exc
                        redirected = True
                        break   # stale map: same-shard failover is pointless
                    except FAILOVER_ERRORS as exc:
                        last_error = exc
                        self._failover_counter.inc()
                        continue
                    end = self.sim.now
                    self.history.book(method, key, result.get("version"),
                                      start, end)
                    result["latency"] = end - start
                    if result["epoch"] > self._heard:
                        self._heard = result["epoch"]
                        try:
                            yield from self.refresh()
                        except FAILOVER_ERRORS:
                            self._heard = self.map.epoch   # hear it again
                    return result
                if redirected and redirects < MAX_REDIRECTS:
                    redirects += 1
                    self._redirects.inc()
                    yield from self.refresh()
                    continue
                attempt += 1
            raise NoInstanceAvailableError(
                f"all instances unreachable for {method}: {last_error}")
        except OP_ERRORS as exc:
            self.history.book(method, key, None, start, self.sim.now,
                              type(exc).__name__)
            raise

    def put(self, key: str, data: bytes, tags=()) -> Generator:
        return self._op("put", {"key": key, "data": data, "tags": tuple(tags)})

    def get(self, key: str) -> Generator:
        """Retrieve the latest version (per the active consistency model)."""
        return self._op("get", {"key": key})

    def get_version(self, key: str, version: int) -> Generator:
        return self._op("get_version", {"key": key, "version": version})

    def get_version_list(self, key: str) -> Generator:
        result = yield from self._op("get_version_list", {"key": key})
        return result["versions"]

    def update(self, key: str, version: int, data: bytes) -> Generator:
        return self._op("update", {"key": key, "version": version,
                                   "data": data})

    def remove(self, key: str) -> Generator:
        return self._op("remove", {"key": key})

    def remove_version(self, key: str, version: int) -> Generator:
        return self._op("remove_version", {"key": key, "version": version})
