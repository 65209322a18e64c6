"""Wiera client library.

Applications "connect to the closest instance (placed at the head of the
list)" (§4.1 step 8) and fall back to the next-closest when an instance is
unreachable (§4.4).  The client exposes the full object-versioning API of
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
from repro.shard.map import WrongShardError
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
    """Application-side handle: proximity-ordered instances + failover."""

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
        self.instances: list[dict] = []      # proximity-ordered
        #: per-key routing against a cached ShardMap (sharded namespaces
        #: only; None leaves the classic proximity sweep untouched)
        self.router = None
        self.request_timeout = request_timeout
        self.retry_policy = retry_policy
        self._rng = rng
        self.history = OpHistory()
        metrics = get_obs(sim).metrics
        self._failover_counter = metrics.counter("client.failovers",
                                                 client=self.node.name)
        self._retry_counter = metrics.counter("client.retries",
                                              client=self.node.name)

    # -- attachment -----------------------------------------------------------
    def attach(self, instances: list[dict]) -> None:
        """Order the instance list by current network proximity."""
        def distance(info) -> float:
            return self.network.oneway_latency(
                self.host, info["node"].host, include_dynamics=False)
        self.instances = sorted(instances, key=distance)

    @property
    def closest(self) -> dict:
        if not self.instances:
            raise NoInstanceAvailableError("client has no instances attached")
        return self.instances[0]

    def _candidates_for(self, args: dict):
        """Candidate sweep order: the owning shard's instances when a
        router is installed and the operation is keyed, else all."""
        if self.router is not None:
            key = args.get("key")
            if key is not None:
                return self.router.candidates(key)
        if not self.instances:
            raise NoInstanceAvailableError("client has no instances attached")
        return self.instances

    # -- Table 2 API ----------------------------------------------------------
    def _op(self, method: str, args: dict) -> Generator:
        """One Table 2 call, booked in ``history`` however it ends.

        It calls the closest (owning) instance, failing over down the list,
        and retries the whole sweep with backoff when a retry policy is
        configured.  A ``WrongShardError`` redirect — the contacted shard
        runs a newer map epoch — refreshes the cached shard map and
        re-routes immediately without consuming a backoff attempt."""
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
                for info in self._candidates_for(args):
                    if info.get("down"):
                        continue
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
                    self.history.book(method, args["key"],
                                      result.get("version"), start, end)
                    result["latency"] = end - start
                    return result
                if redirected and self.router is not None \
                        and redirects < MAX_REDIRECTS:
                    redirects += 1
                    self.router.note_redirect()
                    yield from self.router.refresh()
                    continue
                attempt += 1
            raise NoInstanceAvailableError(
                f"all instances unreachable for {method}: {last_error}")
        except OP_ERRORS as exc:
            self.history.book(method, args["key"], None, start,
                              self.sim.now, type(exc).__name__)
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
