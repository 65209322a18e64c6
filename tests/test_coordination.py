"""Tests for the global lock service and Curator-like client."""

import pytest

from repro.coordination import GlobalLockClient, LockService
from repro.coordination.lock_service import LockServiceError
from repro.net import Network, US_EAST, US_WEST
from repro.sim import Simulator
from repro.sim.rpc import RpcNode
from repro.util.units import MS


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim)
    zk_node = RpcNode(sim, net, net.add_host("zk", US_EAST), name="zk")
    service = LockService(sim, zk_node, default_lease=30.0)
    a = RpcNode(sim, net, net.add_host("a", US_WEST), name="a")
    b = RpcNode(sim, net, net.add_host("b", US_WEST), name="b")
    return sim, service, zk_node, a, b


def test_acquire_release(world):
    sim, service, zk, a, b = world
    client = GlobalLockClient(a, zk, handshake=False)

    def main():
        yield from client.acquire("key")
        assert service.held_keys() == ["key"]
        yield from client.release("key")

    sim.run(until=sim.process(main()))
    assert service.held_keys() == []
    assert service.grants == 1 and service.releases == 1


def test_mutual_exclusion_fifo(world):
    sim, service, zk, a, b = world
    ca = GlobalLockClient(a, zk, owner="ca", handshake=False)
    cb = GlobalLockClient(b, zk, owner="cb", handshake=False)
    trace = []

    def worker(client, tag, hold):
        yield from client.acquire("key")
        trace.append((tag, "in", sim.now))
        yield sim.timeout(hold)
        trace.append((tag, "out", sim.now))
        yield from client.release("key")

    sim.process(worker(ca, "a", 2.0))
    sim.process(worker(cb, "b", 1.0))
    sim.run()
    # a entered first (FIFO by arrival) and b waited for a's release.
    assert [t[0] + t[1] for t in trace] == ["ain", "aout", "bin", "bout"]
    b_in = next(t for t in trace if t[0] == "b" and t[1] == "in")[2]
    a_out = next(t for t in trace if t[0] == "a" and t[1] == "out")[2]
    assert b_in >= a_out


def test_reentrant_acquire(world):
    sim, service, zk, a, b = world
    client = GlobalLockClient(a, zk, handshake=False)

    def main():
        yield from client.acquire("key")
        result = yield from client.acquire("key")
        return result

    result = sim.run(until=sim.process(main()))
    assert result.get("reentrant") is True


def test_release_by_non_holder_fails(world):
    sim, service, zk, a, b = world
    ca = GlobalLockClient(a, zk, owner="ca", handshake=False)
    cb = GlobalLockClient(b, zk, owner="cb", handshake=False)

    def main():
        yield from ca.acquire("key")
        cb.held.add("key")  # forged client state
        try:
            yield from cb.release("key")
        except LockServiceError:
            return "denied"

    assert sim.run(until=sim.process(main())) == "denied"


def test_lease_expiry_reclaims_lock(world):
    sim, service, zk, a, b = world
    ca = GlobalLockClient(a, zk, owner="ca", lease=5.0, handshake=False)
    cb = GlobalLockClient(b, zk, owner="cb", handshake=False)
    granted = []

    def crasher():
        yield from ca.acquire("key")
        ca.held.clear()  # crash without releasing

    def waiter():
        yield sim.timeout(0.5)
        yield from cb.acquire("key")
        granted.append(sim.now)
        yield from cb.release("key")

    sim.process(crasher())
    sim.process(waiter())
    sim.run()
    assert service.expirations == 1
    assert granted and granted[0] >= 5.0


def test_renew_extends_lease(world):
    sim, service, zk, a, b = world
    ca = GlobalLockClient(a, zk, owner="ca", lease=5.0, handshake=False)
    still_held = []

    def holder():
        yield from ca.acquire("key")
        for _ in range(3):
            yield sim.timeout(4.0)
            yield from ca.renew("key")
        still_held.append(service.held_keys())
        yield from ca.release("key")

    sim.run(until=sim.process(holder()))
    assert still_held == [["key"]]
    assert service.expirations == 0


def test_lock_latency_includes_wan_rtt(world):
    """MultiPrimaries pays lock RTTs — the Fig. 7 latency driver."""
    sim, service, zk, a, b = world
    client = GlobalLockClient(a, zk, handshake=True)

    def main():
        t0 = sim.now
        yield from client.acquire("key")
        return sim.now - t0

    elapsed = sim.run(until=sim.process(main()))
    # handshake + acquire = two US West <-> US East round trips (70 ms each)
    assert elapsed >= 2 * 2 * 35 * MS


def test_release_without_hold_is_client_error(world):
    sim, service, zk, a, b = world
    client = GlobalLockClient(a, zk, handshake=False)

    def main():
        yield from client.release("never")

    p = sim.process(main())
    with pytest.raises(RuntimeError):
        sim.run(until=p)
