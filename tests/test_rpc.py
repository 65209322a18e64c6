"""Tests for the RPC layer (the Thrift substitute)."""

import pytest
from hypothesis import given, strategies as st

from repro import GlobalPolicySpec, RegionPlacement, build_deployment
from repro.net import HostDownError, Network, US_EAST, US_WEST
from repro.obs.api import get_obs
from repro.sim import Interrupt, Simulator
from repro.sim.rpc import (
    BATCH_METHOD,
    NoSuchMethodError,
    RpcNode,
    call_with_timeout,
    request_size,
    response_size,
    split_batches,
)
from repro.tiera.policy import memory_only_policy
from repro.util.units import MS


def counted(node: RpcNode, name: str) -> int:
    """``node``'s count of ``name`` in the metrics registry."""
    return get_obs(node.sim).metrics.counter(name, node=node.name).value


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim)
    a = RpcNode(sim, net, net.add_host("a", US_EAST), name="a")
    b = RpcNode(sim, net, net.add_host("b", US_WEST), name="b")
    return sim, net, a, b


def test_round_trip_latency_and_result(world):
    sim, net, a, b = world

    def echo(msg):
        yield sim.timeout(0.001)
        return {"echo": msg.args["x"]}

    b.register("echo", echo)

    def main():
        t0 = sim.now
        result = yield a.call(b, "echo", {"x": 5})
        return result, sim.now - t0

    p = sim.process(main())
    result, elapsed = sim.run(until=p)
    assert result == {"echo": 5}
    assert elapsed == pytest.approx(2 * 35 * MS + 0.001)


def test_handler_must_be_generator(world):
    _, _, _, b = world
    with pytest.raises(TypeError):
        b.register("bad", lambda msg: 42)


def test_no_such_method(world):
    sim, net, a, b = world

    def main():
        yield a.call(b, "missing")

    p = sim.process(main())
    with pytest.raises(NoSuchMethodError):
        sim.run(until=p)


def test_remote_exception_propagates(world):
    sim, net, a, b = world

    def boom(msg):
        yield sim.timeout(0.0)
        raise ValueError("remote failure")

    b.register("boom", boom)

    def main():
        try:
            yield a.call(b, "boom")
        except ValueError as exc:
            return str(exc)

    p = sim.process(main())
    assert sim.run(until=p) == "remote failure"


def test_down_destination_raises(world):
    sim, net, a, b = world
    def noop(msg):
        yield sim.timeout(0.0)

    b.register("noop", noop)
    b.host.crash()

    def main():
        yield a.call(b, "noop")

    p = sim.process(main())
    with pytest.raises(HostDownError):
        sim.run(until=p)


def test_oneway_swallows_errors(world):
    sim, net, a, b = world
    b.host.crash()
    a.send_oneway(b, "anything")
    sim.run()  # must not raise
    assert counted(a, "rpc.dropped_oneways") == 1


def test_oneway_executes_handler(world):
    sim, net, a, b = world
    seen = []

    def note(msg):
        yield sim.timeout(0.0)
        seen.append(msg.args["v"])

    b.register("note", note)
    a.send_oneway(b, "note", {"v": 9})
    sim.run()
    assert seen == [9]


def test_payload_size_affects_latency(world):
    sim, net, a, b = world
    a.host.egress.rate = 1024 * 1024  # 1 MB/s

    def sink(msg):
        yield sim.timeout(0.0)
        return None

    b.register("sink", sink)

    def timed(nbytes):
        def main():
            t0 = sim.now
            yield a.call(b, "sink", {"data": bytes(nbytes)})
            return sim.now - t0
        return main

    p1 = sim.process(timed(1024)())
    small = sim.run(until=p1)
    p2 = sim.process(timed(1024 * 512)())
    large = sim.run(until=p2)
    assert large > small + 0.4  # 512 KB at 1 MB/s adds ~0.5 s


# -- wire size: one rule for every message ---------------------------------

@pytest.mark.parametrize("method, base", [("replica_update", 512),
                                          ("forward_put", 512),
                                          ("check_readable", 64),
                                          ("finalise", 64),
                                          ("get", 256)])
def test_request_is_its_method_base_plus_what_it_carries(method, base):
    assert request_size(method, {"key": "k", "version": 3}) == base
    assert request_size(method, {"key": "k", "data": bytes(100)}) \
        == base + 100
    assert request_size(method, {"items": [("k", 1)] * 3}) == base + 3 * 16


def test_an_ec_prewrite_is_one_base_over_its_fragment_and_manifest():
    """An EC pre-write carries a holder's fragment and the manifest under
    one 512 B base: the two ``replica_update`` entries it replaced, less
    one base."""
    args = {"key": "k", "index": 1, "version": 3, "last_modified": 2.0,
            "origin": "o", "data": bytes(100), "manifest": bytes(40)}
    assert request_size("ec_prewrite", args) == 512 + 100 + 40
    pair = [("replica_update", {"key": "k#ecf1", "data": bytes(100)}),
            ("replica_update", {"key": "k", "data": bytes(40)})]
    assert (request_size(BATCH_METHOD, {"entries": [("ec_prewrite", args)]})
            == request_size(BATCH_METHOD, {"entries": pair}) - 512)


def test_a_remap_is_an_envelope_plus_64_bytes_per_delta():
    """A repair round's remap request costs what the batch of one
    ``manifest_remap`` entry per delta it replaced cost: an envelope plus
    64 B per delta, and an envelope and a body back."""
    delta = {"key": "k", "version": 1, "remap": {"1": "x"},
             "last_modified": 2.0}
    for n in (0, 1, 512):
        args = {"items": [delta] * n, "origin": "o"}
        assert request_size("manifest_remap", args) == 256 + 64 * n
    assert response_size("manifest_remap",
                         {"results": [{"applied": True}] * 3}) == 256 + 64


def test_reply_is_an_envelope_plus_its_top_level_data():
    assert response_size("stats", None) == 256
    assert response_size("stats", {"objects": 2}) == 256 + 64
    assert response_size("get", {"data": bytes(1000), "version": 1}) \
        == 256 + 64 + 1000


def test_batch_is_one_envelope_over_its_entries():
    entries = [("replica_update", {"key": "a", "data": bytes(10)}),
               ("replica_remove", {"key": "b", "version": 1}),
               ("check_readable", {"items": [("a", 1), ("b", 2)]})]
    assert request_size(BATCH_METHOD, {"entries": entries}) \
        == 256 + (512 + 10) + 256 + (64 + 2 * 16)
    results = [{"ok": True, "result": {"data": bytes(100), "version": 1}},
               {"ok": False, "error": "KeyError('b')"},
               {"ok": True, "result": None},
               {"ok": True, "result": {"applied": True}}]
    assert response_size(BATCH_METHOD, results) == 256 + 64 + 100


def test_the_wire_carries_exactly_the_rule(world):
    sim, net, a, b = world
    wire = get_obs(sim).metrics.counter("net.bytes")

    def echo(msg):
        yield sim.timeout(0.0)
        return {"data": msg.args["data"][:100]}

    b.register("echo", echo)
    b.register("replica_update", echo)
    args = {"key": "k", "data": bytes(1000)}
    entries = [("replica_update", args), ("echo", args)]
    for main, sent in ((lambda: a.call(b, "echo", args), 1256 + 420),
                       (lambda: a.call_batch(b, entries),
                        256 + 1512 + 1256 + 320 + 200)):
        before = wire.value
        sim.run(until=main())
        assert wire.value - before == sent


_ENTRY = st.tuples(
    st.sampled_from(["replica_update", "replica_remove", "check_readable",
                     "manifest_remap"]),
    st.fixed_dictionaries({}, optional={
        "data": st.binary(max_size=600),
        "items": st.lists(st.tuples(st.just("k"), st.integers(1, 3)),
                          max_size=8)}))


@given(entries=st.lists(_ENTRY, max_size=30), data=st.data())
def test_split_batches_cuts_in_order_within_the_bound(entries, data):
    # A bound at a prefix sum is the edge case: a batch that fills it
    # exactly still holds the entry that fills it.  0 is the first one.
    prefixes = [sum(request_size(*entry) for entry in entries[:i])
                for i in range(len(entries) + 1)]
    max_bytes = data.draw(st.one_of(st.sampled_from(prefixes),
                                    st.integers(0, 3000)))
    batches = split_batches(entries, max_bytes)
    assert [entry for batch in batches for entry in batch] == entries
    sizes = [[request_size(*entry) for entry in batch] for batch in batches]
    for i, batch in enumerate(sizes):
        assert batch
        assert len(batch) == 1 or sum(batch) <= max_bytes
        if max_bytes == 0:
            assert len(batch) == 1
        if i + 1 < len(sizes):
            # A batch closes only when the next entry would overflow it.
            assert sum(batch) + sizes[i + 1][0] > max_bytes


def test_call_with_timeout_success(world):
    sim, net, a, b = world

    def quick(msg):
        yield sim.timeout(0.001)
        return "fast"

    b.register("quick", quick)

    def main():
        result = yield from call_with_timeout(sim, a.call(b, "quick"), 10.0)
        return result

    p = sim.process(main())
    assert sim.run(until=p) == "fast"


def test_call_with_timeout_expires(world):
    sim, net, a, b = world

    def slow(msg):
        yield sim.timeout(60.0)
        return "late"

    b.register("slow", slow)

    def main():
        try:
            yield from call_with_timeout(sim, a.call(b, "slow"), 1.0)
        except TimeoutError:
            return "timed out"

    p = sim.process(main())
    assert sim.run(until=p) == "timed out"
    sim.run()  # the late reply must not crash the simulation


def test_call_with_timeout_stopped_then_failing_late(world):
    """The waiter is stopped while the call is racing its deadline, and
    then the destination dies under the request: nobody waits on that
    failure any more, so it must not raise out of ``sim.run``."""
    sim, net, a, b = world

    def slow(msg):
        yield sim.timeout(10.0)

    b.register("slow", slow)

    def main():
        yield from call_with_timeout(sim, a.call(b, "slow"), 60.0)

    proc = sim.process(main())
    sim.run(until=1.0)
    proc.interrupt("stop")
    b.host.crash()
    sim.run()
    assert proc.ok and proc.value is None
    assert sim.now < 11.0   # the reply's failure; the deadline was cancelled


def test_requests_served_counter(world):
    sim, net, a, b = world
    def noop(msg):
        yield sim.timeout(0.0)

    b.register("noop", noop)

    def main():
        for _ in range(3):
            yield a.call(b, "noop")

    p = sim.process(main())
    sim.run(until=p)
    assert counted(b, "rpc.requests_served") == 3


# -- invoke: the same call, run inside the calling process -----------------

def test_invoke_is_call_without_the_process_pair(world):
    sim, net, a, b = world
    sent = get_obs(sim).metrics.counter("net.messages")

    def echo(msg):
        yield sim.timeout(0.001)
        return {"echo": msg.args["x"]}

    b.register("echo", echo)

    def via_call():
        t0 = sim.now
        result = yield a.call(b, "echo", {"x": 5, "data": bytes(3840)})
        return result, sim.now - t0

    def via_invoke():
        t0 = sim.now
        result = yield from a.invoke(b, "echo",
                                     {"x": 5, "data": bytes(3840)})
        return result, sim.now - t0

    outcomes, events, messages = [], [], []
    for main in (via_call, via_invoke):
        before = sim.events_processed, sent.value
        outcomes.append(sim.run(until=sim.process(main())))
        events.append(sim.events_processed - before[0])
        messages.append(sent.value - before[1])
    assert outcomes[0] == outcomes[1]
    assert messages == [2, 2]
    assert events[0] - events[1] == 1       # the call's watched finish
    assert counted(b, "rpc.requests_served") == 2


def test_invoke_raises_at_the_yield_from(world):
    sim, net, a, b = world

    def boom(msg):
        yield sim.timeout(0.0)
        raise ValueError("remote failure")

    b.register("boom", boom)

    def main(method):
        try:
            yield from a.invoke(b, method)
        except (ValueError, NoSuchMethodError, HostDownError) as exc:
            return type(exc)

    assert sim.run(until=sim.process(main("boom"))) is ValueError
    assert sim.run(until=sim.process(main("missing"))) is NoSuchMethodError
    b.host.crash()
    assert sim.run(until=sim.process(main("boom"))) is HostDownError


# -- the interrupt contract, on a us-west -> us-east put -------------------
#
# The put's request is in flight until +35.15 ms, the handler writes the
# tier and the metadata until +35.53 ms, the reply lands at +70.69 ms.

def _far_put_deployment():
    dep = build_deployment([US_EAST, US_WEST], seed=7)
    spec = GlobalPolicySpec(
        name="far", consistency="eventual", queue_interval=3600.0,
        placements=(RegionPlacement(US_EAST, memory_only_policy()),))
    instances = dep.start_wiera_instance("far", spec)
    client = dep.add_client(US_WEST, instances=instances, name="app")
    return dep, client, dep.instance("far", US_EAST)


def _interrupt_put_at(dep, client, offset):
    """Interrupt an application blocked in ``client.put`` ``offset``
    seconds into it; returns (put start, [(time, cause) seen])."""
    sim = dep.sim
    seen = []

    def app():
        try:
            yield from client.put("key", b"payload")
        except Interrupt as exc:
            seen.append((sim.now, exc.cause))

    start = sim.now
    proc = sim.process(app())
    sim.run(until=start + offset)
    assert proc.is_alive
    proc.interrupt("stop")
    return start, seen


@pytest.mark.parametrize("offset_ms", [1.0, 20.0, 35.5])
def test_orphaned_call_failing_late_does_not_stop_the_simulation(offset_ms):
    """The caller is gone and then the destination dies under the
    orphaned request (in flight, or mid-handler with the reply still to
    send): nobody waits on that failure, so it must not raise out of
    ``sim.run``."""
    dep, client, instance = _far_put_deployment()
    start, seen = _interrupt_put_at(dep, client, offset_ms * MS)
    instance.host.crash()
    dep.sim.run(until=start + 1.0)
    assert seen == [(start + offset_ms * MS, "stop")]


@pytest.mark.parametrize("offset_ms", [
    0.0, 1.0, 20.0, 35.0,       # request in flight
    35.2, 35.4, 35.5,           # handler: tier write, metadata write
    35.6, 50.0, 70.0])          # reply in flight
def test_interrupted_caller_stops_at_once_and_the_put_completes(offset_ms):
    dep, client, instance = _far_put_deployment()
    served = counted(instance.node, "rpc.requests_served")
    start, seen = _interrupt_put_at(dep, client, offset_ms * MS)
    dep.sim.run(until=start + 1.0)
    assert seen == [(start + offset_ms * MS, "stop")]
    data, meta, _ = dep.drive(instance.read_version("key"))
    assert (data, meta.version) == (b"payload", 1)
    assert counted(instance.node, "rpc.requests_served") == served + 1
