"""Tests for repro.obs: tracing, metrics, exporters, zero-cost guarantee."""

import json
import re

import pytest

from repro import (
    DynamicConsistencySpec,
    GlobalPolicySpec,
    RegionPlacement,
    build_deployment,
)
from repro.core import monitoring
from repro.core.monitoring import LatencyMonitor
from repro.net import EU_WEST, Network, US_EAST, US_WEST
from repro.obs import MetricsRegistry, NullTracer, chrome_trace_events, get_obs
from repro.obs.export import write_chrome_trace
from repro.obs.trace import NULL_SPAN
from repro.sim import Interrupt, Simulator
from repro.sim.rpc import RpcNode, call_with_timeout
from repro.tiera.policy import memory_only_policy
from repro.util.stats import percentile


def three_hop_world():
    """client -> relay -> store RPC chain across three regions."""
    sim = Simulator()
    tracer = get_obs(sim).enable_tracing()
    net = Network(sim)
    client = RpcNode(sim, net, net.add_host("client", US_WEST), name="client")
    relay = RpcNode(sim, net, net.add_host("relay", US_EAST), name="relay")
    store = RpcNode(sim, net, net.add_host("store", EU_WEST), name="store")

    def handle_store(msg):
        yield sim.timeout(0.002)
        return {"stored": msg.args["k"]}

    def handle_work(msg):
        result = yield relay.call(store, "store", {"k": msg.args["k"]})
        return result

    store.register("store", handle_store)
    relay.register("work", handle_work)
    return sim, tracer, client, relay, store


class TestSpanNesting:
    def test_multi_hop_rpc_spans_share_one_trace(self):
        sim, tracer, client, relay, store = three_hop_world()

        def main():
            result = yield client.call(relay, "work", {"k": "x"})
            return result

        p = sim.process(main())
        assert sim.run(until=p) == {"stored": "x"}

        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        outer = by_name["rpc:work"][0]
        handled = by_name["handle:work"][0]
        inner = by_name["rpc:store"][0]
        leaf = by_name["handle:store"][0]
        # one request, one trace — across three nodes and two RPC hops
        assert {s.trace_id for s in (outer, handled, inner, leaf)} \
            == {outer.trace_id}
        # ancestry: handle:store <- rpc:store <- handle:work <- rpc:work
        assert leaf.parent_id == inner.span_id
        assert inner.parent_id == handled.span_id
        assert handled.parent_id == outer.span_id
        assert outer.parent_id is None
        # each child runs inside its parent's sim-time interval
        for child, parent in ((leaf, inner), (inner, handled),
                              (handled, outer)):
            assert parent.start <= child.start
            assert child.end <= parent.end

    def test_network_transmits_nest_under_rpc(self):
        sim, tracer, client, relay, store = three_hop_world()

        def main():
            yield client.call(relay, "work", {"k": "x"})

        p = sim.process(main())
        sim.run(until=p)
        transmits = [s for s in tracer.spans if s.cat == "net"]
        assert len(transmits) == 4  # two hops, request + reply each
        rpc_ids = {s.span_id for s in tracer.spans if s.cat == "rpc"}
        assert all(t.parent_id in rpc_ids for t in transmits)

    def test_concurrent_requests_get_distinct_traces(self):
        sim, tracer, client, relay, store = three_hop_world()

        def main():
            calls = [client.call(relay, "work", {"k": f"k{i}"})
                     for i in range(3)]
            for call in calls:
                yield call

        p = sim.process(main())
        sim.run(until=p)
        roots = [s for s in tracer.spans if s.name == "rpc:work"]
        assert len({s.trace_id for s in roots}) == 3

    def test_span_records_handler_error(self):
        sim = Simulator()
        tracer = get_obs(sim).enable_tracing()
        net = Network(sim)
        a = RpcNode(sim, net, net.add_host("a", US_EAST), name="a")
        b = RpcNode(sim, net, net.add_host("b", US_WEST), name="b")

        def boom(msg):
            yield sim.timeout(0.0)
            raise ValueError("nope")

        b.register("boom", boom)

        def main():
            with pytest.raises(ValueError):
                yield a.call(b, "boom")

        p = sim.process(main())
        sim.run(until=p)
        handled = [s for s in tracer.spans if s.name == "handle:boom"]
        assert handled and "ValueError" in handled[0].args["error"]


def span_tree(tracer, root):
    """``root`` and everything below it, children in start order."""
    children = sorted((s for s in tracer.spans
                       if s.trace_id == root.trace_id
                       and s.parent_id == root.span_id),
                      key=lambda s: (s.start, s.span_id))
    # The Wiera service host is numbered per process, not per deployment.
    component = re.sub(r"wiera-\d+", "wiera", root.component)
    return (root.name, root.cat, component, root.start, root.end,
            [span_tree(tracer, child) for child in children])


def flatten(tree):
    yield tree
    for child in tree[5]:
        yield from flatten(child)


class TestInlineCallTracing:
    """``invoke`` runs the call body in the caller's process; the trace
    must not be able to tell."""

    @staticmethod
    def traced_put(how):
        """One multi_primaries put under an application span, the client's
        RPC made through ``RpcNode.<how>``; returns that span's tree."""
        dep = build_deployment((US_EAST, US_WEST), seed=7, with_tracing=True)
        spec = GlobalPolicySpec(
            name="obs", consistency="multi_primaries",
            placements=(RegionPlacement(US_EAST, memory_only_policy()),
                        RegionPlacement(US_WEST, memory_only_policy())))
        instances = dep.start_wiera_instance("obs", spec)
        client = dep.add_client(US_WEST, instances=instances)
        tracer = dep.obs.tracer
        args = {"key": "k", "data": b"v" * 100, "tags": ()}

        def app():
            with tracer.span("app:put", cat="op", component="app") as span:
                target = client.route("k")[0]["node"]
                if how == "call":
                    yield client.node.call(target, "put", args)
                else:
                    yield from client.node.invoke(target, "put", args)
            return span
        return span_tree(tracer, dep.drive(app()))

    def test_inline_call_has_the_span_tree_of_a_spawned_call(self):
        spawned = self.traced_put("call")
        inline = self.traced_put("invoke")
        assert inline == spawned
        # ...and it is the whole tree: caller -> rpc -> handle -> the
        # lock round trips, the tier write, the broadcast to the peer.
        app, (rpc,) = spawned[0], spawned[5]
        assert (app, rpc[0]) == ("app:put", "rpc:put")
        (handle,) = [c for c in rpc[5] if c[1] == "rpc.server"]
        assert handle[0] == "handle:put"
        assert [c[0] for c in rpc[5]] \
            == ["net:transmit", "handle:put", "net:transmit"]
        below = [c[0] for c in handle[5]]
        assert below.count("rpc:replica_update") == 1
        assert {"rpc:holder", "rpc:acquire", "rpc:release"} <= set(below)
        cats = {node[1] for node in flatten(handle)}
        assert {"rpc", "rpc.server", "net", "storage", "lock"} <= cats

    @staticmethod
    def two_nodes():
        sim = Simulator()
        tracer = get_obs(sim).enable_tracing()
        net = Network(sim)
        a = RpcNode(sim, net, net.add_host("a", US_EAST), name="a")
        b = RpcNode(sim, net, net.add_host("b", US_WEST), name="b")

        def work(msg):
            with tracer.span("work:first", cat="work"):
                yield sim.timeout(0.010)
            with tracer.span("work:second", cat="work"):
                yield sim.timeout(0.010)
            return "done"

        b.register("work", work)
        return sim, tracer, a, b

    def test_invoke_parents_under_the_running_process(self):
        """The parent is whatever span the process is in when the call
        runs — nothing is captured when the call is built."""
        sim, tracer, a, b = self.two_nodes()

        def main():
            built_outside = a.invoke(b, "work")
            with tracer.span("app", cat="op") as app:
                yield from built_outside
            return app

        app = sim.run(until=sim.process(main()))
        (rpc,) = [s for s in tracer.spans if s.name == "rpc:work"]
        assert rpc.parent_id == app.span_id
        assert rpc.trace_id == app.trace_id

    def test_orphaned_body_closes_its_spans_where_they_belong(self):
        sim, tracer, a, b = self.two_nodes()
        after = []

        def main():
            with tracer.span("outer", cat="op") as outer:
                try:
                    with tracer.span("app", cat="op"):
                        yield from a.invoke(b, "work")
                except Interrupt:
                    pass
                # Back in the caller, the context is the caller's again.
                with tracer.span("after", cat="op") as span:
                    after.append(span.parent_id == outer.span_id)
                    yield sim.timeout(0.0)

        caller = sim.process(main())
        sim.run(until=0.040)         # request landed at 35 ms: mid work:first
        caller.interrupt()
        sim.run()
        assert after == [True]

        by_name = {s.name: s for s in tracer.spans}
        app, rpc, handle = (by_name[n] for n in
                            ("app", "rpc:work", "handle:work"))
        assert app.end == 0.040 and "Interrupt" in app.args["error"]
        # The body ran on: every span it opened is closed, at the time
        # the work really ended, and none records an error.
        assert rpc.end == pytest.approx(0.035 + 0.020 + 0.035)
        assert handle.end == pytest.approx(0.035 + 0.020)
        body = [s for s in tracer.spans if s.trace_id == rpc.trace_id
                and s.name not in ("outer", "app", "after")]
        assert sorted(s.name for s in body) == [
            "handle:work", "net:transmit", "net:transmit", "rpc:work",
            "work:first", "work:second"]
        assert not any("error" in s.args for s in body)
        # Spans opened after the hand-over still nest where they would
        # have: the handler's second step under the handler, the reply
        # under the rpc span.
        assert by_name["work:second"].parent_id == handle.span_id
        reply = max((s for s in body if s.name == "net:transmit"),
                    key=lambda s: s.start)
        assert reply.start == handle.end and reply.parent_id == rpc.span_id


class TestMetrics:
    def test_histogram_percentiles_match_reference(self):
        sim = Simulator()
        registry = MetricsRegistry(sim)
        hist = registry.histogram("latency", op="put")
        values = [(7 * i) % 100 / 10.0 for i in range(100)]
        for v in values:
            hist.observe(v)
        snap = hist.snapshot()
        for q in (50, 95, 99):
            assert snap[f"p{q}"] == percentile(values, q)
        assert snap["count"] == 100
        assert snap["min"] == min(values)
        assert snap["max"] == max(values)
        assert snap["p50"] <= snap["p95"] <= snap["p99"]

    def test_histogram_windowed_queries_use_sim_time(self):
        sim = Simulator()
        registry = MetricsRegistry(sim)
        hist = registry.histogram("h")
        hist.observe(5.0)

        def later():
            yield sim.timeout(10.0)
            hist.observe(1.0)

        p = sim.process(later())
        sim.run(until=p)
        assert hist.values_since(0.0) == [5.0, 1.0]
        assert hist.values_since(9.0) == [1.0]
        assert hist.max_since(9.0) == 1.0
        assert hist.max_since(11.0) is None

    def test_labels_separate_series(self):
        sim = Simulator()
        registry = MetricsRegistry(sim)
        registry.counter("ops", tier="mem").inc(2)
        registry.counter("ops", tier="disk").inc(3)
        assert registry.counter("ops", tier="mem").value == 2
        snap = registry.snapshot()
        assert snap["ops{tier=disk}"] == 3
        assert snap["ops{tier=mem}"] == 2

    def test_rpc_timeout_counted(self):
        sim = Simulator()
        net = Network(sim)
        a = RpcNode(sim, net, net.add_host("a", US_EAST), name="a")
        b = RpcNode(sim, net, net.add_host("b", US_WEST), name="b")

        def slow(msg):
            yield sim.timeout(60.0)

        b.register("slow", slow)

        def main():
            with pytest.raises(TimeoutError):
                yield from call_with_timeout(sim, a.call(b, "slow"), 1.0)

        p = sim.process(main())
        sim.run(until=p)
        assert get_obs(sim).metrics.counter("rpc.timeouts").value == 1


def tiny_deployment(with_tracing):
    dep = build_deployment((US_EAST, US_WEST), seed=7,
                           with_tracing=with_tracing)
    spec = GlobalPolicySpec(
        name="obs",
        placements=(RegionPlacement(US_EAST, memory_only_policy()),
                    RegionPlacement(US_WEST, memory_only_policy())),
        consistency="multi_primaries")
    instances = dep.start_wiera_instance("obs", spec)
    client = dep.add_client(US_WEST, instances=instances)

    def workload():
        for i in range(10):
            yield from client.put(f"k{i % 3}", b"v" * (100 + i))
            yield from client.get(f"k{i % 3}")
    dep.drive(workload())
    return dep, client


class TestZeroCostWhenDisabled:
    def test_disabled_tracer_is_noop(self):
        sim = Simulator()
        obs = get_obs(sim)
        assert isinstance(obs.tracer, NullTracer)
        assert obs.tracer.span("x", cat="y") is NULL_SPAN
        assert not obs.tracer.enabled

    def test_latencies_bit_identical_with_and_without_tracing(self):
        _, plain = tiny_deployment(with_tracing=False)
        dep, traced = tiny_deployment(with_tracing=True)
        assert list(plain.history.rows()) == list(traced.history.rows())
        # and the traced run actually recorded the request trees
        assert dep.obs.tracer.spans


class TestMonitorsOnRegistry:
    def test_latency_monitor_reads_shared_histograms(self):
        dep, client = tiny_deployment(with_tracing=False)
        tim = dep.tim("obs")
        monitor = LatencyMonitor(tim, DynamicConsistencySpec(op="put"))
        # the workload just ran, so app put samples are in the window
        signal = max(filter(None, (monitor._hist(iid).max_since(0.0)
                                   for iid in tim.instances)))
        recent = client.history.latencies("put")[-3:]
        assert signal == pytest.approx(max(recent), rel=1.0)

    def test_probe_timeouts_recorded(self, monkeypatch):
        monkeypatch.setattr(monitoring, "PROBE_TIMEOUT", 0.0001)
        dep, client = tiny_deployment(with_tracing=False)
        tim = dep.tim("obs")
        monitor = LatencyMonitor(tim, DynamicConsistencySpec())

        def probe():
            value = yield from monitor.probe_estimate()
            return value

        dep.drive(probe())
        assert monitor._timeout_counter.value > 0


class TestChromeExport:
    def test_trace_event_json_is_valid_and_nested(self, tmp_path):
        sim, tracer, client, relay, store = three_hop_world()

        def main():
            yield client.call(relay, "work", {"k": "x"})

        p = sim.process(main())
        sim.run(until=p)
        path = write_chrome_trace(tracer, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert all(e["ph"] in ("X", "M") for e in events)
        xs = [e for e in events if e["ph"] == "X"]
        assert xs and all(e["dur"] >= 0 and e["ts"] >= 0 for e in xs)
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert {"client", "relay", "store"} <= names
        # the handler event is time-contained in its rpc event
        by_name = {e["name"]: e for e in xs}
        outer, handled = by_name["rpc:work"], by_name["handle:work"]
        assert outer["ts"] <= handled["ts"]
        assert (handled["ts"] + handled["dur"]
                <= outer["ts"] + outer["dur"] + 1e-6)
        assert handled["args"]["parent_span_id"] == outer["args"]["span_id"]

    def test_unfinished_spans_are_skipped(self):
        sim = Simulator()
        tracer = get_obs(sim).enable_tracing()
        open_span = tracer.span("never-closed")
        done = tracer.span("done")
        done.finish()
        events = chrome_trace_events(tracer.spans + [open_span])
        assert [e["name"] for e in events if e["ph"] == "X"] == ["done"]
