"""Figure 7: changing consistency at run time.

Setup (per §5.1): instances in US West, US East, EU West and Asia East
under the DynamicConsistency policy (MultiPrimaries initially; switch to
Eventual when put latency exceeds 800 ms for 30 s, and back once the
violation clears for 30 s).  YCSB workload A (update-heavy) clients run in
every region.  Three delays are injected into the US West instance: (a)
and (b) long enough to trip the period threshold, (c) transient.

Expected shape: ~400 ms MultiPrimaries puts; spikes while a delay is
active in strong mode; two switches to Eventual (puts drop below 10 ms)
and two switches back after the quiet period; delay (c) is ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.harness import build_deployment
from repro.bench.reporting import ExperimentReport
from repro.net.topology import ASIA_EAST, EU_WEST, US_EAST, US_WEST
from repro.policydsl import builtin_policy
from repro.util.units import MS
from repro.workloads.ycsb import YcsbClient, YcsbWorkload

REGIONS = (US_WEST, US_EAST, EU_WEST, ASIA_EAST)

#: (offset from workload start, injected one-way delay, duration)
DELAYS = ((60.0, 0.15, 60.0),     # (a) long: trips the 30 s period
          (200.0, 0.15, 45.0),    # (b) long: trips the 30 s period
          (330.0, 0.15, 10.0))    # (c) transient: must be ignored


@dataclass
class Fig7Result:
    switch_log: list = field(default_factory=list)   # (t, from, to, done)
    windows: list = field(default_factory=list)      # (t0, t1, n, mean, max)
    strong_baseline_ms: float = 0.0
    eventual_ms: float = 0.0
    t0: float = 0.0


def run_fig7(duration: float = 420.0, seed: int = 0,
             record_count: int = 50, window: float = 30.0) -> tuple:
    dep = build_deployment(REGIONS, seed=seed)
    spec = builtin_policy("DynamicConsistency")
    instances = dep.start_wiera_instance("fig7", spec)

    workload = YcsbWorkload.workload_a(record_count=record_count,
                                       value_size=1024)
    ycsb_clients = []
    for region in REGIONS:
        client = dep.add_client(region, instances=instances,
                                name=f"app-{region}")
        ycsb_clients.append(YcsbClient(
            dep.sim, client, workload, dep.rng.stream(f"ycsb-{region}"),
            think_time=0.5))

    def load():
        yield from ycsb_clients[0].load(record_count)
    dep.drive(load())

    t0 = dep.sim.now
    for yc in ycsb_clients:
        yc.start()
    # Inject delays on the US West instance's WAN paths ("delays into an
    # instance to simulate network or storage delay", §5.1): strong puts
    # pay them on lock + broadcast, while local eventual puts do not.
    for offset, extra, dur in DELAYS:
        for other in REGIONS:
            if other != US_WEST:
                dep.network.inject_pair_delay(US_WEST, other, extra,
                                              start=t0 + offset,
                                              duration=dur)
    dep.sim.run(until=t0 + duration)
    for yc in ycsb_clients:
        yc.stop()

    result = Fig7Result(t0=t0)
    tim = dep.tim("fig7")
    result.switch_log = [(t - t0, frm, to, done - t0)
                         for (t, frm, to, done) in tim.switch_log]
    history = dep.clients[f"app-{US_WEST}"].history
    for w0 in range(0, int(duration), int(window)):
        vals = history.latencies("put", t0 + w0, t0 + w0 + window)
        if vals:
            result.windows.append(
                (w0, w0 + window, len(vals),
                 sum(vals) / len(vals), max(vals)))
    baseline = history.latencies("put", t0, t0 + 30.0)
    result.strong_baseline_ms = (sum(baseline) / len(baseline) / MS
                                 if baseline else 0.0)
    eventual_samples = []
    for (t_sw, frm, to, done) in tim.switch_log:
        if to == "eventual":
            eventual_samples.extend(
                history.latencies("put", done + 1.0, done + 20.0))
    result.eventual_ms = (sum(eventual_samples) / len(eventual_samples) / MS
                          if eventual_samples else 0.0)

    report = ExperimentReport(
        exp_id="fig7",
        title="Changing consistency at run-time (US West put latency)",
        columns=["window (s)", "puts", "mean (ms)", "max (ms)"],
        paper_claim=("~400 ms MultiPrimaries baseline; delays (a),(b) trip "
                     "the 800 ms/30 s threshold -> Eventual (<10 ms); "
                     "transient delay (c) ignored; switches back after the "
                     "quiet period"))
    for (w0, w1, n, mean, mx) in result.windows:
        report.add_row(f"{int(w0)}-{int(w1)}", n, mean / MS, mx / MS)
    report.notes = ("switches: "
                    + "; ".join(f"t={t:.0f}s {frm}->{to}"
                                for (t, frm, to, _) in result.switch_log)
                    + f" | strong baseline {result.strong_baseline_ms:.0f} ms,"
                    f" eventual {result.eventual_ms:.1f} ms")
    return result, report
