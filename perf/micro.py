"""Each layer in isolation: direct calls into public functions.

The in-situ numbers (``layers.py``) say what a layer costs inside a
workload; these say how fast the same layer runs alone, so a change can
be measured both ways (the Anna habit).  Every micro is a fixed amount
of work, timed ``REPEATS`` times; the reported rate is the median.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from repro.ec.codec import Codec
from repro.load.arrivals import PoissonProcess, constant_rate
from repro.net.network import Network
from repro.obs.api import get_obs
from repro.shard.map import ShardMap
from repro.shard.ring import HashRing
from repro.sim.kernel import Simulator
from repro.sim.rpc import RpcNode
from repro.storage.memory import MemoryTier
from repro.workloads.ycsb import YcsbWorkload

REPEATS = 5
EC_K, EC_N, EC_SIZE = 4, 6, 65536


def _kernel(n: int) -> int:
    """Timer + resume churn: ``n`` events through 50 processes."""
    sim = Simulator()
    done = sim.event()
    done.succeed(None)
    sim.run()       # `done` is processed: waiting on it takes the resume path
    procs = 50

    def worker(i):
        delay = 0.001 + (i % 7) * 0.0013
        for _ in range(n // (2 * procs)):
            yield sim.timeout(delay)
            yield done

    for i in range(procs):
        sim.process(worker(i))
    sim.run()
    return sim.events_processed


def _rpc(n: int) -> int:
    """``n`` sequential calls between two RpcNodes in one region."""
    sim = Simulator()
    net = Network(sim)
    a = RpcNode(sim, net, net.add_host("a", "us-east"))
    b = RpcNode(sim, net, net.add_host("b", "us-east"))

    def echo(msg):
        yield from ()       # handlers must be generator functions
        return msg.args

    b.register("echo", echo)

    def caller():
        for i in range(n):
            yield a.call(b, "echo", {"i": i})

    sim.run(until=sim.process(caller()))
    return n


def _net(n: int) -> int:
    """``n`` 4 KB ``Network.transmit`` calls, no faults scheduled."""
    sim = Simulator()
    net = Network(sim)
    src, dst = net.add_host("a", "us-east"), net.add_host("b", "us-west")

    def sender():
        for _ in range(n):
            yield from net.transmit(src, dst, 4096)

    sim.run(until=sim.process(sender()))
    return n


def _storage(n: int) -> int:
    """``n`` put+get pairs of 4 KB on a memory backend."""
    sim = Simulator()
    tier = MemoryTier(sim, "memcached", 1 << 30, name="micro")
    data = bytes(4096)

    def client():
        for i in range(n):
            key = f"k{i % 512}"
            yield from tier.write(key, data)
            yield from tier.read(key)

    sim.run(until=sim.process(client()))
    return 2 * n


def _shard(n: int) -> int:
    """``ShardMap.owner`` over 10k keys, 8 shards."""
    shard_map = ShardMap(epoch=1,
                         ring=HashRing([f"s{i}" for i in range(8)]))
    keys = [f"user{i}" for i in range(10_000)]
    for i in range(n):
        shard_map.owner(keys[i % len(keys)])
    return n


def _ec_fragments():
    data = np.random.default_rng(0).bytes(EC_SIZE)
    return data, Codec.encode(data, EC_K, EC_N)


def _ec_encode(n: int) -> float:
    data, _ = _ec_fragments()
    for _ in range(n):
        Codec.encode(data, EC_K, EC_N)
    return n * EC_SIZE / 1e6


def _ec_decode(n: int) -> float:
    """Degraded decode: data fragment 1 lost, parity 4 stands in."""
    data, frags = _ec_fragments()
    have = {i: frags[i] for i in (0, 2, 3, 4)}
    for _ in range(n):
        out = Codec.decode(have, EC_K, EC_N, EC_SIZE)
    assert out == data
    return n * EC_SIZE / 1e6


def _ec_rebuild(n: int) -> float:
    data, frags = _ec_fragments()
    have = {i: frags[i] for i in (0, 2, 3, 4, 5)}
    for _ in range(n):
        out = Codec.rebuild(have, EC_K, EC_N, EC_SIZE, 1)
    assert out == frags[1]
    return n * EC_SIZE / 1e6


def _obs(n: int) -> int:
    hist = get_obs(Simulator()).metrics.histogram("micro.latency")
    for i in range(n):
        hist.observe(i * 1e-6)
    return n


def _load(n: int) -> int:
    arrivals = PoissonProcess()
    rate_fn, peak = constant_rate(2000.0)
    arrivals.bind(np.random.default_rng(0), rate_fn, peak)
    t = 0.0
    for _ in range(n):
        dt, _ = arrivals.next_event(t)
        t += dt
    return n


def _workloads(n: int) -> int:
    rng = np.random.default_rng(0)
    workload = YcsbWorkload(record_count=2000, value_size=1024)
    chooser = workload.chooser(rng)
    for _ in range(n):
        workload.key(chooser.next())
        workload.value(rng)
    return n


#: metric name -> (function, work size, quick work size)
MICROS = {
    "sim.kernel.micro_events_per_s": (_kernel, 200_000, 20_000),
    "sim.rpc.micro_calls_per_s": (_rpc, 10_000, 1_000),
    "net.micro_transmits_per_s": (_net, 20_000, 2_000),
    "storage.micro_ops_per_s": (_storage, 20_000, 2_000),
    "shard.micro_lookups_per_s": (_shard, 100_000, 10_000),
    "ec.micro_encode_mb_per_s": (_ec_encode, 40, 4),
    "ec.micro_decode_mb_per_s": (_ec_decode, 40, 4),
    "ec.micro_rebuild_mb_per_s": (_ec_rebuild, 100, 10),
    "obs.micro_observes_per_s": (_obs, 200_000, 20_000),
    "load.micro_arrivals_per_s": (_load, 100_000, 10_000),
    "workloads.micro_ops_per_s": (_workloads, 10_000, 1_000),
}


def run_micros(quick: bool = False) -> dict:
    out = {}
    for name, (fn, size, quick_size) in MICROS.items():
        rates = []
        for _ in range(1 if quick else REPEATS):
            start = time.perf_counter()
            work = fn(quick_size if quick else size)
            rates.append(work / (time.perf_counter() - start))
        out[name] = median(rates)
    return out


if __name__ == "__main__":
    for metric, rate in run_micros().items():
        print(f"{metric:36s} {rate:14.1f}")
