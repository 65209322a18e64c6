"""The dirty index resolves exactly what a full scan of the namespace did.

A ``dirty=True`` selector walks ``MetadataStore.dirty_keys`` instead of
every record.  These tests drive a write-back instance through generated
histories — puts of new and existing keys, replica updates of older
versions and same-version last-write-wins rewrites, removes of a key and
of its latest version (an older, dirty version becomes the latest),
``keep_versions`` GC, a host crash that wipes the memory tier, and flush
ticks — and after every step compare what each selector resolves with
:func:`full_scan`, the scan the index replaced.
"""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import Network, US_EAST
from repro.sim import Simulator
from repro.tiera import ObjectSelector, TieraInstance
from repro.tiera.policy import write_back_policy
from repro.tiera.responses import Response, ResponseContext
from repro.util.rng import RngRegistry

KEYS = ("a0", "b0")

SELECTORS = (
    ObjectSelector(location="tier1", dirty=True),   # the write-back flush
    ObjectSelector(dirty=True),
    ObjectSelector(dirty=True, key_prefix="a"),
    ObjectSelector(location="tier2", dirty=True),
    ObjectSelector(dirty=False),
    ObjectSelector(location="tier2"),
)

#: (op, key, version, newer?) — the last two are read by ``replica`` only:
#: the version it installs, and whether it is newer than a local copy of
#: that version
step = st.tuples(
    st.sampled_from(("put", "flush", "remove_latest", "replica", "remove",
                     "crash")),
    st.sampled_from(KEYS), st.integers(1, 6), st.booleans())


def full_scan(instance, selector):
    """Every version of every record in key order, kept when it is its
    record's latest and the selector matches it."""
    now = instance.sim.now
    return [(record.key, meta.version, id(meta))
            for record in instance.meta.records()
            for meta in list(record.versions.values())
            if meta.version == record.latest_version
            and selector.matches(record, meta, now)]


def resolved(instance, selector):
    return [(record.key, meta.version, id(meta)) for record, meta
            in Response()._targets(instance, selector, ResponseContext())]


def apply(instance, step):
    op, key, version, newer = step
    if op == "put":
        yield from instance.local_put(key, b"put")
    elif op == "replica":
        mtime = instance.sim.now + (1.0 if newer else -1.0)
        yield from instance.apply_replica_update(key, version, mtime,
                                                 b"replica", "peer")
    elif op == "remove":
        yield from instance.local_remove(key)
    elif op == "remove_latest":
        record = instance.meta.get_record(key)
        if record is not None:
            yield from instance.local_remove(key, record.latest_version)
    elif op == "flush":
        rule = instance.policy.timer_rules()[0]
        yield from instance._run_rule(rule, ResponseContext(event=rule.event))
    else:
        instance.on_host_crash()
        yield instance.sim.timeout(0)


@given(keep=st.sampled_from([None, 1, 2]),
       steps=st.lists(step, min_size=1, max_size=30))
# v1 and v2 dirty, the flush cleans v2 and the check prunes the key, then
# removing v2 leaves dirty v1 latest: only purge_version re-indexes it
@example(keep=None, steps=[("put", "a0", 1, True), ("put", "a0", 1, True),
                           ("flush", "a0", 1, True),
                           ("remove_latest", "a0", 1, True)])
@settings(max_examples=300)
def test_every_selector_resolves_what_the_full_scan_did(keep, steps):
    sim = Simulator()
    net = Network(sim)
    host = net.add_host("h", US_EAST, vm="aws.t2_micro")
    policy = replace(write_back_policy(), keep_versions=keep)
    instance = TieraInstance(sim, net, host, "i1", US_EAST, policy,
                             rng=RngRegistry(1))
    for i, current in enumerate(steps):
        sim.run(until=sim.process(apply(instance, current)))
        for selector in SELECTORS:
            assert resolved(instance, selector) == \
                full_scan(instance, selector), (i, current, selector)
    # The index holds live keys only.
    assert instance.meta.dirty_keys <= {
        record.key for record in instance.meta.records()}
