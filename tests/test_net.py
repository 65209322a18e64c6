"""Tests for the network substrate: topology, links, dynamics."""

import pytest

from repro.net import (
    ASIA_EAST,
    EU_WEST,
    US_EAST,
    US_WEST,
    BandwidthLink,
    HostDownError,
    Network,
    NetworkError,
    Topology,
)
from repro.net.vmprofiles import VM_PROFILES, VmProfile, get_profile
from repro.sim import Simulator
from repro.util.units import KB, MB, MS


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    return Network(sim)


def transfer(sim, net, src, dst, nbytes):
    proc = sim.process(net.transmit(src, dst, nbytes))
    start = sim.now
    sim.run(until=proc)
    return sim.now - start


class TestTopology:
    def test_symmetric(self):
        topo = Topology()
        assert (topo.oneway(US_EAST, "aws", EU_WEST, "aws")
                == topo.oneway(EU_WEST, "aws", US_EAST, "aws"))

    def test_intra_dc_vs_cross_provider(self):
        topo = Topology()
        same = topo.oneway(US_EAST, "aws", US_EAST, "aws")
        cross = topo.oneway(US_EAST, "aws", US_EAST, "azure")
        assert same < cross

    def test_unknown_pair_raises(self):
        topo = Topology()
        with pytest.raises(KeyError):
            topo.oneway("mars", "aws", US_EAST, "aws")

    def test_override(self):
        topo = Topology({frozenset(("us-west-1", "us-west-2")): 5.0})
        assert topo.oneway("us-west-1", "aws", "us-west-2", "aws") == 0.005

    def test_paper_geometry(self):
        """EU West <-> Asia East RTT ~220 ms explains Table 3's 216 ms."""
        topo = Topology()
        assert topo.rtt(EU_WEST, "aws", ASIA_EAST, "aws") == pytest.approx(0.220)


class TestBandwidthLink:
    def test_transmission_time(self, sim):
        link = BandwidthLink(sim, rate=1 * MB)
        assert link.reserve(512 * KB) == pytest.approx(0.5)

    def test_serialization(self, sim):
        link = BandwidthLink(sim, rate=1 * MB)
        done = []

        def sender(tag):
            yield from link.transmit(1 * MB)
            done.append((tag, sim.now))

        sim.process(sender("a"))
        sim.process(sender("b"))
        sim.run()
        assert done == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]

    def test_infinite_rate_instant(self, sim):
        link = BandwidthLink(sim)

        def sender():
            yield from link.transmit(10 * MB)
            return sim.now

        p = sim.process(sender())
        assert sim.run(until=p) == 0.0

    def test_invalid_rate(self, sim):
        with pytest.raises(ValueError):
            BandwidthLink(sim, rate=0)


class TestNetworkTransfers:
    def test_wan_latency(self, sim, net):
        a = net.add_host("a", US_EAST)
        b = net.add_host("b", US_WEST)
        elapsed = transfer(sim, net, a, b, 100)
        assert elapsed == pytest.approx(35 * MS)

    def test_same_host_is_free(self, sim, net):
        a = net.add_host("a", US_EAST)
        assert transfer(sim, net, a, a, 10 * MB) == 0.0

    def test_nic_delay_applies(self, sim, net):
        a = net.add_host("a", US_EAST, vm="aws.t2_micro")
        b = net.add_host("b", US_WEST, vm="aws.t2_micro")
        nic = get_profile("aws.t2_micro").nic_delay
        elapsed = transfer(sim, net, a, b, 100)
        # plus the (tiny) egress serialization of 100 bytes
        assert elapsed == pytest.approx(35 * MS + 2 * nic, rel=1e-3)

    def test_duplicate_host_rejected(self, net):
        net.add_host("a", US_EAST)
        with pytest.raises(ValueError):
            net.add_host("a", US_WEST)

    def test_down_host_unreachable(self, sim, net):
        a = net.add_host("a", US_EAST)
        b = net.add_host("b", US_WEST)
        b.crash()

        def send():
            yield from net.transmit(a, b, 10)

        p = sim.process(send())
        with pytest.raises(HostDownError):
            sim.run(until=p)

    def test_recovery(self, sim, net):
        a = net.add_host("a", US_EAST)
        b = net.add_host("b", US_WEST)
        b.crash()
        b.recover()
        assert transfer(sim, net, a, b, 10) > 0


class TestDynamics:
    def test_injected_host_delay_window(self, sim, net):
        a = net.add_host("a", US_EAST)
        b = net.add_host("b", US_WEST)
        net.inject_host_delay(b, 0.5, start=10.0, duration=20.0)
        assert transfer(sim, net, a, b, 10) == pytest.approx(35 * MS)
        sim.run(until=15.0)
        assert transfer(sim, net, a, b, 10) == pytest.approx(0.5 + 35 * MS)
        sim.run(until=40.0)
        assert transfer(sim, net, a, b, 10) == pytest.approx(35 * MS)

    def test_pair_delay(self, sim, net):
        a = net.add_host("a", US_EAST)
        b = net.add_host("b", US_WEST)
        c = net.add_host("c", EU_WEST)
        net.inject_pair_delay(US_EAST, US_WEST, 0.2)
        assert transfer(sim, net, a, b, 10) == pytest.approx(0.2 + 35 * MS)
        assert transfer(sim, net, a, c, 10) == pytest.approx(40 * MS)

    def test_partition_and_heal(self, sim, net):
        a = net.add_host("a", US_EAST)
        b = net.add_host("b", US_WEST)
        net.partition(US_EAST, US_WEST, duration=100.0)

        def send():
            yield from net.transmit(a, b, 10)

        p = sim.process(send())
        with pytest.raises(NetworkError):
            sim.run(until=p)
        net.heal_partition(US_EAST, US_WEST)
        assert transfer(sim, net, a, b, 10) > 0


class TestVmProfiles:
    def test_all_profiles_valid(self):
        for name, profile in VM_PROFILES.items():
            assert profile.name == name
            assert profile.network_bw > 0

    def test_azure_disk_iops_flat_500(self):
        for name in ("azure.basic_a2", "azure.standard_d1",
                     "azure.standard_d2", "azure.standard_d3"):
            assert get_profile(name).disk_iops == 500

    def test_network_throttle_ordering(self):
        """Fig. 11's premise: small VMs have heavier NIC overhead."""
        a2 = get_profile("azure.basic_a2")
        d1 = get_profile("azure.standard_d1")
        d2 = get_profile("azure.standard_d2")
        assert a2.nic_delay > d1.nic_delay > d2.nic_delay
        assert a2.network_bw < d1.network_bw < d2.network_bw

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            get_profile("azure.mega")

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            VmProfile(name="bad", cpus=1, network_bw=-1,
                      nic_delay=0, disk_iops=1, cpu_factor=1)
