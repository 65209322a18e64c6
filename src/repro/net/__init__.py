"""Simulated wide-area network substrate.

Models the inter-region WAN the paper's evaluation ran over: a one-way
propagation-latency matrix between cloud regions (AWS + Azure), per-VM-size
NIC delays and egress bandwidth throttles (Azure throttles network
performance by VM type, which drives Figs. 11-12), and runtime dynamics —
injected delays, host failures and partitions (which drive Fig. 7).
"""

from repro.net.topology import (
    ASIA_EAST,
    EU_WEST,
    REGIONS,
    US_EAST,
    US_WEST,
    DEFAULT_ONEWAY_MS,
    Topology,
)
from repro.net.link import BandwidthLink
from repro.net.vmprofiles import VM_PROFILES, VmProfile
from repro.net.network import Host, Network, NetworkError, HostDownError

__all__ = [
    "Topology",
    "REGIONS",
    "US_EAST",
    "US_WEST",
    "EU_WEST",
    "ASIA_EAST",
    "DEFAULT_ONEWAY_MS",
    "BandwidthLink",
    "VmProfile",
    "VM_PROFILES",
    "Network",
    "Host",
    "NetworkError",
    "HostDownError",
]
