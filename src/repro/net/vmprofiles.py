"""VM instance-type profiles.

The paper's §5.4 experiments hinge on two provider-imposed throttles:

* Azure caps attached-disk performance at 500 IOPS regardless of VM size
  (their Fig. 11 local-disk line is flat at ~500 IOPS), and
* Azure throttles *network* performance by VM type and size (their prior
  work [15]), which is why remote-memory performance through Wiera scales
  with VM size (Basic A2 < Standard D1 < D2 ~= D3).

We encode both as a per-VM profile: an egress bandwidth cap, a per-message
NIC processing delay (dominates small-message RTT on throttled VMs), a
disk IOPS cap, and a relative CPU factor used by the RUBiS app model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import MB, MS


@dataclass(frozen=True)
class VmProfile:
    """Performance envelope of one VM instance type."""

    name: str
    cpus: int
    network_bw: float      # egress bytes/sec
    nic_delay: float       # per-message NIC processing delay, seconds
    disk_iops: float       # attached-disk IOPS cap (inf = unthrottled)
    cpu_factor: float      # relative single-request service-time multiplier

    def __post_init__(self) -> None:
        if self.network_bw <= 0 or self.nic_delay < 0 or self.disk_iops <= 0:
            raise ValueError(f"invalid VM profile {self.name}")


def _mbps(x: float) -> float:
    return x * MB / 8.0


VM_PROFILES: dict[str, VmProfile] = {
    # Azure VM types used in §5.4.  NIC delays are calibrated so the
    # remote-memory IOPS curve of Fig. 11 comes out: heavy per-message
    # virtualization overhead on Basic A2 / Standard D1, light on D2/D3
    # (the paper's prior work [15] measured multi-ms small-message RTTs on
    # throttled small Azure VMs).
    "azure.basic_a2": VmProfile(
        name="azure.basic_a2", cpus=2,
        network_bw=_mbps(200), nic_delay=3.65 * MS, disk_iops=500,
        cpu_factor=1.6),
    "azure.standard_d1": VmProfile(
        name="azure.standard_d1", cpus=1,
        network_bw=_mbps(500), nic_delay=2.85 * MS, disk_iops=500,
        cpu_factor=1.3),
    "azure.standard_d2": VmProfile(
        name="azure.standard_d2", cpus=2,
        network_bw=_mbps(1000), nic_delay=1.30 * MS, disk_iops=500,
        cpu_factor=1.0),
    "azure.standard_d3": VmProfile(
        name="azure.standard_d3", cpus=4,
        network_bw=_mbps(2000), nic_delay=1.22 * MS, disk_iops=500,
        cpu_factor=0.95),
    # AWS t2.micro, the paper's workhorse for Wiera/Tiera servers.
    "aws.t2_micro": VmProfile(
        name="aws.t2_micro", cpus=1,
        network_bw=_mbps(250), nic_delay=0.15 * MS, disk_iops=3000,
        cpu_factor=1.2),
    # An unthrottled profile for components whose host performance is not
    # under study (clients, the Wiera management service, Zookeeper).
    "generic": VmProfile(
        name="generic", cpus=4,
        network_bw=float("inf"), nic_delay=0.0, disk_iops=float("inf"),
        cpu_factor=1.0),
}


def get_profile(name: str) -> VmProfile:
    try:
        return VM_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown VM profile {name!r}; known: {sorted(VM_PROFILES)}") from None
