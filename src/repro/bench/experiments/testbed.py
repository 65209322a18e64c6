"""The §5.4 testbed: one application VM on Azure, its file on two settings.

Figures 11 and 12 and ``examples/remote_memory_database.py`` run the same
block-IO application against

* :func:`local_disk_blockfile` — a file straight on the VM's attached
  Azure disk, read with O_DIRECT so the native 500-IOPS throttle applies;
* :func:`remote_memory_blockfile` — the same file through Wiera's POSIX
  layer: a disk-only primary instance on the Azure VM and a memory-only
  instance on AWS in the same region, PrimaryBackup with synchronous
  updates, every get forwarded to the AWS memory instance (§5.4.1).

Both hand back a prepared :class:`~repro.fs.device.BlockFile` of
``nblocks`` zeroed 16 KB blocks (the sysbench prepare phase / mkfs).
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import Deployment, build_deployment, preload_object
from repro.core.client import WieraClient
from repro.core.global_policy import GlobalPolicySpec, RegionPlacement
from repro.fs import TierBlockFile, WieraBlockFile, WieraFS
from repro.fs.posixfs import block_object_key
from repro.net.network import Network
from repro.net.topology import US_EAST
from repro.net.vmprofiles import get_profile
from repro.sim.kernel import Simulator
from repro.storage.factory import make_tier
from repro.tiera.policy import disk_only_policy, memory_only_policy
from repro.util.units import GB, KB

BLOCK_SIZE = 16 * KB


def local_disk_blockfile(seed: int, name: str,
                         nblocks: int) -> tuple[Simulator, TierBlockFile]:
    """A fresh simulation holding a block file on the attached Azure disk;
    ``seed`` seeds the disk's service-time jitter."""
    sim = Simulator()
    Network(sim)  # unused but keeps construction uniform
    backend = make_tier(sim, "azure_disk", 64 * GB, name=f"{name}-disk",
                        rng=np.random.default_rng(seed))
    blockfile = TierBlockFile(backend, name, nblocks, BLOCK_SIZE)
    blockfile.prepare()
    return sim, blockfile


def remote_memory_blockfile(vm: str, seed: int, name: str, path: str,
                            nblocks: int, memory_size: str,
                            ) -> tuple[Deployment, WieraBlockFile]:
    """A deployment whose Azure ``vm`` reads ``path`` from AWS memory
    through Wiera; ``name`` names the Wiera instance, ``memory_size`` sizes
    the AWS memory tier."""
    dep = build_deployment([US_EAST], providers={US_EAST: ("azure", "aws")},
                           seed=seed)
    azure_server = dep.server(US_EAST, "azure")
    azure_server.host.vm = get_profile(vm)
    azure_server.host.egress.rate = azure_server.host.vm.network_bw
    spec = GlobalPolicySpec(
        name=name,
        placements=(
            RegionPlacement(US_EAST, disk_only_policy(size="64G"),
                            provider="azure", primary=True),
            RegionPlacement(US_EAST, memory_only_policy(size=memory_size),
                            provider="aws")),
        consistency="primary_backup", sync_replication=True)
    dep.start_wiera_instance(name, spec)
    tim = dep.tim(name)
    aws_id = next(iid for iid, rec in tim.instances.items()
                  if rec.provider == "aws")
    # "a get operation policy for all get operations to be forwarded to
    # the instance on AWS" (§5.4.1)
    tim.protocol.config.get_from = aws_id

    client = WieraClient(dep.sim, dep.network, azure_server.host,
                         name=f"{name}-app")
    client.connect(dep.wiera.node, name, dep.wiera.get_shard_map(name))
    fs = WieraFS(client, block_size=BLOCK_SIZE)
    handle = fs.open(path)
    fs._sizes[path] = nblocks * BLOCK_SIZE
    payload = b"\0" * BLOCK_SIZE
    targets = [rec.instance for rec in tim.instances.values()]
    for i in range(nblocks):
        preload_object(targets, block_object_key(path, i), payload)
    return dep, WieraBlockFile(handle, nblocks)
