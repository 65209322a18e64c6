"""A simulation runs in one process, on one :class:`Simulator`.

There is no second way to execute a run: no partitioned runner, no worker
count to pick, and no hook in the kernel, the network or the RPC layer
for one.  Simulated results therefore have a single reference path.
"""

import importlib.util
import inspect

from repro.bench.harness import build_deployment
from repro.net.network import Network
from repro.sim.kernel import Simulator


def test_single_process_is_the_only_execution_path():
    assert importlib.util.find_spec("repro.par") is None
    assert "workers" not in inspect.signature(build_deployment).parameters
    network = Network(Simulator())
    assert not hasattr(network, "bridge")
    assert not hasattr(network, "nodes")
    assert not hasattr(Simulator, "call_at")
