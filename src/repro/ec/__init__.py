"""Erasure-coded redundancy plane (replication generalized to EC(k, m)).

Three layers:

* :mod:`repro.ec.codec` — GF(256) systematic Reed-Solomon codec
  (``bytes.translate`` multiplies, numpy XOR adds): any k of k+m
  fragments reconstruct the object.
* :mod:`repro.ec.protocol` / :mod:`repro.ec.repair` — fragments as
  first-class Tiera objects with a replicated JSON manifest, degraded
  reads/writes around down hosts, and background fragment rebuild.
* :mod:`repro.ec.optimizer` — per-object replication-vs-EC(k, m) and
  site selection by price-book cost under durability and latency budgets.

Enabled via ``GlobalPolicySpec(redundancy=RedundancySpec(...))``;
``redundancy=None`` (the default) constructs nothing.
"""

from repro.ec.codec import Codec
from repro.ec.optimizer import (RedundancyOptimizer, RedundancyPlan,
                                SchemeEstimate)
from repro.ec.protocol import (ECProtocol, decode_manifest, encode_manifest,
                               fragment_key, is_fragment_key)
from repro.ec.repair import ECRepairer

__all__ = [
    "Codec",
    "ECProtocol",
    "ECRepairer",
    "RedundancyOptimizer",
    "RedundancyPlan",
    "SchemeEstimate",
    "encode_manifest",
    "decode_manifest",
    "fragment_key",
    "is_fragment_key",
]
