"""Global consistency protocols between Tiera instances (§3.3.1).

Three protocols from the paper, all sharing one duck-typed interface with
:class:`~repro.tiera.local_protocol.LocalOnlyProtocol`:

* :class:`MultiPrimariesProtocol` — every replica accepts writes under a
  global (Zookeeper) lock, updates broadcast synchronously.
* :class:`PrimaryBackupProtocol` — one primary; non-primaries forward
  puts; updates propagate synchronously (``copy``) or asynchronously
  (``queue``) by configuration.
* :class:`EventualConsistencyProtocol` — writes commit locally and are
  queued for lazy distribution; write-write conflicts resolved
  last-write-wins (§4.2).

:class:`GlobalProtocol` holds what they share — the per-instance
:class:`ReplicationQueue` and repairer, the local read, the LWW apply — so
each protocol states only its propagation mode and ordering.
"""

from repro.core.consistency.base import (
    GlobalProtocol,
    ProtocolError,
    ReplicationQueue,
)
from repro.core.consistency.repair import AntiEntropyRepairer
from repro.core.consistency.multi_primaries import MultiPrimariesProtocol
from repro.core.consistency.primary_backup import (
    PrimaryBackupConfig,
    PrimaryBackupProtocol,
)
from repro.core.consistency.eventual import EventualConsistencyProtocol

PROTOCOL_NAMES = ("multi_primaries", "primary_backup", "eventual", "local")

__all__ = [
    "GlobalProtocol",
    "ProtocolError",
    "ReplicationQueue",
    "AntiEntropyRepairer",
    "MultiPrimariesProtocol",
    "PrimaryBackupProtocol",
    "PrimaryBackupConfig",
    "EventualConsistencyProtocol",
    "PROTOCOL_NAMES",
]
