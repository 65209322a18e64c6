"""Tiera: the single-DC multi-tiered storage layer Wiera builds on.

A :class:`~repro.tiera.instance.TieraInstance` encapsulates several storage
tiers inside one data center and runs a local event-response policy over
them (write-back/write-through caching, backup on fill, cold-data demotion,
compression, growth...).  Objects are immutable and versioned (the Wiera
data-model extension of §3.2.1); metadata lives in a BerkeleyDB-like store.
:class:`~repro.tiera.server.TieraServer` spawns/stops instances on behalf of
Wiera's Tiera Server Manager.
"""

from repro.tiera.objects import ObjectRecord, VersionMeta, storage_key
from repro.tiera.metadata_store import MetadataStore
from repro.tiera.events import (
    ColdDataEvent,
    FilledEvent,
    InsertEvent,
    OperationEvent,
    TimerEvent,
)
from repro.tiera.responses import (
    CompressResponse,
    CopyResponse,
    DeleteResponse,
    EncryptResponse,
    GrowResponse,
    MoveResponse,
    ObjectSelector,
    SetAttrResponse,
    StoreResponse,
)
from repro.tiera.policy import LocalPolicy, Rule, TierSpec
from repro.tiera.instance import TieraError, TieraInstance
from repro.tiera.server import TieraServer
from repro.tiera.instance_tier import InstanceTier

__all__ = [
    "ObjectRecord",
    "VersionMeta",
    "storage_key",
    "MetadataStore",
    "InsertEvent",
    "OperationEvent",
    "TimerEvent",
    "FilledEvent",
    "ColdDataEvent",
    "ObjectSelector",
    "StoreResponse",
    "CopyResponse",
    "MoveResponse",
    "DeleteResponse",
    "CompressResponse",
    "EncryptResponse",
    "GrowResponse",
    "SetAttrResponse",
    "LocalPolicy",
    "Rule",
    "TierSpec",
    "TieraInstance",
    "TieraError",
    "TieraServer",
    "InstanceTier",
]
