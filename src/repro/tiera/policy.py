"""Local policy specification: tiers + event/response rules.

A :class:`LocalPolicy` is what a Tiera instance is *defined by* (§2.1):
"the desired storage tiers, their capacities, and a set of events along
with their responses".  Policies are plain data — built programmatically,
by the DSL compiler, or taken from the built-in library — and interpreted
by the instance's policy engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.tiera.events import (
    ColdDataEvent,
    FilledEvent,
    InsertEvent,
    OperationEvent,
    PolicyEvent,
    TimerEvent,
)
from repro.tiera.responses import Response, StoreResponse
from repro.util.units import parse_size


@dataclass(frozen=True)
class TierSpec:
    """One storage tier requested by a policy."""

    name: str           # policy-local name, e.g. "tier1"
    profile: str        # storage profile, e.g. "memcached", "ebs_ssd"
    capacity: Optional[float] = None  # bytes; None = service default

    @classmethod
    def parse(cls, name: str, profile: str,
              size: str | int | None = None) -> "TierSpec":
        capacity = parse_size(size) if size is not None else None
        return cls(name=name, profile=profile, capacity=capacity)


@dataclass(frozen=True)
class Rule:
    """event(...) : response { ... } — one policy rule."""

    event: PolicyEvent
    responses: tuple[Response, ...]

    def __post_init__(self):
        if not isinstance(self.responses, tuple):
            object.__setattr__(self, "responses", tuple(self.responses))


@dataclass(frozen=True)
class LocalPolicy:
    """A complete Tiera instance definition."""

    name: str
    tiers: tuple[TierSpec, ...]
    rules: tuple[Rule, ...] = ()
    keep_versions: Optional[int] = None  # GC: retain at most N versions/key

    def __post_init__(self):
        if not self.tiers:
            raise ValueError(f"policy {self.name!r} declares no tiers")
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"policy {self.name!r} has duplicate tier names")
        if not isinstance(self.tiers, tuple):
            object.__setattr__(self, "tiers", tuple(self.tiers))
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))
        # The engine's rule tables, built once: rules by event type (an
        # insert's also by tier, an operation's by op), in policy order.
        tables: dict = {}
        for rule in self.rules:
            event = rule.event
            slot = ((InsertEvent, event.tier) if isinstance(event, InsertEvent)
                    else (OperationEvent, event.op)
                    if isinstance(event, OperationEvent) else type(event))
            tables[slot] = tables.get(slot, ()) + (rule,)
        object.__setattr__(self, "_tables", tables)
        object.__setattr__(self, "_store_tier", next(
            (response.to for rule in self.insert_rules(None)
             for response in rule.responses
             if isinstance(response, StoreResponse)), self.tiers[0].name))

    # -- rule queries used by the engine -------------------------------------
    def insert_rules(self, tier: Optional[str]) -> tuple[Rule, ...]:
        """Rules for InsertEvent with the given tier qualifier."""
        return self._tables.get((InsertEvent, tier), ())

    def operation_rules(self, op: str) -> tuple[Rule, ...]:
        return self._tables.get((OperationEvent, op), ())

    def timer_rules(self) -> tuple[Rule, ...]:
        return self._tables.get(TimerEvent, ())

    def filled_rules(self) -> tuple[Rule, ...]:
        return self._tables.get(FilledEvent, ())

    def cold_rules(self) -> tuple[Rule, ...]:
        return self._tables.get(ColdDataEvent, ())

    def default_store_tier(self) -> str:
        """Where a put lands when no unqualified insert rule says otherwise."""
        return self._store_tier


def write_back_policy(name: str = "LowLatencyInstance",
                      cache_profile: str = "memcached",
                      durable_profile: str = "ebs_ssd",
                      cache_size: str = "5G",
                      durable_size: str = "5G",
                      flush_period: float = 5.0) -> LocalPolicy:
    """Figure 1(a) skeleton: store to memory, flush dirty data on a timer."""
    from repro.tiera.responses import (CopyResponse, ObjectSelector,
                                       SetAttrResponse)
    return LocalPolicy(
        name=name,
        tiers=(TierSpec.parse("tier1", cache_profile, cache_size),
               TierSpec.parse("tier2", durable_profile, durable_size)),
        rules=(
            Rule(InsertEvent(tier=None),
                 (SetAttrResponse("dirty", True), StoreResponse(to="tier1"))),
            Rule(TimerEvent(period=flush_period),
                 (CopyResponse(what=ObjectSelector(location="tier1", dirty=True),
                               to="tier2", clear_dirty=True),)),
        ))


def memory_only_policy(name: str = "MemoryInstance",
                       size: str = "5G") -> LocalPolicy:
    """Single volatile memory tier (the AWS remote-memory instance of §5.4)."""
    return LocalPolicy(
        name=name,
        tiers=(TierSpec.parse("tier1", "memcached", size),),
        rules=(Rule(InsertEvent(tier=None), (StoreResponse(to="tier1"),)),))


def disk_only_policy(name: str = "DiskInstance", profile: str = "azure_disk",
                     size: str = "30G") -> LocalPolicy:
    """Single block tier (the Azure primary of §5.4)."""
    return LocalPolicy(
        name=name,
        tiers=(TierSpec.parse("tier1", profile, size),),
        rules=(Rule(InsertEvent(tier=None), (StoreResponse(to="tier1"),)),))
