"""Shared bandwidth links with FIFO transmission serialization.

Every host has an egress link; concurrent transfers through one link queue
behind each other, so large replication transfers genuinely contend with
foreground traffic — this is what makes bandwidth-capped ``copy`` responses
(e.g. ``bandwidth: 40KB/s`` in Figure 1(b)) and Azure's VM-size network
throttles (Figs. 11-12) behave realistically.

A link serves one payload at a time in arrival order, so "queueing" is
arithmetic on a virtual clock (:class:`repro.sim.primitives.SerialServer`):
a sender learns at send time the instant its last byte leaves and sleeps
until then on one event.  There is no waiter queue, no grant event and
nothing to release.
"""

from __future__ import annotations

from typing import Generator, Iterator

from repro.sim.kernel import Simulator
from repro.sim.primitives import SerialServer, wake_at

_INF = float("inf")


def iter_chunks(nbytes: int, chunk_bytes: float) -> Iterator[int]:
    """Split ``nbytes`` into successive chunk sizes of at most
    ``chunk_bytes`` (the last chunk carries the remainder).

    ``chunk_bytes <= 0`` means no chunking: the whole payload is one
    piece.  Used by :meth:`repro.net.network.Network.transmit` so a large
    transfer serializes through the egress link as several short
    reservations instead of one indivisible one — foreground traffic can
    interleave between chunks, and a mid-transfer failure has only the
    undelivered chunks left in flight.
    """
    if chunk_bytes <= 0 or nbytes <= chunk_bytes:
        yield nbytes
        return
    step = int(chunk_bytes)
    sent = 0
    while sent < nbytes:
        piece = min(step, nbytes - sent)
        yield piece
        sent += piece


class BandwidthLink:
    """A serialized transmission pipe with a byte/second rate.

    :meth:`reserve` books ``nbytes`` onto the wire behind everything
    already booked and returns the instant the last byte leaves;
    ``transmit(nbytes)`` is the generator form (intended for ``yield from``
    inside a process) that also sleeps until that instant.  An
    infinite-rate link completes instantly and never queues.

    ``rate`` may be changed at run time; a payload is clocked at the rate
    in force when it is reserved.  A reservation is never reclaimed: a
    sender interrupted mid-transfer leaves the link busy for the time its
    payload would have taken, and later transfers proceed normally.
    """

    def __init__(self, sim: Simulator, rate: float = _INF, name: str = ""):
        if rate <= 0:
            raise ValueError(f"link rate must be positive, got {rate}")
        self.sim = sim
        self.rate = rate
        self.name = name
        self._server = SerialServer(sim)
        self.bytes_sent = 0

    def transmission_time(self, nbytes: int) -> float:
        if self.rate == _INF:
            return 0.0
        return nbytes / self.rate

    def reserve(self, nbytes: int) -> float:
        """Book ``nbytes`` behind the transfers already reserved; returns
        the absolute time at which the last byte is on the wire."""
        if nbytes < 0:
            raise ValueError("cannot transmit a negative payload")
        self.bytes_sent += nbytes
        if self.rate == _INF:
            return self.sim.now
        return self._server.reserve(nbytes / self.rate)

    def transmit(self, nbytes: int) -> Generator:
        finish = self.reserve(nbytes)
        if finish > self.sim.now:
            yield wake_at(self.sim, finish)
