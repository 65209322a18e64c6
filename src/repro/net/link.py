"""Shared bandwidth links with FIFO transmission serialization.

Every host has an egress link; concurrent transfers through one link queue
behind each other, so a host's traffic shares its bandwidth — this is what
makes bandwidth-capped ``copy`` responses (e.g. ``bandwidth: 40KB/s`` in
Figure 1(b)) and Azure's VM-size network throttles (Figs. 11-12) behave
realistically.

A link serves one reservation at a time in arrival order, so "queueing" is
arithmetic on a virtual clock (:class:`repro.sim.primitives.SerialServer`):
a sender learns at reservation time the instant its last byte leaves and
sleeps until then on one event.  There is no waiter queue, no grant event
and nothing to release.

A reservation is at most :data:`SEGMENT_BYTES` long:
:meth:`repro.net.network.Network.transmit` puts a larger transfer on the
link one segment at a time, each reserved only when the previous one is
out.  A bulk transfer therefore shares the link it crosses instead of
holding it — foreground messages reserved meanwhile go out at the next
segment boundary — and still moves every byte at the link's rate, FIFO
segment by segment.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.kernel import Simulator
from repro.sim.primitives import SerialServer, wake_at

_INF = float("inf")

#: the longest single reservation a transfer makes on an egress link.  The
#: smallest power of two that leaves every single-object message of the
#: ``perf/`` workloads (64 KB values plus envelope) and ``ol_write``'s
#: ~70 KB group-commit batches whole; see DESIGN "Segmented transfers".
SEGMENT_BYTES = 128 * 1024


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
