"""Get-load balancing via the ``forward`` response (§3.2.3).

RequestsMonitoring events fire "when a Tiera instance gets more requests
than other instances (and thus, may be overloaded)"; the matching
``forward`` response "forwards a request to another Tiera instance (e.g.,
for load balancing)".  This monitor implements that pair for read traffic:
when an instance's get rate exceeds a threshold while some peer sits well
below it, it installs a probabilistic redirect that sheds a fraction of
the overloaded instance's gets onto the coolest peer — and removes it
again (with hysteresis) once the load subsides.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim.primitives import Loop

#: an instance serving more gets/s than this sheds some of them
THRESHOLD_RPS = 50.0
#: ... until its rate falls to this (the hysteresis band)
CLEAR_RPS = 30.0
#: share of the overloaded instance's gets forwarded to the peer
SHED_FRACTION = 0.5
#: seconds of get history a rate is measured over
WINDOW = 10.0
#: seconds between rounds
CHECK_INTERVAL = 5.0
#: a peer takes shed gets only below this share of THRESHOLD_RPS
PEER_HEADROOM = 0.5


class LoadBalancer:
    """Installs/clears get redirects based on observed get rates."""

    def __init__(self, tim):
        self.tim = tim
        self.loop = Loop(tim.sim, "LoadBalancer", CHECK_INTERVAL,
                         self._round)
        self.redirects_installed = 0
        self.redirects_cleared = 0
        self._active: dict[str, str] = {}   # overloaded id -> target id

    def _rates(self) -> dict[str, float]:
        return {
            iid: rec.instance.gets_in_window(WINDOW) / WINDOW
            for iid, rec in self.tim.instances.items() if not rec.down
        }

    def _round(self) -> Generator:
        rates = self._rates()
        if not rates:
            return
        # clear redirects whose source has cooled down
        for iid in list(self._active):
            if rates.get(iid, 0.0) <= CLEAR_RPS:
                yield from self._clear(iid)
        # install redirects for overloaded instances
        for iid, rate in sorted(rates.items()):
            if iid in self._active or rate <= THRESHOLD_RPS:
                continue
            target = self._coolest_peer(iid, rates)
            if target is not None:
                yield from self._install(iid, target)

    def _coolest_peer(self, overloaded: str,
                      rates: dict[str, float]) -> Optional[str]:
        candidates = [
            (rate, iid) for iid, rate in rates.items()
            if iid != overloaded
            and rate < PEER_HEADROOM * THRESHOLD_RPS
            and iid not in self._active
        ]
        if not candidates:
            return None
        return min(candidates)[1]

    def _install(self, overloaded: str, target: str) -> Generator:
        record = self.tim.instances[overloaded]
        yield from self.tim.node.invoke(record.node, "ctl_set_redirect",
                                        {"peer": target,
                                         "fraction": SHED_FRACTION})
        self._active[overloaded] = target
        self.redirects_installed += 1

    def _clear(self, overloaded: str) -> Generator:
        record = self.tim.instances.get(overloaded)
        if record is not None and not record.down:
            yield from self.tim.node.invoke(record.node, "ctl_set_redirect",
                                            {"peer": None})
        self._active.pop(overloaded, None)
        self.redirects_cleared += 1
