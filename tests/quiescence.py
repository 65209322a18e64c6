"""Close a world's fault windows and judge its state at quiescence."""

from repro.obs.check import check_quiescent


def settle(dep, *schedules) -> list[str]:
    """Stop ``schedules``, restart every host they left down and heal every
    partition they cut, run one second, then return
    :func:`~repro.obs.check.check_quiescent`'s violations (one repair or
    anti-entropy round at every live instance, then the state check)."""
    servers = {server.host.name: server for server in dep.servers.values()}
    for schedule in schedules:
        schedule.stop()
        for event in schedule.events:
            if event.kind == "crash":
                name = event.target[0]
                if dep.network.host(name).down:
                    if name in servers:
                        servers[name].recover()
                    else:
                        dep.network.host(name).recover()
            elif event.kind == "partition":
                dep.network.heal_partition(*event.target)
    dep.sim.run(until=dep.sim.now + 1.0)
    return check_quiescent(dep)
