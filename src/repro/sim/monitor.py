"""Utilization instrumentation: where does the time go?

Collects channel/CPU/NI/I-O-bus utilization from a :class:`SimNetwork` over
a measurement window.  Used by the load experiments to identify the
saturating resource (e.g. the paper's observation that the NI-based scheme
"results in a greater amount of traffic and higher contention in the
network") and by the examples for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.network import SimNetwork


@dataclass(frozen=True)
class UtilizationReport:
    """Resource utilizations over a window (fractions of wall time)."""

    window: float
    mean_link_utilization: float
    max_link_utilization: float
    max_link_name: str
    mean_injection_utilization: float
    mean_delivery_utilization: float
    mean_cpu_utilization: float
    mean_ni_utilization: float
    mean_bus_utilization: float
    total_flits_moved: int
    # Runtime fault-injection counters (zero on fault-free runs); cumulative
    # network totals, not windowed -- see repro.sim.network.ChaosStats.
    worms_aborted: int = 0
    retries: int = 0
    reconfigurations: int = 0
    reconfig_latency_total: float = 0.0

    def bottleneck(self) -> str:
        """Name the resource class closest to saturation."""
        candidates = {
            "links": self.max_link_utilization,
            "injection": self.mean_injection_utilization,
            "delivery": self.mean_delivery_utilization,
            "host CPUs": self.mean_cpu_utilization,
            "NI processors": self.mean_ni_utilization,
            "I/O buses": self.mean_bus_utilization,
        }
        return max(candidates, key=lambda k: candidates[k])


class NetworkMonitor:
    """Snapshot-based utilization measurement over a simulation window.

    Usage::

        mon = NetworkMonitor(net)     # snapshot at window start
        net.run(until=...)            # simulate
        report = mon.report()         # utilizations since the snapshot
    """

    def __init__(self, net: SimNetwork) -> None:
        self.net = net
        self.start_time = net.engine.now
        self._busy0 = self._busy_snapshot()
        self._flits0 = net.fabric.total_flits_carried()

    def _busy_snapshot(self) -> dict[str, float]:
        snap: dict[str, float] = {}
        for ch in self.net.fabric.all_channels():
            snap[f"ch:{ch.uid}"] = ch.busy_time
        for h in self.net.all_hosts():
            snap[f"cpu:{h.node}"] = h.cpu.busy_time
            snap[f"ni:{h.node}"] = h.ni.busy_time
            snap[f"bus:{h.node}"] = h.bus.flits_moved
        return snap

    def report(self) -> UtilizationReport:
        """Utilizations accumulated since construction."""
        window = self.net.engine.now - self.start_time
        if window <= 0:
            raise ValueError("measurement window is empty")
        now = self._busy_snapshot()

        def util(key: str) -> float:
            return (now[key] - self._busy0[key]) / window

        fab = self.net.fabric
        channels = fab.all_channels()
        link_utils = {
            ch.name: util(f"ch:{ch.uid}")
            for ch in channels
            if ch.kind == "forward"
        }
        inj_utils = [util(f"ch:{ch.uid}") for ch in channels if ch.kind == "inject"]
        del_utils = [util(f"ch:{ch.uid}") for ch in channels if ch.kind == "deliver"]
        hosts = self.net.all_hosts()
        cpu_utils = [util(f"cpu:{h.node}") for h in hosts]
        ni_utils = [util(f"ni:{h.node}") for h in hosts]
        bus_utils = [
            (now[f"bus:{h.node}"] - self._busy0[f"bus:{h.node}"])
            / (h.bus.rate * window)
            for h in hosts
        ]
        max_link = max(link_utils, key=lambda k: link_utils[k], default="")

        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0

        return UtilizationReport(
            window=window,
            mean_link_utilization=mean(list(link_utils.values())),
            max_link_utilization=link_utils.get(max_link, 0.0),
            max_link_name=max_link,
            mean_injection_utilization=mean(inj_utils),
            mean_delivery_utilization=mean(del_utils),
            mean_cpu_utilization=mean(cpu_utils),
            mean_ni_utilization=mean(ni_utils),
            mean_bus_utilization=mean(bus_utils),
            total_flits_moved=fab.total_flits_carried() - self._flits0,
            worms_aborted=self.net.chaos.worms_aborted,
            retries=self.net.chaos.retries,
            reconfigurations=self.net.chaos.reconfigurations,
            reconfig_latency_total=self.net.chaos.reconfig_latency_total,
        )
