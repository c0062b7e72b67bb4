"""Unicast background traffic (extension beyond the paper's multicast-only
load experiments).

The paper measures multicast latency "under increasing load consisting of
multicast traffic alone".  Real NOW workloads mix collective and
point-to-point traffic, so this driver injects open-loop Poisson *unicast*
messages (uniform random destinations) as background and measures how a
foreground multicast's latency degrades -- a natural extension experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.multicast import make_scheme
from repro.params import SimParams
from repro.sim.messaging import HostReceiver, host_send
from repro.sim.network import SimNetwork
from repro.topology.graph import NetworkTopology


@dataclass(frozen=True)
class BackgroundLoadResult:
    """Foreground multicast latency under unicast background traffic."""

    background_load: float
    """Unicast load in flits/cycle/node."""

    multicast_latency: float
    background_sent: int
    background_delivered: int


class UnicastBackground:
    """Open-loop Poisson unicast generator attached to a network."""

    def __init__(
        self,
        net: SimNetwork,
        load: float,
        until: float,
        seed: int = 4242,
    ) -> None:
        """``load`` is in flits/cycle/node; generation stops at ``until``."""
        if load <= 0:
            raise ValueError("load must be positive")
        self.net = net
        self.load = load
        self.until = until
        self.rng = random.Random(seed)
        self.sent = 0
        self.delivered = 0
        rate = load / net.params.message_flits  # messages/cycle/node
        for node in range(net.topo.num_nodes):
            first = self.rng.expovariate(rate)
            if first < until:
                net.engine.at(first, lambda n=node, r=rate: self._issue(n, r))

    def _issue(self, node: int, rate: float) -> None:
        net = self.net
        dst = self.rng.choice(
            [n for n in range(net.topo.num_nodes) if n != node]
        )
        self.sent += 1
        m = net.params.message_packets
        receiver = HostReceiver(
            net.hosts[dst], m, lambda _t: self._delivered()
        )
        steer = net.unicast_steer(dst)

        def launch() -> None:
            net.hosts[node].launch_worm(
                steer,
                initial_state=None,
                on_delivered=lambda _n, _t: receiver.packet_arrived(),
                label=f"bg:{node}->{dst}",
            )

        host_send(net.hosts[node], [launch for _ in range(m)])
        gap = self.rng.expovariate(rate)
        if net.engine.now + gap < self.until:
            net.engine.at(net.engine.now + gap, lambda: self._issue(node, rate))

    def _delivered(self) -> None:
        self.delivered += 1


def multicast_under_background(
    topo: NetworkTopology,
    params: SimParams,
    scheme_name: str,
    source: int,
    dests: list[int],
    background_load: float,
    warmup: int = 20_000,
    seed: int = 4242,
    **scheme_kw,
) -> BackgroundLoadResult:
    """Measure one multicast's latency amid steady unicast background.

    The background runs for ``warmup`` cycles to reach steady state, the
    foreground multicast fires, and generation continues until it completes.
    """
    net = SimNetwork(topo, params)
    bg = UnicastBackground(
        net, background_load, until=float(warmup) * 50, seed=seed
    )
    done: list[float] = []

    def fire() -> None:
        scheme = make_scheme(scheme_name, **scheme_kw)
        scheme.execute(
            net, source, dests, on_complete=lambda r: done.append(r.latency)
        )

    net.engine.at(warmup, fire)
    # Run until the multicast completes.  Generation stops at the horizon,
    # so the engine drains only if the multicast was lost.
    while not done and net.engine.pending:
        net.engine.step()
    if not done:
        raise RuntimeError(
            "engine drained with the multicast incomplete "
            f"(background load {background_load})"
        )
    return BackgroundLoadResult(
        background_load=background_load,
        multicast_latency=done[0],
        background_sent=bg.sent,
        background_delivered=bg.delivered,
    )
