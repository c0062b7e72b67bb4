"""Analytic saturation prediction via bottleneck utilisation.

Open-loop multicast traffic saturates when some resource class's demand
reaches capacity.  For each scheme this module computes, from *static plans*
on sampled destination draws, the average per-operation demand on every
resource class -- host CPU cycles, NI cycles, I/O-bus flits, injection-link
flits, fabric-link flits -- converts demand to utilisation per unit of
effective applied load, and reports the binding bottleneck and the load at
which it saturates.

This is the back-of-envelope a designer would run before simulating; the
test-suite checks it brackets the simulated saturation points and predicts
the right scheme ordering (binomial first, tree last).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.multicast import make_scheme
from repro.multicast.binomial import UnicastBinomialScheme
from repro.multicast.kbinomial import NIKBinomialScheme
from repro.multicast.pathworm import PathWormScheme
from repro.multicast.treeworm import TreeWormScheme
from repro.sim.network import SimNetwork


@dataclass(frozen=True)
class SaturationEstimate:
    """Predicted saturation point of one scheme at one degree."""

    scheme: str
    degree: int
    bottleneck: str
    saturation_load: float
    """Effective applied load (flits/cycle/node) at which the bottleneck
    resource class reaches utilisation 1."""

    utilization_per_unit_load: dict[str, float]


def _unicast_demand(net: SimNetwork, src: int, dst: int) -> dict[str, float]:
    """Resource demand of one conventional unicast message."""
    p = net.params
    hops = net.routing.distance(
        net.topo.switch_of_node(src), net.topo.switch_of_node(dst)
    )
    F = p.message_flits
    return {
        "cpu": 2 * p.o_host,
        "ni": 2 * p.o_ni,
        "bus": 2 * F,
        "inject": F,
        "links": F * hops,
    }


def _scheme_demand(
    net: SimNetwork, scheme_name: str, source: int, dests: list[int]
) -> dict[str, float]:
    """Average total resource demand of one multicast operation."""
    p = net.params
    F = p.message_flits
    d = len(dests)
    demand = {"cpu": 0.0, "ni": 0.0, "bus": 0.0, "inject": 0.0, "links": 0.0}

    def add(other: dict[str, float]) -> None:
        for k, v in other.items():
            demand[k] += v

    scheme = make_scheme(scheme_name)
    if isinstance(scheme, UnicastBinomialScheme):
        tree = scheme.plan(net, source, dests)
        for parent, children in tree.items():
            for child in children:
                add(_unicast_demand(net, parent, child))
    elif isinstance(scheme, NIKBinomialScheme):
        _k, tree = scheme.plan(net, source, dests)
        # one host send at the source, one host receive per destination
        demand["cpu"] += p.o_host * (1 + d)
        demand["bus"] += F * (1 + d)
        for parent, children in tree.items():
            if parent != source and children:
                demand["ni"] += p.o_ni  # interior receive processing
            demand["ni"] += p.o_ni * len(children)  # per-child streams
            for child in children:
                u = _unicast_demand(net, parent, child)
                demand["inject"] += u["inject"]
                demand["links"] += u["links"]
        demand["ni"] += p.o_ni * d  # leaf receive processing (upper bound)
    elif isinstance(scheme, PathWormScheme):
        plan = scheme.plan(net, source, dests)
        for worm in plan.worms:
            demand["cpu"] += p.o_host
            demand["ni"] += p.o_ni
            demand["bus"] += F
            demand["inject"] += F
            demand["links"] += F * len(worm.links)
        demand["cpu"] += p.o_host * d
        demand["ni"] += p.o_ni * d
        demand["bus"] += F * d
    elif isinstance(scheme, TreeWormScheme):
        demand["cpu"] += p.o_host * (1 + d)
        demand["ni"] += p.o_ni * (1 + d)
        demand["bus"] += F * (1 + d)
        demand["inject"] += F
        # worm channel count: up path + down distribution tree edges
        from repro.multicast.treeworm import plan_tree_worm

        plan = plan_tree_worm(net, net.topo.switch_of_node(source), dests)
        down = net.routing.down_distances(plan.turn_switch)
        covered_switches = {
            net.topo.switch_of_node(dst) for dst in dests
        }
        down_edges = sum(
            down.get(s, 0) for s in covered_switches
        )
        demand["links"] += F * (len(plan.up_switch_path) - 1 + down_edges)
    else:  # pragma: no cover
        raise ValueError(f"no demand model for scheme {scheme_name!r}")
    return demand


def predict_saturation(
    net: SimNetwork,
    scheme_name: str,
    degree: int,
    samples: int = 12,
    seed: int = 77,
) -> SaturationEstimate:
    """Bottleneck analysis over sampled destination draws.

    Capacities per cycle: host CPUs N cycles, NI processors N cycles, I/O
    buses N x rate flits, injection links N flits, fabric links 2 x links
    flits (each link carries one flit per direction per cycle).
    """
    p = net.params
    topo = net.topo
    n = topo.num_nodes
    rng = random.Random(seed)
    totals = {"cpu": 0.0, "ni": 0.0, "bus": 0.0, "inject": 0.0, "links": 0.0}
    for _ in range(samples):
        src = rng.randrange(n)
        dests = rng.sample([x for x in range(n) if x != src], degree)
        dem = _scheme_demand(net, scheme_name, src, dests)
        for k, v in dem.items():
            totals[k] += v / samples

    capacity = {
        "cpu": float(n),
        "ni": float(n),
        "bus": n * p.io_bus_flits_per_cycle,
        "inject": float(n),
        "links": 2.0 * max(1, len(topo.links)),
    }
    # ops/cycle system-wide at unit effective load: N nodes x 1/(d*F) each.
    ops_per_cycle = n / (degree * p.message_flits)
    util_per_unit = {
        k: ops_per_cycle * totals[k] / capacity[k] for k in totals
    }
    bottleneck = max(util_per_unit, key=lambda k: util_per_unit[k])
    sat = 1.0 / util_per_unit[bottleneck]
    return SaturationEstimate(
        scheme=scheme_name,
        degree=degree,
        bottleneck=bottleneck,
        saturation_load=sat,
        utilization_per_unit_load=util_per_unit,
    )
