"""Shared scenario builders for cross-validating the two simulation backends.

The agreement suite (``tests/test_flitsim_crossvalidation.py``) and the
lane tests (``tests/test_vc_fabric.py``) both need to run *one* scenario --
a set of worms, each with a start time, a source node and a destination
set -- on both the worm-level event model and the flit-level reference
simulator, and compare per-destination delivery times exactly.

This module provides the common plumbing:

* :func:`multicast_route` merges deterministic minimal unicast routes into a
  single multidestination :class:`~repro.sim.flitsim.FlitRoute` tree (shared
  prefixes become one channel; divergence points become replication forks),
  refusing inputs whose paths re-converge (a worm may not cross the same
  channel twice);
* :func:`route_steer` turns such a tree into a worm-level
  :data:`~repro.sim.worm.SteerFn`, so the event backend replicates along the
  *identical* static tree -- any timing disagreement is then a modelling
  bug, never a routing difference;
* :func:`run_event_scenario` / :func:`run_flit_scenario` execute a job list
  on each backend and return ``{(worm_index, node): tail_time}``.
"""

from __future__ import annotations

from repro.params import SimParams
from repro.routing.updown import UpDownRouting
from repro.sim.flitsim import FlitLevelFabric, FlitRoute, unicast_route
from repro.sim.network import SimNetwork
from repro.sim.worm import Deliver, Forward, SteerFn, Worm
from repro.topology.graph import NetworkTopology

Job = tuple[int, int, tuple[int, ...]]
"""(start_cycle, source_node, destination_nodes)"""


def multicast_route(
    topo: NetworkTopology,
    rt: UpDownRouting,
    src_node: int,
    dst_nodes: tuple[int, ...] | list[int],
) -> FlitRoute:
    """Merge deterministic unicast routes into one multidestination tree.

    Each destination contributes its minimal deterministic up*/down* path;
    paths sharing a channel prefix share tree nodes, and the first channel
    where they differ becomes a replication fork.  Raises ``ValueError`` if
    two branches would re-converge onto the same channel (the result would
    not be a tree, and a worm may not cross a channel twice).
    """
    if not dst_nodes:
        raise ValueError("multicast_route needs at least one destination")
    routes = [unicast_route(topo, rt, src_node, d) for d in dst_nodes]
    root = FlitRoute(routes[0].channel)

    def merge(into: FlitRoute, sub: FlitRoute) -> None:
        for child in sub.children:
            match = next(
                (c for c in into.children if c.channel == child.channel), None
            )
            if match is None:
                match = FlitRoute(child.channel)
                into.children.append(match)
            merge(match, child)

    for r in routes:
        merge(root, r)

    seen: set[tuple] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node.channel in seen:
            raise ValueError(
                f"paths to {tuple(dst_nodes)} re-converge on channel "
                f"{node.channel}; the merged route is not a tree"
            )
        seen.add(node.channel)
        stack.extend(node.children)
    return root


def route_steer(net: SimNetwork, route: FlitRoute) -> SteerFn:
    """Steer function replaying a static :class:`FlitRoute` tree.

    The steer state is the tree node whose channel the header just crossed;
    pass ``route`` itself as the worm's ``initial_state``.
    """
    links = {lk.link_id: lk for lk in net.topo.links}
    fabric = net.fabric

    def steer(switch: int, state: object):
        node: FlitRoute = state if isinstance(state, FlitRoute) else route
        instrs: list[Deliver | Forward] = []
        for child in node.children:
            key = child.channel
            if key[0] == "del":
                instrs.append(Deliver(fabric.deliver[key[1]]))
            elif key[0] == "fwd":
                _, link_id, frm = key
                if frm != switch:
                    raise ValueError(
                        f"route channel {key} does not leave switch {switch}"
                    )
                instrs.append(
                    Forward([(fabric.forward_channel(links[link_id], frm), child)])
                )
            else:  # pragma: no cover - route trees only nest fwd/del
                raise ValueError(f"unexpected mid-route channel {key}")
        return instrs

    return steer


def run_event_scenario(
    topo: NetworkTopology, params: SimParams, jobs: list[Job]
) -> dict[tuple[int, int], float]:
    """Run ``jobs`` on the worm-level event backend; return delivery times."""
    net = SimNetwork(topo, params)
    rt = net.routing
    out: dict[tuple[int, int], float] = {}
    for i, (start, src, dsts) in enumerate(jobs):
        route = multicast_route(topo, rt, src, dsts)

        def launch(i=i, src=src, route=route) -> None:
            w = Worm(
                net.engine,
                net.params,
                route_steer(net, route),
                on_delivered=lambda n, t, i=i: out.__setitem__((i, n), t),
                rng=net.rng,
            )
            w.start(net.fabric.inject[src], route)

        if start == 0:
            launch()
        else:
            net.engine.at(start, launch)
    net.run()
    return out


def run_flit_scenario(
    topo: NetworkTopology, params: SimParams, jobs: list[Job]
) -> dict[tuple[int, int], float]:
    """Run ``jobs`` on the flit-level reference backend; return delivery times."""
    rt = UpDownRouting.build(topo, orientation=params.routing_tree)
    fab = FlitLevelFabric(topo, params)
    for i, (start, src, dsts) in enumerate(jobs):
        fab.inject(start, multicast_route(topo, rt, src, dsts), worm_id=i)
    fab.run()
    return {k: float(v) for k, v in fab.deliveries.items()}
