"""Contention-free closed-form latency predictions.

Derived directly from the model definition (DESIGN.md section 4):

* header advance per switch-switch hop: routing + crossbar + link;
* injection costs one link crossing, delivery a crossbar + link;
* payload streams at 1 flit/cycle behind the header (tail = header + L - 1);
* a conventional message adds, around the network part, the host overhead,
  the message DMA, and the NI overhead on each side.
"""

from __future__ import annotations

import math

from repro.multicast.treeworm import TreeWormPlan
from repro.params import SimParams
from repro.sim.network import SimNetwork


def unicast_packet_network_latency(params: SimParams, hops: int) -> float:
    """NI-to-NI tail latency of one packet across ``hops`` switch links."""
    if hops < 0:
        raise ValueError("hops must be non-negative")
    header = (
        params.link_delay
        + params.routing_delay
        + hops * (params.switch_delay + params.link_delay + params.routing_delay)
        + (params.switch_delay + params.link_delay)
    )
    return header + params.packet_flits - 1


def unicast_message_latency(params: SimParams, hops: int) -> float:
    """Host-to-host latency of a single-packet message (exact).

    For multi-packet messages the receive-side overlap of DMA and wire time
    makes the closed form configuration-dependent; the simulator is the
    reference there.
    """
    if params.message_packets != 1:
        raise ValueError("closed form is exact only for single-packet messages")
    dma = params.packet_flits / params.io_bus_flits_per_cycle
    return (
        2 * params.o_host
        + 2 * dma
        + 2 * params.o_ni
        + unicast_packet_network_latency(params, hops)
    )


def binomial_multicast_latency_bound(params: SimParams, n_dests: int) -> float:
    """A lower bound on the software binomial multicast's latency.

    ceil(log2(n+1)) sequential communication steps, each costing at least
    one host send overhead, one NI overhead, and one receive-side host
    overhead on the critical path.  Real latency adds DMA and wire time, so
    the simulator must always measure at least this.
    """
    if n_dests < 1:
        raise ValueError("need at least one destination")
    steps = math.ceil(math.log2(n_dests + 1))
    return steps * (params.o_host + params.o_ni) + params.o_host


def tree_worm_dest_hops(
    net: SimNetwork, plan: TreeWormPlan, dest: int
) -> int:
    """Switch-link hops the tree worm's copy for ``dest`` traverses.

    Destinations attached to an up-path switch are dropped during the climb
    (at that switch's path index); all others ride to the turn switch and
    descend along a minimal down path (the steer's priority encoding always
    picks a port one hop closer, so down hops = the down-DAG distance).
    """
    dest_switch = net.topo.switch_of_node(dest)
    if dest_switch in plan.up_switch_path:
        return plan.up_switch_path.index(dest_switch)
    up_hops = len(plan.up_switch_path) - 1
    dd = net.routing.down_distances(plan.turn_switch).get(dest_switch)
    if dd is None:
        raise ValueError(f"turn switch cannot reach destination {dest}")
    return up_hops + dd


def tree_worm_latency(
    net: SimNetwork, source: int, dests: list[int]
) -> float:
    """Exact contention-free latency of the tree-worm multicast (1 packet).

    The single worm pays one sender-side host+DMA+NI pipeline; each
    destination's copy arrives after its hop count; the slowest destination
    (plus its receive pipeline) sets the multicast latency.
    """
    params = net.params
    if params.message_packets != 1:
        raise ValueError("closed form is exact only for single-packet messages")
    from repro.multicast.treeworm import plan_tree_worm

    plan = plan_tree_worm(net, net.topo.switch_of_node(source), dests)
    dma = params.packet_flits / params.io_bus_flits_per_cycle
    send_side = params.o_host + dma + params.o_ni
    worst = max(
        unicast_packet_network_latency(
            params, tree_worm_dest_hops(net, plan, d)
        )
        for d in dests
    )
    recv_side = params.o_ni + dma + params.o_host
    return send_side + worst + recv_side
