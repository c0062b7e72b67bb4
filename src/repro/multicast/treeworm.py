"""Tree-based single-worm multicast with bit-string headers (system S11).

The strongest switch-supported scheme the paper studies (Sivaram, Panda &
Stunkel, PCRCW'97): the source encodes the whole destination set as an
N-bit string in the worm header.  The worm climbs up-direction links to the
nearest ancestor switch whose down-reachability covers every destination,
then replicates downward: each switch compares the header against the
reachability string of each down output port, forwards a copy with a
suitably masked header through every matching port, and delivers local
copies to attached destinations.  One worm, one communication phase, one
software overhead at the source.

Hardware-faithful details we model:

* Destination bits are assigned to exactly *one* matching down port (the
  copy's header is "modified" per the paper), so no duplicate deliveries;
  we resolve the port choice like a priority encoder programmed for shortest
  down-distance (tie: lowest link id).
* Destinations attached to switches the worm crosses -- including during the
  up phase -- are dropped locally and stripped from the header.
* The up path is fixed per worm (chosen at encode time toward the covering
  ancestor); adaptivity applies among parallel links to the same next switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.multicast.base import MulticastResult, MulticastScheme
from repro.routing.updown import UpDownRouting
from repro.sim.messaging import HostReceiver, host_send, host_send_multiworm
from repro.sim.network import SimNetwork
from repro.sim.worm import Deliver, Forward
from repro.topology.graph import NetworkTopology, SwitchLink


@dataclass(frozen=True)
class TreeWormPlan:
    """Static route plan for one tree-based multidestination worm."""

    source_switch: int
    turn_switch: int
    up_switch_path: tuple[int, ...]
    """Switch sequence from the source switch to the turn switch, inclusive."""


def down_port_assignment(
    topo: NetworkTopology,
    rt: UpDownRouting,
    switch: int,
    remaining: frozenset[int],
) -> list[tuple[SwitchLink, frozenset[int]]]:
    """Assign header bits to one switch's down ports (the header decode).

    Each destination goes to exactly one down link: the one minimising
    (down distance to the destination's switch, link id), a priority
    encoder programmed for shortest down-distance.  Returns
    ``(link, destination subset)`` pairs in link-id order.  Takes the
    topology and routing a worm was planned on, not the network: a worm
    in flight keeps decoding on its own epoch's tables across a
    reconfiguration.
    """
    assignment: dict[int, set[int]] = {}
    link_of: dict[int, SwitchLink] = {}
    for d in sorted(remaining):
        t = topo.switch_of_node(d)
        best = None
        for lk in rt.down_links_of(switch):
            v = lk.other_end(switch).switch
            dd = rt.down_distances(v).get(t)
            if dd is None:
                continue
            key = (dd, lk.link_id)
            if best is None or key < best[0]:
                best = (key, lk)
        if best is None:
            raise AssertionError(
                f"switch {switch} cannot reach destination {d} "
                "downward despite covering it"
            )
        lk = best[1]
        assignment.setdefault(lk.link_id, set()).add(d)
        link_of[lk.link_id] = lk
    return [
        (link_of[link_id], frozenset(assignment[link_id]))
        for link_id in sorted(assignment)
    ]


def plan_tree_worm(net: SimNetwork, source_switch: int,
                   dests: list[int]) -> TreeWormPlan:
    """Choose the covering ancestor and up path for a destination set.

    BFS over up-direction links from the source switch; the first (shallowest,
    then lowest-id) switch whose down-reachability covers all destinations
    becomes the turn.  The root always covers everything, so a turn exists.
    """
    rt, reach = net.routing, net.reach
    dset = frozenset(dests)
    parent: dict[int, int] = {source_switch: -1}
    frontier = [source_switch]
    while frontier:
        for s in sorted(frontier):
            if reach.covers(s, dset):
                path = [s]
                while parent[path[-1]] != -1:
                    path.append(parent[path[-1]])
                path.reverse()
                return TreeWormPlan(source_switch, s, tuple(path))
        nxt = []
        for s in sorted(frontier):
            for lk in rt.up_links_of(s):
                t = lk.other_end(s).switch
                if t not in parent:
                    parent[t] = s
                    nxt.append(t)
        frontier = nxt
    raise AssertionError(
        "no covering ancestor found -- up*/down* invariant violated"
    )


def verify_tree_plan(net: SimNetwork, plan: TreeWormPlan,
                     dests: list[int]) -> list[str]:
    """Statically check a tree-worm route plan.

    The tree analogue of :func:`repro.multicast.pathworm.verify_plan`,
    run by the fuzz ``plan-static`` oracle.  Returns human-readable
    problems (empty when the plan is sound):

    * the up path starts at the source switch, ends at the turn switch,
      and each consecutive pair is joined by an up-direction link (so the
      climb is a legal up* prefix by construction);
    * the turn switch down-covers every destination not already dropped
      at a switch on the up path (the down* suffix exists -- the header
      decode then only ever follows down links).
    """
    topo, rt, reach = net.topo, net.routing, net.reach
    problems: list[str] = []
    path = plan.up_switch_path
    if not path:
        return ["up path is empty"]
    if path[0] != plan.source_switch:
        problems.append(
            f"up path starts at switch {path[0]}, "
            f"not the source switch {plan.source_switch}")
    if path[-1] != plan.turn_switch:
        problems.append(
            f"up path ends at switch {path[-1]}, "
            f"not the turn switch {plan.turn_switch}")
    if len(set(path)) != len(path):
        problems.append("up path revisits a switch")
    for a, b in zip(path, path[1:]):
        if not any(
            lk.other_end(a).switch == b for lk in rt.up_links_of(a)
        ):
            problems.append(f"no up-direction link from switch {a} to {b}")
    remaining = frozenset(dests)
    for s in path:
        remaining = remaining - frozenset(topo.nodes_on_switch(s))
    if not reach.covers(plan.turn_switch, remaining):
        uncovered = sorted(remaining - reach.down_reach(plan.turn_switch))
        problems.append(
            f"turn switch {plan.turn_switch} does not down-cover "
            f"destinations {uncovered}")
    return problems


class TreeWormScheme(MulticastScheme):
    """Single-phase switch-based multicast via tree-based multi worms.

    By default one worm carries the whole destination set (the paper's
    scheme: an N-bit header names every node).  ``max_header_dests`` caps
    how many destinations one worm header can encode -- the hardware-cost
    concern the paper raises in Section 3.3 ("depending on the size of the
    bit string ... the cost of such logic may be significant") -- splitting
    the set into several worms injected back to back, still in one
    communication phase.
    """

    name = "tree"

    def __init__(self, max_header_dests: int | None = None) -> None:
        if max_header_dests is not None and max_header_dests < 1:
            raise ValueError("max_header_dests must be >= 1")
        self.max_header_dests = max_header_dests

    def chunk_dests(self, net: SimNetwork, source: int,
                    dests: list[int]) -> list[list[int]]:
        """Partition the destination set into per-worm header chunks.

        Destinations are clustered by switch (far clusters first) before
        chunking so each worm's subtree stays topologically compact.
        """
        from repro.multicast.ordering import contention_aware_order

        if self.max_header_dests is None or len(dests) <= self.max_header_dests:
            return [list(dests)]
        ordered = contention_aware_order(net.topo, net.routing, source, dests)
        k = self.max_header_dests
        return [ordered[i:i + k] for i in range(0, len(ordered), k)]

    def plan(self, net: SimNetwork, source: int, dests: list[int]) -> TreeWormPlan:
        """The (single, uncapped) worm's route plan (exposed for tests)."""
        return plan_tree_worm(net, net.topo.switch_of_node(source), dests)

    def make_steer(
        self,
        net: SimNetwork,
        plan: TreeWormPlan,
        dests: list[int],
    ) -> Callable:
        """Build the worm steering function implementing header decode.

        Worm state is ``("up", i, remaining)`` while climbing (``i`` indexes
        the up path) or ``("down", remaining)`` during distribution, with
        ``remaining`` the set of destination bits still in the header copy.
        """
        topo, rt, fab = net.topo, net.routing, net.fabric

        def local_drops(switch: int, remaining: frozenset[int]):
            instrs = []
            here = frozenset(topo.nodes_on_switch(switch)) & remaining
            for node in sorted(here):
                instrs.append(Deliver(fab.deliver[node]))
            return instrs, remaining - here

        def distribute_down(switch: int, remaining: frozenset[int]):
            """Priority-encode remaining header bits onto down ports."""
            instrs, remaining = local_drops(switch, remaining)
            for lk, subset in down_port_assignment(topo, rt, switch, remaining):
                ch = fab.forward_channel(lk, switch)
                instrs.append(Forward([(ch, ("down", subset))]))
            return instrs

        def steer(switch: int, state):
            mode = state[0]
            if mode == "down":
                return distribute_down(switch, state[1])
            _tag, idx, remaining = state
            assert plan.up_switch_path[idx] == switch
            if switch == plan.turn_switch:
                return distribute_down(switch, remaining)
            instrs, remaining = local_drops(switch, remaining)
            nxt = plan.up_switch_path[idx + 1]
            # Adaptivity among parallel up links to the same next switch.
            options = [
                (fab.forward_channel(lk, switch), ("up", idx + 1, remaining))
                for lk in rt.up_links_of(switch)
                if lk.other_end(switch).switch == nxt
            ]
            if remaining or not instrs:
                instrs.append(Forward(options))
            return instrs

        return steer

    def execute(
        self,
        net: SimNetwork,
        source: int,
        dests: list[int],
        on_complete: Callable[[MulticastResult], None] | None = None,
    ) -> MulticastResult:
        result = self._new_result(net, source, dests)
        dlist = list(result.dests)
        m = net.params.message_packets
        receivers = {
            d: HostReceiver(
                net.hosts[d],
                m,
                on_delivered=lambda t, n=d: result._record(n, t, on_complete),
            )
            for d in dlist
        }

        def make_launcher(steer, initial_state) -> Callable[[], None]:
            def launch() -> None:
                net.hosts[source].launch_worm(
                    steer,
                    initial_state=initial_state,
                    on_delivered=lambda n, _t: receivers[n].packet_arrived(),
                    label=f"tree:{source}",
                )

            return launch

        chunks = self._cached_plan(
            net,
            ("chunks", source, result.dests),
            lambda: self.chunk_dests(net, source, dlist),
        )
        groups: list[list[Callable[[], None]]] = []
        for chunk in chunks:

            def plan_chunk(c=chunk):
                p = plan_tree_worm(net, net.topo.switch_of_node(source), c)
                return p, self.make_steer(net, p, c)

            _plan, steer = self._cached_plan(
                net, ("worm", source, tuple(chunk)), plan_chunk
            )
            state = ("up", 0, frozenset(chunk))
            groups.append([make_launcher(steer, state) for _ in range(m)])
        if len(groups) == 1:
            host_send(net.hosts[source], groups[0])
        else:
            host_send_multiworm(net.hosts[source], groups)
        return result
