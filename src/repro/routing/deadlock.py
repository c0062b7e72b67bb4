"""Channel dependency graphs (CDGs) of up*/down* routing.

The paper leans on the classical result that up*/down* routing is
deadlock-free because "the directed links do not form loops" once every
route is an up* prefix followed by a down* suffix.  This module makes that
argument checkable: it builds the channel dependency graph of a topology
under a routing relation -- injection channels, both directions of every
switch link, and delivery channels -- and :func:`find_cycle` tests it for
acyclicity (Dally & Seitz).  The invariant check itself is
:func:`repro.routing.invariants.cdg_problems`.

A permissive "any minimal path" routing relation is included as a negative
control: on cyclic topologies it produces cyclic CDGs, which the test-suite
uses to show the checker actually detects deadlock potential.
"""

from __future__ import annotations

from repro.routing.updown import Phase, UpDownRouting
from repro.topology.graph import NetworkTopology, SwitchLink

ChannelKey = tuple
"""('inj', node) | ('fwd', link_id, from_switch) | ('del', node)"""


def _channels(topo: NetworkTopology) -> list[ChannelKey]:
    """Every channel: injection, delivery, and both directions of a link."""
    return (
        [("inj", n) for n in range(topo.num_nodes)]
        + [("del", n) for n in range(topo.num_nodes)]
        + [
            ("fwd", lk.link_id, frm)
            for lk in topo.links
            for frm in (lk.a.switch, lk.b.switch)
        ]
    )


def _arrival_switch(
    topo: NetworkTopology, links: dict[int, SwitchLink], chan: ChannelKey
) -> int | None:
    """The switch a channel enters (None for delivery channels, which
    terminate at a node and have no dependencies)."""
    if chan[0] == "inj":
        return topo.switch_of_node(chan[1])
    if chan[0] == "fwd":
        return links[chan[1]].other_end(chan[2]).switch
    return None


def find_cycle(deps: dict[ChannelKey, set[ChannelKey]]) -> list[ChannelKey] | None:
    """Return one dependency cycle, or None if the graph is acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {c: WHITE for c in deps}
    stack: list[ChannelKey] = []

    def dfs(c: ChannelKey) -> list[ChannelKey] | None:
        colour[c] = GREY
        stack.append(c)
        for nxt in deps[c]:
            if colour[nxt] == GREY:
                return stack[stack.index(nxt):] + [nxt]
            if colour[nxt] == WHITE:
                found = dfs(nxt)
                if found:
                    return found
        colour[c] = BLACK
        stack.pop()
        return None

    for c in deps:
        if colour[c] == WHITE:
            found = dfs(c)
            if found:
                return found
    return None


def build_multicast_cdg(
    topo: NetworkTopology, rt: UpDownRouting
) -> dict[ChannelKey, set[ChannelKey]]:
    """CDG extended with the dependencies multidestination worms introduce.

    Unicast traffic on *minimal* legal routes needs only a subset of these
    edges (:meth:`UpDownRouting.next_hops` returns legal continuations
    only), so acyclicity here also proves unicast deadlock freedom.
    Multidestination worms add two things:

    * **Arbitrary legal continuations.**  A tree worm's up path is chosen at
      encode time toward a covering ancestor (not necessarily on a minimal
      route to any single destination), and its down distribution follows the
      reachability priority encoder.  A path worm forks a local delivery off
      the planned path at every switch it crosses.  Both stay within the
      up*/down* rule, so the extension adds an edge from every channel
      entering a switch to *every* legal next channel (all up and down
      outputs in the UP phase, all down outputs in the DOWN phase) and to
      every delivery channel of the switch.

    * **Replication branch sets.**  A replicating switch holds the branch
      output channels of one worm *simultaneously*: while flits stream into
      the branches already acquired, the worm blocks on the branches still
      being requested.  Our switches acquire branches in ascending link-id
      order (see ``TreeWormScheme.make_steer``), so the induced dependency
      runs from each held branch to every later-ordered sibling down output
      of the same switch -- one direction only, which is exactly why ordered
      acquisition stays deadlock-free while unordered acquisition would not.

    For any valid up*/down* orientation the result is acyclic (up DAG, then
    down DAG, siblings ordered by link id); a corrupted orientation whose
    "down" links form a directed cycle is detected by :func:`find_cycle`
    even when the minimal-route tables never exercise the cycle.
    """
    channels = _channels(topo)
    links = {lk.link_id: lk for lk in topo.links}
    deps: dict[ChannelKey, set[ChannelKey]] = {c: set() for c in channels}
    for chan in channels:
        s = _arrival_switch(topo, links, chan)
        if s is None:
            continue
        for node in topo.nodes_on_switch(s):
            deps[chan].add(("del", node))
        if chan[0] == "inj" or rt.traversal_phase(
            links[chan[1]], chan[2]
        ) is Phase.UP:
            for lk in rt.up_links_of(s):
                deps[chan].add(("fwd", lk.link_id, s))
        for lk in rt.down_links_of(s):
            deps[chan].add(("fwd", lk.link_id, s))
    # Replication branch sets: held branch -> later-ordered sibling branch.
    for s in range(topo.num_switches):
        down = sorted(rt.down_links_of(s), key=lambda lk: lk.link_id)
        for i, held in enumerate(down):
            for requested in down[i + 1:]:
                deps[("fwd", held.link_id, s)].add(
                    ("fwd", requested.link_id, s)
                )
    return deps


def build_escape_cdg(
    topo: NetworkTopology, rt: UpDownRouting, vc_count: int = 2
) -> dict[ChannelKey, set[ChannelKey]]:
    """Lane-annotated CDG of the escape-VC fabric (``vc_routing="escape"``).

    Forward channels split into ``vc_count`` lane nodes
    ``('fwd', link_id, from_switch, lane)``; injection and delivery channels
    stay unannotated (they are pure sources/sinks of the dependency
    relation, so lanes would only multiply nodes without changing cycles).
    Three edge families model the escape discipline
    (see docs/virtual_channels.md):

    1. **Blocking waits.**  A worm holding any lane of a channel may *wait*
       for a legal up*/down* continuation; the wait is lane-agnostic (the
       FIFO grants whichever lane frees first, lane 0 included), so each
       held lane points at every lane of every multicast-CDG successor.
    2. **Adaptive claims.**  Lanes >= 1 of any minimal-path continuation
       may be claimed from any held lane.  The claim itself never blocks
       (shortcuts are taken only when a lane is free at decision time), but
       the hold-while-requesting edge exists while the worm drains.
    3. **Post-shortcut continuations.**  A lane >= 1 may carry a worm that
       crossed the channel *against* its up/down orientation and restarted
       in the UP phase, so those lanes also point at the full UP-phase
       legal continuation set of their arrival switch.

    The full graph is generally **cyclic** on cyclic topologies -- families
    2 and 3 are exactly the unrestricted minimal-path relation the up*/down*
    rule exists to break -- which is why deadlock freedom rests on the
    lane-0 restriction instead: see :func:`escape_subgraph`.
    """
    if vc_count < 2:
        raise ValueError("escape routing needs at least 2 VCs")
    from repro.topology.analysis import switch_distances

    base = build_multicast_cdg(topo, rt)
    dist = [switch_distances(topo, s) for s in range(topo.num_switches)]

    def lanes_of(chan: ChannelKey, adaptive_only: bool = False) -> list[ChannelKey]:
        if chan[0] == "fwd":
            start = 1 if adaptive_only else 0
            return [(*chan, lane) for lane in range(start, vc_count)]
        return [] if adaptive_only else [chan]

    deps: dict[ChannelKey, set[ChannelKey]] = {
        lane: set() for chan in base for lane in lanes_of(chan)
    }
    # 1. blocking waits: lifted multicast-CDG edges, lane-agnostic targets.
    for held, reqs in base.items():
        targets = {lane for req in reqs for lane in lanes_of(req)}
        for h in lanes_of(held):
            deps[h].update(targets)
    # 2 + 3. adaptive claims from every arrival switch, and UP-phase
    # continuations for adaptively-crossable lanes (>= 1).
    dest_switches = sorted({topo.switch_of_node(n) for n in range(topo.num_nodes)})
    links = {lk.link_id: lk for lk in topo.links}
    for chan in base:
        s = _arrival_switch(topo, links, chan)
        if s is None:
            continue
        minimal = {
            ("fwd", lk.link_id, s)
            for lk in topo.links_of(s)
            for d in dest_switches
            if dist[s][d] > 0
            and dist[lk.other_end(s).switch][d] == dist[s][d] - 1
        }
        claims = {
            lane for m in minimal for lane in lanes_of(m, adaptive_only=True)
        }
        for h in lanes_of(chan):
            deps[h].update(claims)
        if chan[0] != "fwd":
            continue
        up_state = {lane for lk in rt.up_links_of(s)
                    for lane in lanes_of(("fwd", lk.link_id, s))}
        up_state |= {lane for lk in rt.down_links_of(s)
                     for lane in lanes_of(("fwd", lk.link_id, s))}
        up_state |= {("del", n) for n in topo.nodes_on_switch(s)}
        for h in lanes_of(chan, adaptive_only=True):
            deps[h].update(up_state)
    return deps


def escape_subgraph(
    deps: dict[ChannelKey, set[ChannelKey]]
) -> dict[ChannelKey, set[ChannelKey]]:
    """Restrict an escape CDG to lane 0 plus injection/delivery channels.

    This is the graph Duato's condition cares about: every blocking wait in
    the fabric admits lane 0 (adaptive-only requests are never queued -- a
    shortcut is only taken when a free lane is in hand), so any deadlocked
    configuration would induce a cycle among lane-0 holds.  By construction
    the restriction equals the plain multicast CDG up to lane annotation
    (a test pins the equality), so
    :func:`repro.routing.invariants.cdg_problems` proves lane 0 acyclic.
    """

    def keep(chan: ChannelKey) -> bool:
        return chan[0] != "fwd" or chan[3] == 0

    return {
        chan: {t for t in targets if keep(t)}
        for chan, targets in deps.items()
        if keep(chan)
    }


def build_unrestricted_cdg(topo: NetworkTopology) -> dict[ChannelKey, set[ChannelKey]]:
    """Negative control: minimal-path routing with *no* up/down restriction.

    A channel entering switch ``s`` from ``u`` may request any outgoing link
    channel on a shortest path (plain BFS distances) to any destination the
    entering channel is itself minimal toward (``u`` one hop farther than
    ``s``); injection channels may request toward every destination.  On
    topologies with cycles this CDG is cyclic -- the deadlock the up*/down*
    rule exists to prevent -- while trees stay acyclic, since a minimal
    route never turns back.
    """
    from repro.topology.analysis import switch_distances

    dist = [switch_distances(topo, s) for s in range(topo.num_switches)]
    channels = _channels(topo)
    links = {lk.link_id: lk for lk in topo.links}
    deps: dict[ChannelKey, set[ChannelKey]] = {c: set() for c in channels}
    for chan in channels:
        s = _arrival_switch(topo, links, chan)
        if s is None:
            continue
        u = chan[2] if chan[0] == "fwd" else None
        for dest_node in range(topo.num_nodes):
            dest_switch = topo.switch_of_node(dest_node)
            if u is not None and dist[u][dest_switch] != dist[s][dest_switch] + 1:
                continue
            if dest_switch == s:
                deps[chan].add(("del", dest_node))
                continue
            for lk in topo.links_of(s):
                t = lk.other_end(s).switch
                if dist[t][dest_switch] == dist[s][dest_switch] - 1:
                    deps[chan].add(("fwd", lk.link_id, s))
    return deps
