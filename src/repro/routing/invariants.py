"""Static invariants of a (topology, routing) instance: one checker each.

The paper's correctness argument rests on three static premises, and this
module holds the single implementation of each:

* :func:`cdg_problems` -- up*/down* routing is deadlock-free: the channel
  dependency graph, extended with the replication and forking
  dependencies of multidestination worms, is acyclic.  The extended graph
  contains every unicast dependency, so it proves unicast deadlock freedom
  too, and it equals the lane-0 escape subgraph of the virtual-channel
  fabric up to lane tags, so it proves the escape argument's premise.
* :func:`reachability_problems` -- the reachability bit strings cover every
  down-reachable node (Section 3.2.3), judged against a witness that does
  not depend on how the table was built.
* :func:`header_problems` -- the tree scheme's N-bit header fits the packet
  (Section 3.3).

Every function returns plain problem strings (empty means the invariant
holds); fuzz and ``repro-experiments validate`` wrap them in their own
finding types.  :func:`verify_epoch_sequence` composes the first two over
every routing epoch a fault schedule walks the system through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.routing.deadlock import build_multicast_cdg, find_cycle
from repro.routing.dfs_tree import dfs_preorder_labels
from repro.routing.reachability import (
    FLIT_BITS,
    ReachabilityTable,
    header_flits,
    node_id_bits,
)
from repro.routing.updown import UpDownRouting
from repro.topology.faults import remove_link
from repro.topology.graph import NetworkTopology


def cdg_problems(topo: NetworkTopology, rt: UpDownRouting) -> list[str]:
    """Multicast-extended channel dependency graph acyclicity."""
    cycle = find_cycle(build_multicast_cdg(topo, rt))
    if cycle is None:
        return []
    return [
        "multicast-extended channel dependency graph has a cycle: "
        + " -> ".join(map(str, cycle))
    ]


def reachability_problems(
    reach: ReachabilityTable, orientation: str
) -> list[str]:
    """Check ``reach`` against a witness independent of how it was built.

    The witness depends on the orientation rule the routing was built
    with: the BFS spanning tree for Autonet's rule, the preorder labels
    for DFS (a BFS-tree edge may legitimately point up under DFS labels,
    so the BFS premise would report false violations there).
    """
    if orientation == "dfs":
        return _dfs_problems(reach)
    return _bfs_problems(reach)


def _subtree_nodes(routing: UpDownRouting) -> dict[int, set[int]]:
    """Nodes attached to each switch's BFS-tree subtree (inclusive)."""
    topo, tree = routing.topo, routing.tree
    out: dict[int, set[int]] = {
        s: set(topo.nodes_on_switch(s))
        for s in range(topo.num_switches)
    }
    order = sorted(range(topo.num_switches),
                   key=lambda s: tree.level[s], reverse=True)
    for s in order:
        if tree.parent[s] >= 0:
            out[tree.parent[s]] |= out[s]
    return out


def _bfs_problems(reach: ReachabilityTable) -> list[str]:
    """Every down port must cover the BFS-tree descendants behind it."""
    routing = reach.routing
    topo, tree = routing.topo, routing.tree
    problems: list[str] = []
    subtree = _subtree_nodes(routing)
    links_by_id = {lk.link_id: lk for lk in topo.links}
    for s in range(topo.num_switches):
        missing = subtree[s] - reach.down_reach(s)
        if missing:
            problems.append(
                f"switch {s}: down-reachability misses BFS descendants "
                f"{sorted(missing)}"
            )
        parent = tree.parent[s]
        if parent < 0:
            continue
        link = links_by_id[tree.parent_link[s]]
        if routing.is_up_traversal(link, parent):
            problems.append(
                f"BFS tree link {link.link_id} (switch {parent} -> child "
                f"{s}) is oriented up -- the orientation contradicts the "
                "spanning tree"
            )
            continue
        port_missing = subtree[s] - reach.port_reach(parent, link)
        if port_missing:
            problems.append(
                f"switch {parent} down port on link {link.link_id}: "
                f"reachability string misses subtree nodes "
                f"{sorted(port_missing)}"
            )
    return problems


def _dfs_problems(reach: ReachabilityTable) -> list[str]:
    """Reachability invariants for the DFS-preorder orientation.

    The DFS orientation is a total order, so the independent witness is
    the label assignment itself: every link's up end must be the
    lower-label end (a full recomputation of the orientation), every
    switch must down-reach its own attached nodes, and the label-0 root
    must down-reach every node (the tree-worm scheme's covering ancestor).
    """
    routing = reach.routing
    topo = routing.topo
    problems: list[str] = []
    labels = dfs_preorder_labels(topo)
    for lk in topo.links:
        want = (
            lk.a.switch
            if labels[lk.a.switch] < labels[lk.b.switch]
            else lk.b.switch
        )
        if routing.up_end_switch(lk) != want:
            problems.append(
                f"link {lk.link_id}: up end {routing.up_end_switch(lk)} "
                f"contradicts the DFS preorder labels (expected {want})"
            )
    for s in range(topo.num_switches):
        missing = set(topo.nodes_on_switch(s)) - reach.down_reach(s)
        if missing:
            problems.append(
                f"switch {s}: down-reachability misses its own attached "
                f"nodes {sorted(missing)}"
            )
    root = labels.index(0)
    missing = set(range(topo.num_nodes)) - reach.down_reach(root)
    if missing:
        problems.append(
            f"DFS root switch {root} fails to down-reach nodes "
            f"{sorted(missing)}"
        )
    return problems


def header_problems(num_nodes: int, packet_flits: int) -> list[str]:
    """The bit-string header must leave at least one payload flit."""
    flits = header_flits(num_nodes)
    if flits < packet_flits:
        return []
    return [
        f"bit-string header needs {flits} flits "
        f"({num_nodes} destination bits + {node_id_bits(num_nodes)} "
        f"source-id bits at {FLIT_BITS} bits/flit) but packets are only "
        f"{packet_flits} flits -- no room for payload"
    ]


RoutingBuilder = Callable[[NetworkTopology, int], UpDownRouting]
"""``(degraded_topo, epoch) -> routing`` -- injectable so tests can plant a
corrupt orientation at a chosen epoch."""


@dataclass(frozen=True)
class EpochProblem:
    """One invariant violation at one routing epoch."""

    epoch: int
    kind: str
    """``cdg-cycle``, ``reachability``, or ``disconnect``."""

    detail: str

    def message(self) -> str:
        return f"epoch {self.epoch}: {self.kind}: {self.detail}"


def verify_epoch_sequence(
    topo: NetworkTopology,
    fault_links: tuple[int, ...] | list[int],
    orientation: str = "bfs",
    routing_builder: RoutingBuilder | None = None,
) -> list[EpochProblem]:
    """Statically replay a fault sequence; prove CDG acyclicity and
    reachability at every routing epoch.

    A chaos fault schedule walks the system through a sequence of epochs:
    each fault removes a link and Autonet-style reconfiguration rebuilds
    the up*/down* orientation.  Epoch 0 is the intact topology; epoch ``k``
    is after the first ``k`` faults, rebuilt with ``routing_builder``
    (default: the same :meth:`UpDownRouting.build` call
    :meth:`SimNetwork.reconfigure` makes).  A fault that would disconnect
    the switch graph is itself a finding (the chaos layer could never
    absorb it), and replay stops there.

    Returns the (possibly empty) problem list; empty means the whole
    sequence is proven safe.
    """
    def build(current: NetworkTopology, epoch: int) -> UpDownRouting:
        if routing_builder is not None:
            return routing_builder(current, epoch)
        return UpDownRouting.build(current, orientation=orientation)

    problems: list[EpochProblem] = []
    current = topo
    for epoch in range(len(fault_links) + 1):
        routing = build(current, epoch)
        reach = ReachabilityTable.build(routing)
        for kind, details in (
            ("cdg-cycle", cdg_problems(current, routing)),
            ("reachability", reachability_problems(reach, orientation)),
        ):
            problems.extend(
                EpochProblem(epoch=epoch, kind=kind, detail=d) for d in details
            )
        if epoch == len(fault_links):
            break
        link_id = fault_links[epoch]
        try:
            current = remove_link(current, link_id)
        except ValueError as exc:
            problems.append(EpochProblem(
                epoch=epoch + 1, kind="disconnect",
                detail=f"fault on link {link_id} is not absorbable: {exc}",
            ))
            break
    return problems
