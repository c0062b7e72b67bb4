"""Per-port reachability sets for tree-based multicast (system S4).

The tree-based scheme's switches associate with every *down* output port a
bit string naming the nodes reachable through that port by down-only routes
(Section 3.2.3 of the paper).  A multidestination worm that has finished its
up phase is replicated onto exactly the down ports whose reachability string
intersects the worm's destination header.

Because the down-directed links form a DAG, reachability is a straightforward
memoised union; we expose it both as Python sets (for algorithms) and as bit
masks (mirroring the paper's bit-string encoding).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.routing.dfs_tree import dfs_preorder_labels
from repro.routing.updown import UpDownRouting
from repro.topology.graph import SwitchLink


@dataclass
class ReachabilityTable:
    """Down-reachability of nodes from switches and through down ports."""

    routing: UpDownRouting
    _switch_reach: dict[int, frozenset[int]] = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, routing: UpDownRouting) -> "ReachabilityTable":
        """Compute down-reachable node sets for every switch."""
        table = cls(routing=routing)
        topo = routing.topo
        # Iterate switches from the deepest BFS level upward so every
        # down-neighbour is already resolved (the down graph follows BFS
        # levels except for same-level links, which are oriented by id --
        # handle both with memoised recursion instead of a level sweep).
        for s in range(topo.num_switches):
            table._reach(s)
        return table

    def _reach(self, switch: int) -> frozenset[int]:
        cached = self._switch_reach.get(switch)
        if cached is not None:
            return cached
        topo = self.routing.topo
        acc: set[int] = set(topo.nodes_on_switch(switch))
        # Mark before recursing: the down graph is acyclic, so this is only a
        # guard against topology bugs, surfaced as a missing-entry KeyError.
        self._switch_reach[switch] = frozenset()
        for lk in self.routing.down_links_of(switch):
            acc |= self._reach(lk.other_end(switch).switch)
        result = frozenset(acc)
        self._switch_reach[switch] = result
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def down_reach(self, switch: int) -> frozenset[int]:
        """Nodes reachable from ``switch`` using only down traversals.

        Includes the nodes attached to ``switch`` itself.
        """
        return self._switch_reach[switch]

    def port_reach(self, switch: int, link: SwitchLink) -> frozenset[int]:
        """Reachability set of the down output port of ``switch`` on ``link``.

        Raises:
            ValueError: if traversing ``link`` out of ``switch`` goes up
                (up ports carry no reachability string in the paper).
        """
        if self.routing.is_up_traversal(link, switch):
            raise ValueError(
                f"link {link.link_id} is an up port of switch {switch}; "
                "reachability strings exist only for down ports"
            )
        return self.down_reach(link.other_end(switch).switch)

    def covers(self, switch: int, dests: frozenset[int] | set[int]) -> bool:
        """True when every destination is down-reachable from ``switch``."""
        return set(dests) <= self._switch_reach[switch]

    # ------------------------------------------------------------------
    # Bit-string encodings (the hardware view)
    # ------------------------------------------------------------------
    def port_reach_mask(self, switch: int, link: SwitchLink) -> int:
        """The paper's reachability bit string, as an int bit mask.

        Bit ``i`` is set iff node ``i`` is reachable through the port.
        """
        return _mask(self.port_reach(switch, link))

    def total_reach_mask(self, switch: int) -> int:
        """Bit mask of all nodes down-reachable from ``switch``."""
        return _mask(self.down_reach(switch))


def reachability_problems(
    reach: ReachabilityTable, orientation: str
) -> list[str]:
    """Check ``reach`` against a witness independent of how it was built.

    The witness depends on the orientation rule the routing was built
    with: the BFS spanning tree for Autonet's rule, the preorder labels
    for DFS (a BFS-tree edge may legitimately point up under DFS labels,
    so the BFS premise would report false violations there).  Returns one
    plain message per violation; empty means the strings are consistent.
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
    lower-label end (a full recomputation of the orientation), and the
    label-0 root must down-reach every node (the tree-worm scheme's
    covering ancestor).
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
    root = labels.index(0)
    missing = set(range(topo.num_nodes)) - reach.down_reach(root)
    if missing:
        problems.append(
            f"DFS root switch {root} fails to down-reach nodes "
            f"{sorted(missing)}"
        )
    return problems


def _mask(nodes: frozenset[int]) -> int:
    m = 0
    for n in nodes:
        m |= 1 << n
    return m


def header_mask(dests: list[int] | set[int] | frozenset[int]) -> int:
    """Encode a destination set as the worm's bit-string header."""
    return _mask(frozenset(dests))


def decode_mask(mask: int) -> frozenset[int]:
    """Decode a bit-string header back into a destination set."""
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)
