"""Up*/down* routing (Autonet) on an irregular switch graph.

Every link gets an *up* end: (1) the end whose switch is closer to the BFS
root, or (2) the end with the lower switch id when both ends are at the same
level.  A legal route traverses zero or more links in the up direction
followed by zero or more links in the down direction -- a packet may never go
up after having gone down.  Because the directed "up" links form a DAG, the
rule is deadlock-free.

This module computes, for every (switch, routing phase, destination switch)
triple, the set of next hops that lie on a *minimal* legal route, which is
what both the adaptive and the deterministic routing policies consult.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.routing.bfs_tree import BfsTree, build_bfs_tree
from repro.topology.graph import NetworkTopology, SwitchLink


class Phase(enum.Enum):
    """Routing phase of a packet under the up*/down* rule."""

    UP = 0
    """The packet has only traversed up links so far (may still turn down)."""

    DOWN = 1
    """The packet has traversed a down link (must keep going down)."""


@dataclass(frozen=True)
class Hop:
    """One candidate next hop on a minimal legal route."""

    link: SwitchLink
    to_switch: int
    next_phase: Phase


@dataclass
class UpDownRouting:
    """Routing tables for the up*/down* scheme.

    Build one per topology via :meth:`build`; all queries are O(1) lookups.
    """

    topo: NetworkTopology
    tree: BfsTree
    _up_end: dict[int, int] = field(default_factory=dict, repr=False)
    _dist: list[dict[tuple[int, Phase], int]] = field(default_factory=list, repr=False)
    _hops: list[dict[tuple[int, Phase], tuple[Hop, ...]]] = field(
        default_factory=list, repr=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, topo: NetworkTopology, root: int = 0, orientation: str = "bfs"
    ) -> "UpDownRouting":
        """Compute the orientation and all-pairs minimal-route tables.

        ``orientation`` selects the spanning structure the up/down rule is
        anchored to: ``"bfs"`` is the paper's Autonet rule (closer to the
        BFS root = up; ties by id); ``"dfs"`` uses DFS preorder labels
        (see :mod:`repro.routing.dfs_tree`).
        """
        tree = build_bfs_tree(topo, root=root)
        rt = cls(topo=topo, tree=tree)
        if orientation == "bfs":
            for lk in topo.links:
                rt._up_end[lk.link_id] = rt._bfs_up_end(lk)
        elif orientation == "dfs":
            from repro.routing.dfs_tree import dfs_preorder_labels

            labels = dfs_preorder_labels(topo, root=root)
            for lk in topo.links:
                rt._up_end[lk.link_id] = (
                    lk.a.switch
                    if labels[lk.a.switch] < labels[lk.b.switch]
                    else lk.b.switch
                )
        else:
            raise ValueError(f"unknown orientation {orientation!r}")
        rt._compute_tables()
        return rt

    def _bfs_up_end(self, link: SwitchLink) -> int:
        la, lb = self.tree.level[link.a.switch], self.tree.level[link.b.switch]
        if la != lb:
            return link.a.switch if la < lb else link.b.switch
        return min(link.a.switch, link.b.switch)

    # ------------------------------------------------------------------
    # Orientation queries
    # ------------------------------------------------------------------
    def up_end_switch(self, link: SwitchLink) -> int:
        """The switch at the *up* end of ``link``."""
        return self._up_end[link.link_id]

    def is_up_traversal(self, link: SwitchLink, from_switch: int) -> bool:
        """True when crossing ``link`` out of ``from_switch`` goes *up*."""
        return self._up_end[link.link_id] != from_switch

    def traversal_phase(self, link: SwitchLink, from_switch: int) -> Phase:
        """Phase a packet is in *after* crossing ``link`` from ``from_switch``."""
        return Phase.UP if self.is_up_traversal(link, from_switch) else Phase.DOWN

    def down_links_of(self, switch: int) -> list[SwitchLink]:
        """Links whose traversal out of ``switch`` goes down (toward leaves)."""
        return [
            lk for lk in self.topo.links_of(switch) if not self.is_up_traversal(lk, switch)
        ]

    def up_links_of(self, switch: int) -> list[SwitchLink]:
        """Links whose traversal out of ``switch`` goes up (toward the root)."""
        return [
            lk for lk in self.topo.links_of(switch) if self.is_up_traversal(lk, switch)
        ]

    # ------------------------------------------------------------------
    # Minimal-route tables
    # ------------------------------------------------------------------
    def _legal_transitions(self, switch: int, phase: Phase) -> list[tuple[SwitchLink, int, Phase]]:
        """All (link, neighbour, next phase) moves legal from a state."""
        out: list[tuple[SwitchLink, int, Phase]] = []
        for lk in self.topo.links_of(switch):
            t = lk.other_end(switch).switch
            if self.is_up_traversal(lk, switch):
                if phase is Phase.UP:
                    out.append((lk, t, Phase.UP))
            else:
                out.append((lk, t, Phase.DOWN))
        return out

    def _compute_tables(self) -> None:
        """All-pairs BFS over the (switch, phase) state graph, per destination."""
        S = self.topo.num_switches
        self._dist = [dict() for _ in range(S)]
        self._hops = [dict() for _ in range(S)]
        states = [(s, p) for s in range(S) for p in (Phase.UP, Phase.DOWN)]
        trans = {st: self._legal_transitions(*st) for st in states}
        # The per-destination backward BFS runs on flat integer state ids
        # with the (destination-independent) reverse adjacency built once:
        # at 512-1024 switches rebuilding the
        # adjacency per destination and hashing (switch, Phase) tuples in
        # the inner loops dominated table construction.  The enum-keyed
        # dicts stay the external table format, and visit/append orders are
        # unchanged, so the resulting tables are identical.
        sid = {st: i for i, st in enumerate(states)}
        rev: list[list[int]] = [[] for _ in states]
        moves_of: list[list[tuple[Hop, int]]] = [[] for _ in states]
        for st, moves in trans.items():
            i = sid[st]
            for lk, t, np_ in moves:
                j = sid[(t, np_)]
                moves_of[i].append((Hop(lk, t, np_), j))
                rev[j].append(i)
        for dest in range(S):
            dist = [-1] * len(states)
            up, down = sid[(dest, Phase.UP)], sid[(dest, Phase.DOWN)]
            dist[up] = dist[down] = 0
            frontier = [up, down]
            d = 0
            while frontier:
                d += 1
                nxt: list[int] = []
                for i in frontier:
                    for p in rev[i]:
                        if dist[p] < 0:
                            dist[p] = d
                            nxt.append(p)
                frontier = nxt
            dest_dist = self._dist[dest]
            dest_hops = self._hops[dest]
            for i, st in enumerate(states):
                if dist[i] < 0:
                    continue
                dest_dist[st] = dist[i]
                if st[0] == dest:
                    dest_hops[st] = ()
                    continue
                want = dist[i] - 1
                dest_hops[st] = tuple(
                    hop for hop, j in moves_of[i] if dist[j] == want
                )

    def distance(self, src: int, dest: int, phase: Phase = Phase.UP) -> int:
        """Minimal legal hop count between switches from a given phase.

        Raises:
            KeyError: if ``dest`` is unreachable from the state (cannot
                happen for ``Phase.UP`` starts in a connected network).
        """
        return self._dist[dest][(src, phase)]

    def next_hops(self, switch: int, phase: Phase, dest: int) -> tuple[Hop, ...]:
        """Candidate next hops on minimal legal routes toward ``dest``.

        An empty tuple means ``switch == dest`` (already there); a missing
        state (packet in DOWN phase with no legal continuation) raises
        ``KeyError`` -- by up*/down* correctness this never occurs for routes
        produced by this table itself.
        """
        return self._hops[dest][(switch, phase)]

    def reachable(self, switch: int, phase: Phase, dest: int) -> bool:
        """Whether ``dest`` has any legal route from the state at all."""
        return (switch, phase) in self._dist[dest]
