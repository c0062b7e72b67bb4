"""Up*/down* routing (Autonet) on an irregular switch graph.

Every link gets an *up* end: (1) the end whose switch is closer to the BFS
root, or (2) the end with the lower switch id when both ends are at the same
level.  A legal route traverses zero or more links in the up direction
followed by zero or more links in the down direction -- a packet may never go
up after having gone down.  Because the directed "up" links form a DAG, the
rule is deadlock-free.

This module answers, for any (switch, routing phase, destination switch)
triple, which next hops lie on a *minimal* legal route, which is what both
the adaptive and the deterministic routing policies consult.  Only the
orientation, the per-switch up/down link lists and the int-only reverse
(switch, phase) state graph are built up front.  The first query per
destination runs one backward BFS over that graph, and a state's legal
moves are built on the first next-hop lookup that needs them, so a network
computes only the routes its traffic asks for.
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


_DOWN = Phase.DOWN
"""Bound once: ``phase is _DOWN`` costs far less than ``phase.value`` in
the per-packet :meth:`UpDownRouting.next_hops`."""


@dataclass
class UpDownRouting:
    """Routing tables for the up*/down* scheme.

    Build one per topology via :meth:`build`.  The first query per
    destination runs one BFS over the (switch, phase) state graph; later
    queries for that destination are lookups.  States are flat ints,
    ``2 * switch + phase.value``.  A state's (hop, next state) moves are
    built on its first next-hop lookup and shared by every destination;
    its next hops toward a destination are kept in that destination's
    sparse dict, which holds only the states a route has asked about.
    """

    topo: NetworkTopology
    tree: BfsTree
    _up_end: dict[int, int] = field(default_factory=dict, repr=False)
    _up_links: list[tuple[SwitchLink, ...]] = field(default_factory=list, repr=False)
    _down_links: list[tuple[SwitchLink, ...]] = field(
        default_factory=list, repr=False
    )
    _moves: list[tuple[tuple[Hop, int], ...] | None] = field(
        default_factory=list, repr=False
    )
    """Per state, once looked up: the legal (hop, next state) moves, in
    link order."""
    _rev: list[list[int]] = field(default_factory=list, repr=False)
    """Per state: the states with a legal move into it."""
    _dist: list[list[int] | None] = field(default_factory=list, repr=False)
    """Per destination, once queried: hop count per state (-1: unreachable)."""
    _hops: list[dict[int, tuple[Hop, ...]] | None] = field(
        default_factory=list, repr=False
    )
    """Per destination, once queried: state -> next hops, holding only the
    states a ``next_hops`` query has asked about.  A unicast route reads
    one state per hop of the 2S, so a dense per-state list would be mostly
    empty slots."""
    _down_dist: dict[int, dict[int, int]] = field(default_factory=dict, repr=False)
    """Per source switch, once queried: down-only hop count to each switch
    it reaches."""

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, topo: NetworkTopology, root: int = 0, orientation: str = "bfs"
    ) -> "UpDownRouting":
        """Compute the orientation and the (switch, phase) state graph.

        ``orientation`` selects the spanning structure the up/down rule is
        anchored to: ``"bfs"`` is the paper's Autonet rule (closer to the
        BFS root = up; ties by id); ``"dfs"`` uses DFS preorder labels
        (see :mod:`repro.routing.dfs_tree`).
        """
        tree = build_bfs_tree(topo, root=root)
        rt = cls(topo=topo, tree=tree)
        up_end = rt._up_end
        if orientation == "bfs":
            level = tree.level
            for lk in topo.links:
                a, b = lk.a.switch, lk.b.switch
                la, lb = level[a], level[b]
                # The end closer to the root is up; a level tie goes to
                # the lower switch id.
                up_end[lk.link_id] = (
                    a if la < lb or (la == lb and a < b) else b
                )
        elif orientation == "dfs":
            from repro.routing.dfs_tree import dfs_preorder_labels

            labels = dfs_preorder_labels(topo, root=root)
            for lk in topo.links:
                up_end[lk.link_id] = (
                    lk.a.switch
                    if labels[lk.a.switch] < labels[lk.b.switch]
                    else lk.b.switch
                )
        else:
            raise ValueError(f"unknown orientation {orientation!r}")
        rt._compute_tables()
        return rt

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

    def down_links_of(self, switch: int) -> tuple[SwitchLink, ...]:
        """Links whose traversal out of ``switch`` goes down (toward leaves)."""
        return self._down_links[switch]

    def up_links_of(self, switch: int) -> tuple[SwitchLink, ...]:
        """Links whose traversal out of ``switch`` goes up (toward the root)."""
        return self._up_links[switch]

    # ------------------------------------------------------------------
    # Minimal-route tables
    # ------------------------------------------------------------------
    def _compute_tables(self) -> None:
        """Build the per-switch link lists and reverse state graph from
        ``_up_end``.

        Call again after editing ``_up_end``: it rebuilds the per-switch
        up/down link lists and the reverse graph, and drops every cached
        move, per-destination table and down-distance map.
        """
        S = self.topo.num_switches
        up_links: list[list[SwitchLink]] = [[] for _ in range(S)]
        down_links: list[list[SwitchLink]] = [[] for _ in range(S)]
        rev: list[list[int]] = [[] for _ in range(2 * S)]
        up_end = self._up_end
        # One pass in link order keeps each switch's lists in its
        # ``links_of`` order; each end is classified on its own.
        for lk in self.topo.links:
            a, b = lk.a.switch, lk.b.switch
            u = up_end[lk.link_id]
            if u != a:  # crossing out of a goes up
                up_links[a].append(lk)
                rev[2 * b].append(2 * a)
            else:
                down_links[a].append(lk)
                rev[2 * b + 1] += (2 * a, 2 * a + 1)
            if u != b:
                up_links[b].append(lk)
                rev[2 * a].append(2 * b)
            else:
                down_links[b].append(lk)
                rev[2 * a + 1] += (2 * b, 2 * b + 1)
        self._up_links = [tuple(links) for links in up_links]
        self._down_links = [tuple(links) for links in down_links]
        self._moves = [None] * (2 * S)
        self._rev = rev
        self._dist = [None] * S
        self._hops = [None] * S
        self._down_dist = {}

    def _state_moves(self, i: int) -> tuple[tuple[Hop, int], ...]:
        """State ``i``'s legal (hop, next state) moves, in link order."""
        s = i >> 1
        moves: list[tuple[Hop, int]] = []
        if i & 1:  # DOWN: down links only
            for lk in self._down_links[s]:
                t = lk.b.switch if lk.a.switch == s else lk.a.switch
                moves.append((Hop(lk, t, _DOWN), 2 * t + 1))
        else:
            up_end = self._up_end
            for lk in self.topo.links_of(s):
                t = lk.b.switch if lk.a.switch == s else lk.a.switch
                if up_end[lk.link_id] != s:
                    moves.append((Hop(lk, t, Phase.UP), 2 * t))
                else:
                    moves.append((Hop(lk, t, _DOWN), 2 * t + 1))
        found = self._moves[i] = tuple(moves)
        return found

    def _solve(self, dest: int) -> list[int]:
        """Backward BFS from ``dest``'s two states: hop count per state."""
        rev = self._rev
        dist = [-1] * len(rev)
        dist[2 * dest] = dist[2 * dest + 1] = 0
        frontier = [2 * dest, 2 * dest + 1]
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
        self._dist[dest] = dist
        self._hops[dest] = {}
        return dist

    def _state_dist(self, switch: int, phase: Phase, dest: int) -> int:
        dist = self._dist[dest]
        if dist is None:
            dist = self._solve(dest)
        return dist[2 * switch + (phase is _DOWN)]

    def distance(self, src: int, dest: int, phase: Phase = Phase.UP) -> int:
        """Minimal legal hop count between switches from a given phase.

        Raises:
            KeyError: if ``dest`` is unreachable from the state (cannot
                happen for ``Phase.UP`` starts in a connected network).
        """
        d = self._state_dist(src, phase, dest)
        if d < 0:
            raise KeyError((src, phase))
        return d

    def next_hops(self, switch: int, phase: Phase, dest: int) -> tuple[Hop, ...]:
        """Candidate next hops on minimal legal routes toward ``dest``.

        An empty tuple means ``switch == dest`` (already there); a missing
        state (packet in DOWN phase with no legal continuation) raises
        ``KeyError`` -- by up*/down* correctness this never occurs for routes
        produced by this table itself.
        """
        hops = self._hops[dest]
        if hops is None:
            self._solve(dest)
            hops = self._hops[dest]
        i = 2 * switch + (phase is _DOWN)
        found = hops.get(i)
        if found is None:
            # Filled on first query, from the state's moves in link order.
            dist = self._dist[dest]
            if dist[i] < 0:
                raise KeyError((switch, phase))
            if switch == dest:
                found = ()
            else:
                moves = self._moves[i]
                if moves is None:
                    moves = self._state_moves(i)
                want = dist[i] - 1
                found = tuple(hop for hop, j in moves if dist[j] == want)
            hops[i] = found
        return found

    def reachable(self, switch: int, phase: Phase, dest: int) -> bool:
        """Whether ``dest`` has any legal route from the state at all."""
        return self._state_dist(switch, phase, dest) >= 0

    def down_distances(self, switch: int) -> dict[int, int]:
        """Minimal down-only hop count from ``switch`` to each switch below.

        One BFS per source switch, run on its first query and kept for the
        routing's lifetime (one routing epoch).  Index it as
        ``down_distances(s).get(t)``: ``None`` means ``t`` is not reachable
        going only down.

        Raises:
            KeyError: for a switch outside the topology.
        """
        found = self._down_dist.get(switch)
        if found is None:
            found = self._down_dist[switch] = self._down_bfs(switch)
        return found

    def _down_bfs(self, source: int) -> dict[int, int]:
        if not 0 <= source < self.topo.num_switches:
            raise KeyError(source)
        dist = {source: 0}
        frontier = [source]
        d = 0
        while frontier:
            d += 1
            nxt: list[int] = []
            for u in frontier:
                for lk in self._down_links[u]:
                    v = lk.b.switch if lk.a.switch == u else lk.a.switch
                    if v not in dist:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        return dist
