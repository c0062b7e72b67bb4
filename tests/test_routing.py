"""Unit tests for BFS tree, up*/down* routing, paths, and reachability."""

import pytest

from repro.params import SimParams
from repro.routing import (
    Phase,
    ReachabilityTable,
    UpDownRouting,
    all_minimal_paths,
    build_bfs_tree,
    is_legal_path,
    shortest_path_links,
)
from repro.routing.paths import minimal_paths, path_switches
from repro.routing.reachability import decode_mask, header_mask
from repro.topology import NetworkTopology, PortRef, SwitchLink
from repro.topology.irregular import generate_irregular_topology


def line_topology(n_switches: int = 4) -> NetworkTopology:
    """sw0 - sw1 - ... - sw(k-1), one host per switch."""
    links = [
        SwitchLink(i, PortRef(i, 1), PortRef(i + 1, 2))
        for i in range(n_switches - 1)
    ]
    return NetworkTopology(
        num_switches=n_switches,
        ports_per_switch=4,
        node_attachment=[PortRef(s, 0) for s in range(n_switches)],
        links=links,
    )


def diamond_topology() -> NetworkTopology:
    """sw0 at top; sw1, sw2 in the middle; sw3 at bottom; host per switch."""
    links = [
        SwitchLink(0, PortRef(0, 1), PortRef(1, 1)),
        SwitchLink(1, PortRef(0, 2), PortRef(2, 1)),
        SwitchLink(2, PortRef(1, 2), PortRef(3, 1)),
        SwitchLink(3, PortRef(2, 2), PortRef(3, 2)),
    ]
    return NetworkTopology(
        num_switches=4,
        ports_per_switch=4,
        node_attachment=[PortRef(s, 0) for s in range(4)],
        links=links,
    )


class TestBfsTree:
    def test_line_levels(self):
        tree = build_bfs_tree(line_topology())
        assert tree.root == 0
        assert tree.level == (0, 1, 2, 3)
        assert tree.parent == (-1, 0, 1, 2)

    def test_diamond_levels(self):
        tree = build_bfs_tree(diamond_topology())
        assert tree.level == (0, 1, 1, 2)
        assert tree.parent[3] == 1  # tie between sw1/sw2 broken by id

    def test_children_and_depth(self):
        tree = build_bfs_tree(diamond_topology())
        assert tree.children(0) == [1, 2]
        assert tree.depth() == 2

    def test_disconnected_raises(self):
        topo = NetworkTopology(2, 4, [], [])
        with pytest.raises(ValueError, match="disconnected"):
            build_bfs_tree(topo)

    def test_bad_root_raises(self):
        with pytest.raises(ValueError):
            build_bfs_tree(line_topology(), root=99)


class TestUpDownOrientation:
    def test_line_orientation_points_to_root(self):
        topo = line_topology()
        rt = UpDownRouting.build(topo)
        for lk in topo.links:
            # up end is the lower-numbered (closer to root) switch
            assert rt.up_end_switch(lk) == min(lk.a.switch, lk.b.switch)

    def test_same_level_tie_break_by_id(self):
        # Triangle: root 0, switches 1 and 2 both level 1, link between them.
        topo = NetworkTopology(
            3,
            4,
            [PortRef(s, 0) for s in range(3)],
            [
                SwitchLink(0, PortRef(0, 1), PortRef(1, 1)),
                SwitchLink(1, PortRef(0, 2), PortRef(2, 1)),
                SwitchLink(2, PortRef(1, 2), PortRef(2, 2)),
            ],
        )
        rt = UpDownRouting.build(topo)
        cross = topo.links[2]
        assert rt.up_end_switch(cross) == 1

    def test_up_links_form_dag(self):
        # No directed cycle in the up orientation for random topologies.
        for seed in range(5):
            topo = generate_irregular_topology(SimParams(), seed=seed)
            rt = UpDownRouting.build(topo)
            # Kahn's algorithm over "up" edges (edge from down end -> up end).
            indeg = {s: 0 for s in range(topo.num_switches)}
            edges = []
            for lk in topo.links:
                up = rt.up_end_switch(lk)
                down = lk.other_end(up).switch
                edges.append((down, up))
                indeg[up] += 1
            ready = [s for s, d in indeg.items() if d == 0]
            seen = 0
            while ready:
                s = ready.pop()
                seen += 1
                for a, b in edges:
                    if a == s:
                        indeg[b] -= 1
                        if indeg[b] == 0:
                            ready.append(b)
            assert seen == topo.num_switches, "up orientation has a cycle"


class TestRoutingTables:
    def test_line_distance(self):
        rt = UpDownRouting.build(line_topology())
        assert rt.distance(0, 3) == 3
        assert rt.distance(3, 0) == 3
        assert rt.distance(2, 2) == 0

    def test_next_hops_minimal(self):
        rt = UpDownRouting.build(diamond_topology())
        hops = rt.next_hops(0, Phase.UP, 3)
        # From the root both middle switches lie on 2-hop routes.
        assert {h.to_switch for h in hops} == {1, 2}
        assert all(h.next_phase is Phase.DOWN for h in hops)

    def test_no_up_after_down(self):
        rt = UpDownRouting.build(diamond_topology())
        # In DOWN phase at sw1, destination sw2 must not be directly
        # reachable by going back up through the root.
        assert rt.reachable(1, Phase.DOWN, 2) is False or rt.distance(
            1, 2, Phase.DOWN
        ) > rt.distance(1, 2, Phase.UP)

    def test_all_pairs_reachable_in_up_phase(self):
        for seed in range(4):
            topo = generate_irregular_topology(SimParams(), seed=seed)
            rt = UpDownRouting.build(topo)
            for s in range(topo.num_switches):
                for d in range(topo.num_switches):
                    assert rt.reachable(s, Phase.UP, d)


class TestPaths:
    def test_shortest_path_matches_distance(self):
        for seed in range(4):
            topo = generate_irregular_topology(SimParams(), seed=seed)
            rt = UpDownRouting.build(topo)
            for s in range(topo.num_switches):
                for d in range(topo.num_switches):
                    p = shortest_path_links(rt, s, d)
                    assert len(p) == rt.distance(s, d)
                    assert is_legal_path(rt, s, p)

    def test_all_minimal_paths_legal_and_minimal(self):
        topo = diamond_topology()
        rt = UpDownRouting.build(topo)
        paths = all_minimal_paths(rt, 3, 0)
        assert len(paths) == 2
        for p in paths:
            assert len(p) == 2
            assert is_legal_path(rt, 3, p)

    def test_capped_walk_is_a_prefix_of_the_full_enumeration(self):
        """``minimal_paths`` stops at ``cap`` paths, in the full walk's
        order; ``all_minimal_paths`` raises only above its limit."""
        topo = generate_irregular_topology(SimParams(), seed=0)
        rt = UpDownRouting.build(topo)
        s, d = max(
            ((s, d) for s in range(topo.num_switches)
             for d in range(topo.num_switches)),
            key=lambda sd: len(all_minimal_paths(rt, *sd)),
        )
        paths = all_minimal_paths(rt, s, d)
        assert len(paths) >= 3
        for cap in range(1, len(paths) + 2):
            assert minimal_paths(rt, s, d, cap) == paths[:cap]
        assert all_minimal_paths(rt, s, d, limit=len(paths)) == paths
        with pytest.raises(ValueError, match="exceeded limit"):
            all_minimal_paths(rt, s, d, limit=len(paths) - 1)

    def test_is_legal_path_rejects_up_after_down(self):
        topo = diamond_topology()
        rt = UpDownRouting.build(topo)
        # 1 -> 0 (up) -> 2 (down) -> 3 (down) is legal;
        # 1 -> 3 (down) -> 2 (up!) is not.
        l_03 = topo.links[1]
        l_13 = topo.links[2]
        l_23 = topo.links[3]
        l_01 = topo.links[0]
        assert is_legal_path(rt, 1, [l_01, l_03, l_23])
        assert not is_legal_path(rt, 1, [l_13, l_23])

    def test_is_legal_path_rejects_discontiguous(self):
        topo = diamond_topology()
        rt = UpDownRouting.build(topo)
        assert not is_legal_path(rt, 0, [topo.links[2]])

    def test_path_switches(self):
        topo = line_topology()
        assert path_switches(0, topo.links) == [0, 1, 2, 3]


class TestReachability:
    def test_root_reaches_everything(self):
        for seed in range(4):
            topo = generate_irregular_topology(SimParams(), seed=seed)
            rt = UpDownRouting.build(topo)
            reach = ReachabilityTable.build(rt)
            assert reach.down_reach(rt.tree.root) == frozenset(
                range(topo.num_nodes)
            )

    def test_line_reach_sets(self):
        topo = line_topology()
        rt = UpDownRouting.build(topo)
        reach = ReachabilityTable.build(rt)
        assert reach.down_reach(3) == frozenset({3})
        assert reach.down_reach(2) == frozenset({2, 3})
        assert reach.down_reach(0) == frozenset({0, 1, 2, 3})

    def test_port_reach_down_only(self):
        topo = line_topology()
        rt = UpDownRouting.build(topo)
        reach = ReachabilityTable.build(rt)
        lk01 = topo.links[0]
        assert reach.port_reach(0, lk01) == frozenset({1, 2, 3})
        with pytest.raises(ValueError, match="up port"):
            reach.port_reach(1, lk01)

    def test_masks_roundtrip(self):
        dests = {1, 5, 9}
        assert decode_mask(header_mask(dests)) == frozenset(dests)

    def test_port_reach_mask_matches_set(self):
        topo = line_topology()
        rt = UpDownRouting.build(topo)
        reach = ReachabilityTable.build(rt)
        lk12 = topo.links[1]
        assert decode_mask(reach.port_reach_mask(1, lk12)) == reach.port_reach(1, lk12)

    def test_covers(self):
        topo = line_topology()
        rt = UpDownRouting.build(topo)
        reach = ReachabilityTable.build(rt)
        assert reach.covers(0, {1, 3})
        assert not reach.covers(2, {0})


# ----------------------------------------------------------------------
# One-pass table build == the per-switch build it replaced
# ----------------------------------------------------------------------
def _reference_bfs_tree(topo: NetworkTopology, root: int = 0):
    """The per-switch BFS: each visited switch sorts its own links_of."""
    from collections import deque

    level = [-1] * topo.num_switches
    parent = [-1] * topo.num_switches
    parent_link = [-1] * topo.num_switches
    level[root] = 0
    q = deque([root])
    while q:
        s = q.popleft()
        outgoing = sorted(
            (lk.b.switch if lk.a.switch == s else lk.a.switch, lk.link_id)
            for lk in topo.links_of(s)
        )
        for nb, link_id in outgoing:
            if level[nb] == -1:
                level[nb] = level[s] + 1
                parent[nb] = s
                parent_link[nb] = link_id
                q.append(nb)
    return tuple(level), tuple(parent), tuple(parent_link)


def _reference_bfs_up_end(level, link: SwitchLink) -> int:
    la, lb = level[link.a.switch], level[link.b.switch]
    if la != lb:
        return link.a.switch if la < lb else link.b.switch
    return min(link.a.switch, link.b.switch)


def _reference_tables(topo: NetworkTopology, up_end: dict[int, int]):
    """Per-switch link lists and reverse state graph, one switch at a time."""
    S = topo.num_switches
    up_links = [[] for _ in range(S)]
    down_links = [[] for _ in range(S)]
    rev = [[] for _ in range(2 * S)]
    for s in range(S):
        for lk in topo.links_of(s):
            t = lk.b.switch if lk.a.switch == s else lk.a.switch
            if up_end[lk.link_id] != s:
                up_links[s].append(lk)
                rev[2 * t].append(2 * s)
            else:
                down_links[s].append(lk)
                rev[2 * t + 1] += (2 * s, 2 * s + 1)
    return (
        [tuple(x) for x in up_links], [tuple(x) for x in down_links], rev
    )


def _reference_solve(rev: list[list[int]], dest: int) -> list[int]:
    dist = [-1] * len(rev)
    dist[2 * dest] = dist[2 * dest + 1] = 0
    frontier = [2 * dest, 2 * dest + 1]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for i in frontier:
            for p in rev[i]:
                if dist[p] < 0:
                    dist[p] = d
                    nxt.append(p)
        frontier = nxt
    return dist


def _reference_topologies():
    yield line_topology(5)
    yield diamond_topology()
    for switches, fraction in ((4, 1.0), (8, 0.5), (16, 0.5), (32, 1.0),
                               (64, 0.5), (128, 0.25)):
        for seed in range(3):
            params = SimParams(
                num_switches=switches, num_nodes=2 * switches,
                topology_seed=seed,
            )
            yield generate_irregular_topology(
                params, seed=seed, extra_link_fraction=fraction
            )


class TestOnePassBuildMatchesReference:
    def assert_matches(self, topo, rt, up_end):
        ref_up, ref_down, ref_rev = _reference_tables(topo, up_end)
        assert rt._up_end == up_end
        assert rt._up_links == ref_up
        assert rt._down_links == ref_down
        # The one pass fills each reverse list in another order; the state
        # graph is the same, and BFS distances do not depend on the order.
        assert [sorted(r) for r in rt._rev] == [sorted(r) for r in ref_rev]
        for dest in range(topo.num_switches):
            assert rt._solve(dest) == _reference_solve(ref_rev, dest)

    @pytest.mark.parametrize("orientation", ["bfs", "dfs"])
    def test_build_matches_per_switch_build(self, orientation):
        from repro.routing.dfs_tree import dfs_preorder_labels

        checked = 0
        for topo in _reference_topologies():
            rt = UpDownRouting.build(topo, orientation=orientation)
            level, parent, parent_link = _reference_bfs_tree(topo)
            assert (rt.tree.level, rt.tree.parent, rt.tree.parent_link) == \
                (level, parent, parent_link)
            if orientation == "bfs":
                up_end = {lk.link_id: _reference_bfs_up_end(level, lk)
                          for lk in topo.links}
            else:
                labels = dfs_preorder_labels(topo)
                up_end = {
                    lk.link_id: lk.a.switch
                    if labels[lk.a.switch] < labels[lk.b.switch]
                    else lk.b.switch
                    for lk in topo.links
                }
            self.assert_matches(topo, rt, up_end)
            checked += 1
        assert checked == 20

    def test_corrupt_orientations_match(self):
        import random

        rng = random.Random(34)
        for topo in _reference_topologies():
            rt = UpDownRouting.build(topo)
            for lk in topo.links:
                if rng.random() < 0.3:
                    rt._up_end[lk.link_id] = (
                        lk.b.switch if rt._up_end[lk.link_id] == lk.a.switch
                        else lk.a.switch
                    )
            rt._compute_tables()
            self.assert_matches(topo, rt, dict(rt._up_end))
