"""Lazy up*/down* tables against a brute-force search of the state graph.

``UpDownRouting`` solves one destination the first time it is asked about
it.  These tests recompute every (switch, phase, destination) answer with a
plain forward BFS written here, from nothing but ``topo.links_of`` and the
orientation, and require ``distance``, ``reachable`` and ``next_hops`` to
agree on every state -- in BFS and DFS orientation, on a degraded topology,
and on tampered orientations (which must also drop answers cached before
the tampering).
"""

import random
from collections import deque

import pytest

from repro.params import SimParams
from repro.routing import Phase, UpDownRouting, build_bfs_tree
from repro.topology.faults import degrade
from repro.topology.irregular import generate_irregular_topology
from tests.topo_fixtures import make_diamond, make_line


def brute_moves(rt, switch, phase):
    """Legal (link, neighbour, next phase) moves, straight from the rule."""
    out = []
    for lk in rt.topo.links_of(switch):
        t = lk.other_end(switch).switch
        if rt.up_end_switch(lk) == t:  # crossing toward the up end: up
            if phase is Phase.UP:
                out.append((lk, t, Phase.UP))
        else:
            out.append((lk, t, Phase.DOWN))
    return out


def brute_distance(rt, switch, phase, dest):
    """Fewest legal hops from a state to ``dest`` (None if unreachable)."""
    seen = {(switch, phase): 0}
    queue = deque([(switch, phase)])
    while queue:
        s, p = queue.popleft()
        if s == dest:
            return seen[(s, p)]
        for _lk, t, np_ in brute_moves(rt, s, p):
            if (t, np_) not in seen:
                seen[(t, np_)] = seen[(s, p)] + 1
                queue.append((t, np_))
    return None


def assert_matches_brute_force(rt):
    """Every (switch, phase, dest) answer equals the brute-force one.

    Returns the number of dead states (no legal route) it checked.
    """
    S = rt.topo.num_switches
    dist = {
        (s, p, d): brute_distance(rt, s, p, d)
        for d in range(S) for s in range(S) for p in Phase
    }
    dead = 0
    # Query destinations in a shuffled order so the lazy fill order differs
    # from the switch order.
    dests = list(range(S))
    random.Random(S).shuffle(dests)
    for d in dests:
        for s in range(S):
            for p in Phase:
                want = dist[(s, p, d)]
                if want is None:
                    dead += 1
                    assert rt.reachable(s, p, d) is False
                    with pytest.raises(KeyError):
                        rt.distance(s, d, p)
                    with pytest.raises(KeyError):
                        rt.next_hops(s, p, d)
                    continue
                assert rt.reachable(s, p, d) is True
                assert rt.distance(s, d, p) == want
                expected = {
                    (lk.link_id, t, np_)
                    for lk, t, np_ in brute_moves(rt, s, p)
                    if s != d and dist[(t, np_, d)] == want - 1
                }
                got = rt.next_hops(s, p, d)
                assert {(h.link.link_id, h.to_switch, h.next_phase)
                        for h in got} == expected
                assert len(got) == len(expected)
    return dead


def irregular(seed, switches=16):
    params = SimParams(num_switches=switches, num_nodes=2 * switches)
    return generate_irregular_topology(params, seed=seed)


class TestLazyTablesMatchBruteForce:
    @pytest.mark.parametrize("orientation", ["bfs", "dfs"])
    @pytest.mark.parametrize("seed", [1, 4])
    def test_irregular(self, orientation, seed):
        rt = UpDownRouting.build(irregular(seed), orientation=orientation)
        assert assert_matches_brute_force(rt) > 0

    @pytest.mark.parametrize("orientation", ["bfs", "dfs"])
    def test_degraded_topology(self, orientation):
        topo, failed = degrade(irregular(2), 3, random.Random(7))
        assert len(failed) == 3
        rt = UpDownRouting.build(topo, orientation=orientation)
        assert_matches_brute_force(rt)

    def test_dead_down_states_raise(self):
        # On a line rooted at sw0 the leaf's DOWN state goes nowhere.
        rt = UpDownRouting.build(make_line(4))
        assert rt.reachable(3, Phase.DOWN, 0) is False
        with pytest.raises(KeyError):
            rt.next_hops(3, Phase.DOWN, 0)
        with pytest.raises(KeyError):
            rt.distance(3, 0, Phase.DOWN)
        assert rt.next_hops(3, Phase.DOWN, 3) == ()
        assert assert_matches_brute_force(rt) > 0

    def test_tampered_cyclic_orientation(self):
        # A corrupt orientation whose down links form the cycle
        # 0 -> 1 -> 3 -> 2 -> 0 (not a legal Autonet election).
        topo = make_diamond()
        rt = UpDownRouting(topo=topo, tree=build_bfs_tree(topo))
        rt._up_end = {0: 0, 2: 1, 3: 3, 1: 2}
        rt._compute_tables()
        assert_matches_brute_force(rt)

    def test_recompute_after_tampering_drops_cached_answers(self):
        rt = UpDownRouting.build(irregular(3))
        assert_matches_brute_force(rt)  # every destination now cached
        for lk in rt.topo.links[:3]:
            rt._up_end[lk.link_id] = (
                lk.b.switch if rt._up_end[lk.link_id] == lk.a.switch
                else lk.a.switch)
        rt._compute_tables()
        assert_matches_brute_force(rt)

    def test_link_lists_follow_orientation_in_link_order(self):
        rt = UpDownRouting.build(irregular(5))
        for s in range(rt.topo.num_switches):
            links = rt.topo.links_of(s)
            assert list(rt.up_links_of(s)) == [
                lk for lk in links if rt.is_up_traversal(lk, s)]
            assert list(rt.down_links_of(s)) == [
                lk for lk in links if not rt.is_up_traversal(lk, s)]
            assert isinstance(rt.down_links_of(s), tuple)
