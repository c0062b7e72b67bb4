"""Per-network routing state built on demand, against eager references.

A network builds its reachability strings on their first query, each
switch's down distances on their first lookup, and scores MDP-LG worm
candidates inside the minimal-path walk instead of enumerating and then
scoring them.  Each test here recomputes the answers the way the code did
before it was lazy -- every switch up front, every candidate path copied --
and requires the same answers, in BFS and DFS orientation and on corrupt
orientations whose down links form a cycle.
"""

import random
from collections import deque

import pytest

from repro.fuzz.generator import generate_scenario
from repro.multicast import make_scheme, pathworm
from repro.multicast.pathworm import (
    MAX_PATHS_PER_DEST,
    PathWormPlan,
    plan_path_worms,
)
from repro.params import SimParams
from repro.routing import Phase, UpDownRouting, build_bfs_tree
from repro.routing.paths import (
    minimal_paths,
    path_switches,
    walk_minimal_paths,
)
from repro.routing.reachability import ReachabilityTable
from repro.sim.network import SimNetwork
from repro.topology.faults import degrade
from repro.topology.irregular import generate_irregular_topology
from repro.topology.regular import hypercube, mesh_2d, torus_2d
from tests.test_analyze import cyclic_up_orientation, ring_topology
from tests.topo_fixtures import make_diamond


def shipped(seed, orientation):
    """The paper's system (32 nodes, eight 8-port switches) at ``seed``."""
    return UpDownRouting.build(
        generate_irregular_topology(SimParams(), seed=seed),
        orientation=orientation)


def tampered_diamond():
    """A corrupt orientation whose down links form the cycle
    0 -> 1 -> 3 -> 2 -> 0 (not a legal Autonet election)."""
    topo = make_diamond()
    rt = UpDownRouting(topo=topo, tree=build_bfs_tree(topo))
    rt._up_end = {0: 0, 2: 1, 3: 3, 1: 2}
    rt._compute_tables()
    return rt


def routings():
    """(id, routing) pairs: shipped BFS/DFS systems and corrupt ones."""
    for seed in range(40):
        for orientation in ("bfs", "dfs"):
            yield f"{orientation}-{seed}", shipped(seed, orientation)
    yield "cyclic-ring", cyclic_up_orientation(ring_topology(chord=True))
    yield "tampered-diamond", tampered_diamond()


def shuffled_switches(rt, seed):
    order = list(range(rt.topo.num_switches))
    random.Random(seed).shuffle(order)
    return order


# ----------------------------------------------------------------------
# Reachability
# ----------------------------------------------------------------------
def eager_reach(rt):
    """The table as it was built up front: every switch in order 0..S-1,
    with the mark-before-recursing guard truncating a down-graph cycle."""
    table = {}

    def reach(s):
        if s in table:
            return table[s]
        table[s] = frozenset()
        acc = set(rt.topo.nodes_on_switch(s))
        for lk in rt.down_links_of(s):
            acc |= reach(lk.other_end(s).switch)
        table[s] = frozenset(acc)
        return table[s]

    for s in range(rt.topo.num_switches):
        reach(s)
    return table


class TestLazyReachability:
    @pytest.mark.parametrize("query_seed", [0, 1, 2])
    def test_equals_eager_table_in_any_query_order(self, query_seed):
        for name, rt in routings():
            want = eager_reach(rt)
            reach = ReachabilityTable.build(rt)
            for s in shuffled_switches(rt, query_seed):
                assert reach.down_reach(s) == want[s], (name, s)
                assert reach.covers(s, want[s]), (name, s)
                for lk in rt.down_links_of(s):
                    t = lk.other_end(s).switch
                    assert reach.port_reach(s, lk) == want[t], (name, s)

    def test_first_query_may_be_a_port_or_a_cover(self):
        rt = cyclic_up_orientation(ring_topology(chord=True))
        want = eager_reach(rt)
        for s in shuffled_switches(rt, 5):
            lk = rt.down_links_of(s)[0]
            by_port = ReachabilityTable.build(rt)
            assert by_port.port_reach(s, lk) == want[lk.other_end(s).switch]
            assert by_port.down_reach(s) == want[s]
            by_cover = ReachabilityTable.build(rt)
            assert by_cover.covers(s, want[s])
            assert by_cover.down_reach(s) == want[s]

    def test_corrupt_orientation_answers_differ_by_fill_order(self):
        # The reason the table fills whole, in switch order: filling from
        # another switch first truncates the cycle elsewhere.
        rt = tampered_diamond()
        want = eager_reach(rt)
        reach = ReachabilityTable.build(rt)
        reach._switch_reach = {}
        reach._reach(3)
        assert reach._switch_reach != want

    def test_unknown_switch_raises(self):
        reach = ReachabilityTable.build(shipped(0, "bfs"))
        with pytest.raises(KeyError):
            reach.down_reach(8)


# ----------------------------------------------------------------------
# Down distances
# ----------------------------------------------------------------------
def all_pairs_down_distances(rt):
    """dist[s][t] over down traversals only, for every source at once."""
    out = {}
    for s in range(rt.topo.num_switches):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for lk in rt.topo.links_of(u):
                if rt.is_up_traversal(lk, u):
                    continue
                v = lk.other_end(u).switch
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        out[s] = dist
    return out


class TestLazyDownDistances:
    def test_equals_all_pairs_reference(self):
        for seed in range(40):
            for orientation in ("bfs", "dfs"):
                p = SimParams(routing_tree=orientation)
                net = SimNetwork(generate_irregular_topology(p, seed=seed), p)
                want = all_pairs_down_distances(net.routing)
                down = net.routing.down_distances
                for s in shuffled_switches(net.routing, seed):
                    assert down(s) == want[s], (seed, orientation, s)
                    for t in range(net.topo.num_switches):
                        assert down(s).get(t) == want[s].get(t)

    def test_degraded_topology(self):
        p = SimParams(num_switches=16, num_nodes=32)
        topo, failed = degrade(
            generate_irregular_topology(p, seed=2), 3, random.Random(7))
        assert len(failed) == 3
        net = SimNetwork(topo, p)
        want = all_pairs_down_distances(net.routing)
        down = net.routing.down_distances
        assert {s: down(s) for s in shuffled_switches(net.routing, 3)} == want

    def test_one_bfs_per_switch_per_epoch(self, monkeypatch):
        # Plan caching off: every tree multicast plans afresh, but they all
        # read the routing's one table, so no switch's BFS runs twice
        # within an epoch; a reconfiguration starts a fresh table.
        runs = []
        real = UpDownRouting._down_bfs

        def counting(rt, source):
            runs.append((id(rt), source))
            return real(rt, source)

        monkeypatch.setattr(UpDownRouting, "_down_bfs", counting)
        p = SimParams(num_switches=16, num_nodes=32)
        topo = generate_irregular_topology(p, seed=4)
        net = SimNetwork(topo, p)
        scheme = make_scheme("tree")
        rng = random.Random(5)
        epochs = [net.routing]
        for step in range(24):
            if step == 12:
                topo, _failed = degrade(topo, 1, random.Random(6))
                net.reconfigure(topo)
                epochs.append(net.routing)
            src = rng.randrange(32)
            dests = rng.sample([n for n in range(32) if n != src], 6)
            scheme.execute(net, src, dests)
            net.run()
        assert len(runs) == len(set(runs))
        first, second = ({s for r, s in runs if r == id(rt)} for rt in epochs)
        assert first and second
        # The second epoch rebuilt what it needed: its table is its own.
        assert epochs[0]._down_dist is not epochs[1]._down_dist
        assert set(epochs[1]._down_dist) == second

    def test_unknown_switch_raises(self):
        down = SimNetwork(generate_irregular_topology(SimParams(), seed=0),
                          SimParams()).routing.down_distances
        for bad in (-1, 8):
            with pytest.raises(KeyError):
                down(bad)


# ----------------------------------------------------------------------
# MDP-LG worm search
# ----------------------------------------------------------------------
def enumerate_then_score(net, sender, remaining, strategy="lg"):
    """The worm search as it was: copy each anchor's first
    ``MAX_PATHS_PER_DEST`` minimal paths, then score every copy."""
    topo, rt = net.topo, net.routing
    start = topo.switch_of_node(sender)
    dest_by_switch = {}
    for d in sorted(remaining):
        dest_by_switch.setdefault(topo.switch_of_node(d), []).append(d)
    best_key = best_path = None
    for anchor in sorted(dest_by_switch):
        for links in minimal_paths(rt, start, anchor, MAX_PATHS_PER_DEST):
            coverage = sum(
                len(dest_by_switch.get(s, ()))
                for s in dict.fromkeys(path_switches(start, links)))
            far = rt.distance(start, anchor)
            if strategy == "lg":
                key = (coverage, far, -len(links))
            else:
                key = (coverage, -len(links), far)
            if best_key is None or key > best_key:
                best_key, best_path = key, links
    full = path_switches(start, best_path)
    covered, drops, last_useful = set(), [], 0
    for i, s in enumerate(full):
        here = tuple(d for d in dest_by_switch.get(s, []) if d not in covered)
        drops.append(here)
        if here:
            covered.update(here)
            last_useful = i
    return PathWormPlan(
        sender=sender,
        switch_path=tuple(full[: last_useful + 1]),
        links=tuple(best_path[:last_useful]),
        drops=tuple(drops[: last_useful + 1]),
    )


def next_hops_log(net):
    """Record every ``next_hops`` query on ``net``'s routing, in order."""
    calls = []
    inner = net.routing.next_hops

    def logged(switch, phase, dest):
        calls.append((switch, phase, dest))
        return inner(switch, phase, dest)

    net.routing.next_hops = logged
    return calls


def assert_plans_match_reference(monkeypatch, make_net, source, dests):
    for strategy in ("lg", "greedy"):
        net = make_net()
        calls = next_hops_log(net)
        got = plan_path_worms(net, source, list(dests), strategy=strategy)
        ref_net = make_net()
        ref_calls = next_hops_log(ref_net)
        with monkeypatch.context() as m:
            m.setattr(pathworm, "best_single_worm", enumerate_then_score)
            want = plan_path_worms(ref_net, source, list(dests),
                                   strategy=strategy)
        assert got == want, strategy
        assert calls == ref_calls, strategy


class TestInWalkScoring:
    @pytest.mark.parametrize("index", range(40))
    def test_fuzz_scenarios(self, monkeypatch, index):
        sc = generate_scenario(0, index)
        assert_plans_match_reference(
            monkeypatch, lambda: SimNetwork(sc.topo, sc.params),
            sc.source, sc.dests)

    @pytest.mark.parametrize("orientation", ["bfs", "dfs"])
    @pytest.mark.parametrize("build", [
        lambda: mesh_2d(6, 6), lambda: hypercube(5), lambda: torus_2d(6, 6),
    ], ids=["mesh_2d(6,6)", "hypercube(5)", "torus_2d(6,6)"])
    def test_cap_binding_regular_topologies(self, monkeypatch, build,
                                            orientation):
        topo = build()
        params = SimParams(
            num_switches=topo.num_switches, num_nodes=topo.num_nodes,
            ports_per_switch=topo.ports_per_switch, routing_tree=orientation)
        dests = range(1, topo.num_nodes)
        assert_plans_match_reference(
            monkeypatch, lambda: SimNetwork(topo, params), 0, dests)
        if orientation == "dfs":
            return  # the DFS torus's minimal paths all stay under the cap
        net = SimNetwork(topo, params)
        senders = {w.sender for w in plan_path_worms(net, 0, list(dests)).worms}
        assert any(
            len(minimal_paths(net.routing, topo.switch_of_node(sender), t,
                              MAX_PATHS_PER_DEST + 1)) > MAX_PATHS_PER_DEST
            for sender in senders for t in range(topo.num_switches)
        ), "the path cap must bind for some sender of the plan"


# ----------------------------------------------------------------------
# Minimal paths never revisit a switch
# ----------------------------------------------------------------------
class TestMinimalPathsAreSimple:
    """The in-walk coverage sum counts each crossed switch once, which is
    right only because a minimal path never crosses a switch twice."""

    def test_no_minimal_path_revisits_a_switch(self):
        checked = 0
        for name, rt in routings():
            S = rt.topo.num_switches
            for src in range(S):
                for dst in range(S):
                    if not rt.reachable(src, Phase.UP, dst):
                        continue
                    for links in minimal_paths(rt, src, dst, 200):
                        seq = path_switches(src, links)
                        assert len(set(seq)) == len(seq), (name, seq)
                        checked += 1
        assert checked > 0

    def test_walk_scores_each_path_by_its_switches(self):
        for name, rt in routings():
            S = rt.topo.num_switches
            weight = [random.Random(S + s).randrange(4) for s in range(S)]
            for src in range(S):
                for dst in range(S):
                    if not rt.reachable(src, Phase.UP, dst):
                        continue
                    seen = []
                    walk_minimal_paths(
                        rt, src, dst, 50,
                        lambda links, score: seen.append((list(links), score)),
                        weight)
                    assert seen == [
                        (links, sum(weight[s]
                                    for s in path_switches(src, links)))
                        for links in minimal_paths(rt, src, dst, 50)
                    ], name

    def test_corrupt_orientation_has_long_minimal_paths(self):
        # The property is not vacuous there: the cyclic ring's minimal
        # paths include some that climb and then descend.
        rt = cyclic_up_orientation(ring_topology(chord=True))
        lengths = {
            len(links)
            for src in range(4) for dst in range(4)
            if rt.reachable(src, Phase.UP, dst)
            for links in minimal_paths(rt, src, dst, 200)
        }
        assert max(lengths) >= 2
