"""The up*/down* model invariants, verified and falsified.

Each test calls the shared checkers of :mod:`repro.routing.invariants`
(and :func:`repro.multicast.pathworm.verify_plan`) on fixture and shipped
topologies; these are the only static checks of the model premises.
"""

import random
from types import SimpleNamespace

import pytest

from repro.multicast.pathworm import plan_path_worms, verify_plan
from repro.params import SimParams
from repro.routing.bfs_tree import build_bfs_tree
from repro.routing.deadlock import (
    build_escape_cdg,
    build_multicast_cdg,
    build_unrestricted_cdg,
    escape_subgraph,
    find_cycle,
)
from repro.routing.invariants import (
    cdg_problems,
    header_problems,
    reachability_problems,
)
from repro.routing.reachability import ReachabilityTable
from repro.routing.updown import UpDownRouting
from repro.topology.irregular import generate_irregular_topology
from tests.topo_fixtures import make_diamond, make_line, make_star


def shipped(seed: int):
    """The paper's 32-node system at ``seed``."""
    return generate_irregular_topology(SimParams(), seed=seed)


def routed(topo, orientation: str = "bfs"):
    """Up*/down* routing and its reachability table, as the network builds
    them."""
    rt = UpDownRouting.build(topo, orientation=orientation)
    return rt, ReachabilityTable.build(rt)


def tampered_diamond_routing() -> tuple:
    """Diamond with the link orientation corrupted into a down cycle
    0 -> 1 -> 3 -> 2 -> 0 (a broken Autonet election, not a legal one)."""
    topo = make_diamond()
    rt = UpDownRouting(topo=topo, tree=build_bfs_tree(topo))
    rt._up_end = {0: 0, 2: 1, 3: 3, 1: 2}
    rt._compute_tables()
    return topo, rt


class TestExtendedCdg:
    @pytest.mark.parametrize("make", [make_line, make_diamond, make_star])
    def test_fixture_topologies_pass(self, make):
        topo = make()
        rt = UpDownRouting.build(topo)
        assert find_cycle(build_multicast_cdg(topo, rt)) is None

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_shipped_irregular_topologies_pass(self, seed):
        topo = shipped(seed)
        assert cdg_problems(topo, UpDownRouting.build(topo)) == []

    def test_replication_branch_edges_present(self):
        topo = make_star()
        rt = UpDownRouting.build(topo)
        deps = build_multicast_cdg(topo, rt)
        hub = rt.tree.root
        down = sorted(rt.down_links_of(hub), key=lambda lk: lk.link_id)
        assert len(down) >= 2
        held = ("fwd", down[0].link_id, hub)
        requested = ("fwd", down[1].link_id, hub)
        assert requested in deps[held]
        # Ordered acquisition: the reverse edge must NOT exist, or every
        # replication would be a self-made 2-cycle.
        assert held not in deps[requested]

    def test_tampered_orientation_detected(self):
        topo, rt = tampered_diamond_routing()
        [problem] = cdg_problems(topo, rt)
        assert "has a cycle" in problem

    def test_negative_control_unrestricted_routing(self):
        # The checker must flag minimal routing without the up/down rule on
        # a cyclic topology -- the paper's motivating deadlock.
        assert find_cycle(build_unrestricted_cdg(make_diamond())) is not None

    def test_negative_control_rule_passes_when_detection_works(self):
        # The shipped topologies have cycles, so unrestricted minimal
        # routing must deadlock on each: the detector is really checking.
        for seed in (1, 2, 3):
            assert find_cycle(build_unrestricted_cdg(shipped(seed))), seed

    def test_negative_control_skips_tree_topologies(self):
        # A minimal route never turns back, so on a tree the unrestricted
        # relation has no cycle to seed: a U-turn dependency would make
        # every topology with a link look deadlocked.
        for make in (make_line, make_star):
            assert find_cycle(build_unrestricted_cdg(make())) is None
        cycle = find_cycle(build_unrestricted_cdg(make_diamond()))
        assert cycle is not None and len(set(cycle)) > 2


def _strip_lanes(deps: dict) -> dict:
    def strip(chan):
        return chan[:3] if chan[0] == "fwd" else chan

    return {strip(c): {strip(t) for t in ts} for c, ts in deps.items()}


def _lemma_instances():
    for make in (make_line, make_diamond, make_star):
        topo = make()
        yield make.__name__, topo, UpDownRouting.build(topo)
    for orientation in ("bfs", "dfs"):
        for seed in (1, 2, 3):
            topo = shipped(seed)
            yield (f"seed{seed}-{orientation}", topo,
                   UpDownRouting.build(topo, orientation=orientation))
    yield ("tampered-diamond", *tampered_diamond_routing())


LEMMA_INSTANCES = list(_lemma_instances())


@pytest.mark.parametrize(
    "label,topo,rt", LEMMA_INSTANCES,
    ids=[label for label, _, _ in LEMMA_INSTANCES],
)
def test_escape_lane_zero_equals_multicast_cdg(label, topo, rt):
    # The lemma that lets one CDG check cover the escape-VC fabric: the
    # lane-0 subgraph of the escape CDG is the multicast CDG with lane
    # tags added, so the multicast CDG's acyclicity is lane 0's.
    escape = escape_subgraph(build_escape_cdg(topo, rt, vc_count=2))
    assert _strip_lanes(escape) == build_multicast_cdg(topo, rt)


class TestReachabilitySuperset:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shipped_topologies_pass(self, seed):
        _, reach = routed(shipped(seed))
        assert reachability_problems(reach, "bfs") == []

    def test_corrupted_reachability_flagged(self):
        rt, reach = routed(make_star())
        hub = rt.tree.root
        # Drop one node from the hub's reachability string.
        victim = next(iter(reach.down_reach(hub)))
        reach._switch_reach[hub] = reach.down_reach(hub) - {victim}
        problems = reachability_problems(reach, "bfs")
        assert problems
        assert any(str(victim) in p for p in problems)

    def test_dfs_oriented_topologies_pass(self):
        # A BFS tree edge may legitimately point up under DFS labels; DFS
        # routing must be judged against the preorder witness, as the
        # epoch verifier does, instead of being reported as a violation.
        for seed in range(40):
            _, reach = routed(shipped(seed), "dfs")
            assert reachability_problems(reach, "dfs") == [], seed

    def test_dfs_corrupted_reachability_flagged(self):
        rt, reach = routed(shipped(1), "dfs")
        root = rt.tree.root
        victim = next(iter(reach.down_reach(root)))
        reach._switch_reach[root] = reach.down_reach(root) - {victim}
        problems = reachability_problems(reach, "dfs")
        assert any("DFS root" in p for p in problems)

    def test_dfs_switch_missing_own_node_flagged(self):
        # Switch 1 of seed 1 hosts node 6 but is not the DFS root, so
        # neither the label check nor the root-coverage check sees the
        # hole: only the own-attached-nodes check does.
        topo = shipped(1)
        rt, reach = routed(topo, "dfs")
        assert 6 in topo.nodes_on_switch(1) and rt.tree.root != 1
        reach._switch_reach[1] = reach.down_reach(1) - {6}
        problems = reachability_problems(reach, "dfs")
        assert any("switch 1" in p and "6" in p for p in problems)


class TestPathPlanLegality:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shipped_topologies_pass(self, seed):
        # Every MDP-LG and greedy plan, from two sources to 4, 8 and N/2
        # destinations, decomposes into legal up*/down* worms covering each
        # destination exactly once (Sections 3.2.4, 4.2.3).
        topo = shipped(seed)
        rt = UpDownRouting.build(topo)
        view = SimpleNamespace(topo=topo, routing=rt)
        rng = random.Random(0xC0FFEE)
        n = topo.num_nodes
        for source in (0, n // 2):
            for k in (4, 8, n // 2):
                dests = rng.sample([d for d in range(n) if d != source], k)
                for strategy in ("lg", "greedy"):
                    plan = plan_path_worms(
                        view, source, dests, strategy=strategy)
                    assert verify_plan(
                        topo, rt, source, dests, plan) == [], (
                        source, k, strategy)

    def test_verify_plan_rejects_corrupted_plan(self):
        from repro.multicast.pathworm import MulticastPathPlan, PathWormPlan

        topo = shipped(1)
        rt = UpDownRouting.build(topo)
        view = SimpleNamespace(topo=topo, routing=rt)
        dests = [3, 9, 17, 25]
        plan = plan_path_worms(view, 0, dests)
        assert verify_plan(topo, rt, 0, dests, plan) == []

        # Corrupt: claim a drop for a node on the wrong switch.
        worm = plan.phases[0][0]
        wrong = next(
            n for n in range(topo.num_nodes)
            if topo.switch_of_node(n) != worm.switch_path[0]
        )
        bad_worm = PathWormPlan(
            sender=worm.sender,
            switch_path=worm.switch_path,
            links=worm.links,
            drops=((wrong,),) + worm.drops[1:],
        )
        bad = MulticastPathPlan(phases=((bad_worm,) + plan.phases[0][1:],)
                                + plan.phases[1:])
        problems = verify_plan(topo, rt, 0, dests, bad)
        assert any("attached to switch" in p for p in problems)

    def test_updown_decomposition(self):
        from repro.routing.paths import shortest_path_links, updown_decomposition

        rt = UpDownRouting.build(shipped(1))
        links = shortest_path_links(rt, 3, 6)
        up, down = updown_decomposition(rt, 3, links)
        assert up + down == len(links)

    def test_updown_decomposition_rejects_up_after_down(self):
        from repro.routing.paths import updown_decomposition

        topo = make_diamond()
        rt = UpDownRouting.build(topo)
        # 0 is the root: link0 (0->1) is down, link2 (1->3) down, then
        # climbing back 3->2 via link3 is up -- illegal after down... except
        # 2 is *below* 3? Use explicit orientation queries to build the
        # illegal sequence: go down then take any up traversal.
        down_lk = rt.down_links_of(0)[0]
        mid = down_lk.other_end(0).switch
        up_lk = rt.up_links_of(mid)[0]
        with pytest.raises(ValueError):
            updown_decomposition(rt, 0, [down_lk, up_lk])


class TestHeaderCapacity:
    def test_default_params_fit(self):
        p = SimParams()
        assert header_problems(p.num_nodes, p.packet_flits) == []

    def test_tiny_packets_flagged(self):
        # 32 destination bits + 5 id bits = 5 header flits >= 4-flit packets.
        [problem] = header_problems(SimParams().num_nodes, 4)
        assert "header" in problem
