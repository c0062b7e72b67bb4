"""Model-rule tests: the up*/down* invariants, verified and falsified."""

import pytest

from repro.lint.model_rules import (
    ModelContext,
    check_cdg_negative_control,
    check_header_capacity,
    check_multicast_cdg,
    check_path_plan_legality,
    check_reachability_superset,
    context_from_topology,
    default_contexts,
)
from repro.params import SimParams
from repro.routing.bfs_tree import build_bfs_tree
from repro.routing.deadlock import (
    build_escape_cdg,
    build_multicast_cdg,
    build_unrestricted_cdg,
    escape_subgraph,
    find_cycle,
)
from repro.routing.updown import UpDownRouting
from repro.topology.irregular import generate_irregular_topology
from tests.topo_fixtures import make_diamond, make_line, make_star


def ctx_for(topo, label="t", **params) -> ModelContext:
    p = SimParams(
        num_nodes=topo.num_nodes,
        num_switches=topo.num_switches,
        ports_per_switch=topo.ports_per_switch,
        **params,
    )
    return context_from_topology(topo, p, label)


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
        topo = generate_irregular_topology(SimParams(), seed=seed)
        assert check_multicast_cdg(ctx_for(topo, f"seed{seed}")) == []

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
        assert find_cycle(build_multicast_cdg(topo, rt)) is not None

    def test_negative_control_unrestricted_routing(self):
        # The checker must flag minimal routing without the up/down rule on
        # a cyclic topology -- the paper's motivating deadlock.
        assert find_cycle(build_unrestricted_cdg(make_diamond())) is not None

    def test_negative_control_rule_passes_when_detection_works(self):
        assert check_cdg_negative_control(ctx_for(make_diamond())) == []

    def test_negative_control_skips_tree_topologies(self):
        # A line has no cycle to seed; the self-test does not apply.
        assert check_cdg_negative_control(ctx_for(make_line())) == []


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
            topo = generate_irregular_topology(SimParams(), seed=seed)
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
        topo = generate_irregular_topology(SimParams(), seed=seed)
        assert check_reachability_superset(ctx_for(topo, f"seed{seed}")) == []

    def test_corrupted_reachability_flagged(self):
        ctx = ctx_for(make_star())
        hub = ctx.routing.tree.root
        # Drop one node from the hub's reachability string.
        victim = next(iter(ctx.reach.down_reach(hub)))
        ctx.reach._switch_reach[hub] = ctx.reach.down_reach(hub) - {victim}
        findings = check_reachability_superset(ctx)
        assert findings
        assert any(str(victim) in f.message for f in findings)

    def test_dfs_oriented_topologies_pass(self):
        # A BFS tree edge may legitimately point up under DFS labels; the
        # rule must judge DFS routing against the preorder witness, as the
        # epoch verifier does, instead of reporting it as a violation.
        for seed in range(40):
            topo = generate_irregular_topology(SimParams(), seed=seed)
            ctx = ctx_for(topo, f"seed{seed}", routing_tree="dfs")
            assert check_reachability_superset(ctx) == [], seed

    def test_dfs_corrupted_reachability_flagged(self):
        topo = generate_irregular_topology(SimParams(), seed=1)
        ctx = ctx_for(topo, routing_tree="dfs")
        root = ctx.routing.tree.root
        victim = next(iter(ctx.reach.down_reach(root)))
        ctx.reach._switch_reach[root] = ctx.reach.down_reach(root) - {victim}
        findings = check_reachability_superset(ctx)
        assert any("DFS root" in f.message for f in findings)

    def test_dfs_switch_missing_own_node_flagged(self):
        # Switch 1 of seed 1 hosts node 6 but is not the DFS root, so
        # neither the label check nor the root-coverage check sees the
        # hole: only the own-attached-nodes check does.
        topo = generate_irregular_topology(SimParams(), seed=1)
        ctx = ctx_for(topo, routing_tree="dfs")
        assert 6 in topo.nodes_on_switch(1) and ctx.routing.tree.root != 1
        ctx.reach._switch_reach[1] = ctx.reach.down_reach(1) - {6}
        findings = check_reachability_superset(ctx)
        assert any("switch 1" in f.message and "6" in f.message
                   for f in findings)


class TestPathPlanLegality:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_shipped_topologies_pass(self, seed):
        topo = generate_irregular_topology(SimParams(), seed=seed)
        assert check_path_plan_legality(ctx_for(topo, f"seed{seed}")) == []

    def test_verify_plan_rejects_corrupted_plan(self):
        from repro.multicast.pathworm import (
            MulticastPathPlan,
            PathWormPlan,
            plan_path_worms,
            verify_plan,
        )

        topo = generate_irregular_topology(SimParams(), seed=1)
        ctx = ctx_for(topo)

        class View:
            pass

        view = View()
        view.topo, view.routing = ctx.topo, ctx.routing
        dests = [3, 9, 17, 25]
        plan = plan_path_worms(view, 0, dests)
        assert verify_plan(ctx.topo, ctx.routing, 0, dests, plan) == []

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
        problems = verify_plan(ctx.topo, ctx.routing, 0, dests, bad)
        assert any("attached to switch" in p for p in problems)

    def test_updown_decomposition(self):
        from repro.routing.paths import shortest_path_links, updown_decomposition

        topo = generate_irregular_topology(SimParams(), seed=1)
        rt = UpDownRouting.build(topo)
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
        topo = generate_irregular_topology(SimParams(), seed=1)
        assert check_header_capacity(ctx_for(topo)) == []

    def test_tiny_packets_flagged(self):
        topo = generate_irregular_topology(SimParams(), seed=1)
        # 32 destination bits + 5 id bits = 5 header flits >= 4-flit packets.
        findings = check_header_capacity(ctx_for(topo, packet_flits=4))
        assert len(findings) == 1
        assert "header" in findings[0].message


def test_default_contexts_labelled():
    ctxs = default_contexts((1, 2))
    assert [c.label for c in ctxs] == ["seed1", "seed2"]
    assert all(c.path.startswith("<model:") for c in ctxs)
