"""Tests for the DFS-preorder up*/down* orientation variant."""

import random

import pytest

from repro.multicast import make_scheme
from repro.params import SimParams
from repro.routing.dfs_tree import dfs_preorder_labels
from repro.routing.invariants import cdg_problems
from repro.routing.paths import is_legal_path, shortest_path_links
from repro.routing.updown import Phase, UpDownRouting
from repro.sim.network import SimNetwork
from repro.topology.graph import NetworkTopology
from repro.topology.irregular import generate_irregular_topology
from tests.topo_fixtures import make_diamond, make_line


class TestDfsLabels:
    def test_root_is_zero_and_labels_unique(self):
        topo = make_diamond()
        labels = dfs_preorder_labels(topo)
        assert labels[0] == 0
        assert sorted(labels) == list(range(4))

    def test_line_is_sequential(self):
        labels = dfs_preorder_labels(make_line(5))
        assert labels == (0, 1, 2, 3, 4)

    def test_deterministic(self):
        topo = generate_irregular_topology(SimParams(), seed=4)
        assert dfs_preorder_labels(topo) == dfs_preorder_labels(topo)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            dfs_preorder_labels(NetworkTopology(2, 4, [], []))

    def test_bad_root_rejected(self):
        with pytest.raises(ValueError):
            dfs_preorder_labels(make_line(3), root=10)


class TestDfsOrientation:
    def test_tree_edges_point_to_root(self):
        topo = make_line(4)
        rt = UpDownRouting.build(topo, orientation="dfs")
        for lk in topo.links:
            assert rt.up_end_switch(lk) == min(lk.a.switch, lk.b.switch)

    def test_all_pairs_reachable(self):
        for seed in range(4):
            topo = generate_irregular_topology(SimParams(), seed=seed)
            rt = UpDownRouting.build(topo, orientation="dfs")
            for a in range(topo.num_switches):
                for b in range(topo.num_switches):
                    assert rt.reachable(a, Phase.UP, b)
                    p = shortest_path_links(rt, a, b)
                    assert is_legal_path(rt, a, p)

    def test_deadlock_free(self):
        for seed in range(4):
            topo = generate_irregular_topology(SimParams(), seed=seed)
            rt = UpDownRouting.build(topo, orientation="dfs")
            assert cdg_problems(topo, rt) == []

    def test_root_down_reaches_everything(self):
        from repro.routing.reachability import ReachabilityTable

        for seed in range(4):
            topo = generate_irregular_topology(SimParams(), seed=seed)
            rt = UpDownRouting.build(topo, orientation="dfs")
            reach = ReachabilityTable.build(rt)
            assert reach.down_reach(0) == frozenset(range(topo.num_nodes))

    def test_unknown_orientation_rejected(self):
        with pytest.raises(ValueError, match="orientation"):
            UpDownRouting.build(make_line(3), orientation="mst")

    def test_orientation_differs_from_bfs_somewhere(self):
        # On a diamond, BFS orients the 1-2 tie by id; DFS preorder walks
        # down one side first, producing a different orientation for at
        # least one non-tree link on typical irregular graphs.
        found_difference = False
        for seed in range(8):
            topo = generate_irregular_topology(SimParams(), seed=seed)
            bfs = UpDownRouting.build(topo, orientation="bfs")
            dfs = UpDownRouting.build(topo, orientation="dfs")
            for lk in topo.links:
                if bfs.up_end_switch(lk) != dfs.up_end_switch(lk):
                    found_difference = True
        assert found_difference


class TestDfsEndToEnd:
    @pytest.mark.parametrize("scheme", ["binomial", "ni", "path", "tree"])
    def test_schemes_work_under_dfs_orientation(self, scheme):
        params = SimParams(routing_tree="dfs")
        topo = generate_irregular_topology(params, seed=3)
        net = SimNetwork(topo, params)
        dests = random.Random(0).sample(range(1, 32), 12)
        res = make_scheme(scheme).execute(net, 0, dests)
        net.run()
        assert res.complete
        net.assert_quiescent()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SimParams(routing_tree="mst").validate()
