"""Tests for the regular-topology builders and their behaviour under the
full simulation stack."""

import random

import pytest

from repro.multicast import make_scheme
from repro.params import SimParams
from repro.routing.invariants import cdg_problems
from repro.routing.updown import UpDownRouting
from repro.sim.network import SimNetwork
from repro.topology.analysis import analyze
from repro.topology.regular import (
    REGULAR_BUILDERS,
    fully_connected,
    hypercube,
    mesh_2d,
    ring,
    torus_2d,
)


class TestBuilders:
    def test_mesh_shape(self):
        topo = mesh_2d(3, 4)
        assert topo.num_switches == 12
        assert len(topo.links) == 3 * 3 + 2 * 4  # rows*(cols-1) + (rows-1)*cols
        stats = analyze(topo)
        assert stats.diameter == (3 - 1) + (4 - 1)

    def test_torus_shape(self):
        topo = torus_2d(3, 3)
        assert topo.num_switches == 9
        assert len(topo.links) == 2 * 9
        assert analyze(topo).diameter == 2  # floor(3/2)*2

    def test_hypercube_shape(self):
        topo = hypercube(3)
        assert topo.num_switches == 8
        assert len(topo.links) == 3 * 8 // 2
        assert analyze(topo).diameter == 3

    def test_ring_shape(self):
        topo = ring(6)
        assert len(topo.links) == 6
        assert analyze(topo).diameter == 3

    def test_clique_shape(self):
        topo = fully_connected(5)
        assert len(topo.links) == 10
        assert analyze(topo).diameter == 1

    def test_hosts_per_switch(self):
        topo = mesh_2d(2, 2, hosts_per_switch=3)
        assert topo.num_nodes == 12
        assert topo.nodes_on_switch(1) == [3, 4, 5]

    def test_port_budget_enforced(self):
        with pytest.raises(ValueError, match="too small"):
            fully_connected(10, hosts_per_switch=1, ports_per_switch=4)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            mesh_2d(1, 1)
        with pytest.raises(ValueError):
            torus_2d(2, 3)
        with pytest.raises(ValueError):
            hypercube(0)
        with pytest.raises(ValueError):
            ring(2)
        with pytest.raises(ValueError):
            fully_connected(1)


class TestRoutingOnRegular:
    @pytest.mark.parametrize("name", sorted(REGULAR_BUILDERS))
    def test_updown_deadlock_free(self, name):
        builder = REGULAR_BUILDERS[name]
        topo = builder(3, 3) if name in ("mesh", "torus") else builder(4)
        rt = UpDownRouting.build(topo)
        assert cdg_problems(topo, rt) == []

    def test_updown_distance_can_exceed_graph_distance_on_ring(self):
        # up*/down* forbids down-then-up routes: on a 6-ring rooted at 0,
        # going 2 -> 4 "the short way" needs down(2->3) then up(3->4),
        # which is illegal, so the legal route detours through the root.
        topo = ring(6)
        rt = UpDownRouting.build(topo)
        from repro.topology.analysis import switch_distances

        graph_d = switch_distances(topo, 2)[4]
        assert graph_d == 2
        assert rt.distance(2, 4) == 4  # 2-1-0-5-4


class TestSchemesOnRegular:
    @pytest.mark.parametrize("scheme", ["binomial", "ni", "path", "tree"])
    @pytest.mark.parametrize("name", sorted(REGULAR_BUILDERS))
    def test_multicast_completes(self, scheme, name):
        builder = REGULAR_BUILDERS[name]
        topo = (
            builder(3, 3, hosts_per_switch=2)
            if name in ("mesh", "torus")
            else builder(4, hosts_per_switch=2)
        )
        params = SimParams(
            num_nodes=topo.num_nodes,
            num_switches=topo.num_switches,
            ports_per_switch=topo.ports_per_switch,
        )
        net = SimNetwork(topo, params)
        dests = random.Random(0).sample(range(1, topo.num_nodes), 7)
        res = make_scheme(scheme).execute(net, 0, dests)
        net.run()
        assert res.complete
        net.assert_quiescent()

    def test_tree_beats_path_on_mesh(self):
        topo = mesh_2d(4, 4, hosts_per_switch=2)
        params = SimParams(
            num_nodes=topo.num_nodes, num_switches=topo.num_switches
        )
        dests = random.Random(1).sample(range(1, topo.num_nodes), 12)
        lat = {}
        for scheme in ("tree", "path"):
            net = SimNetwork(topo, params)
            res = make_scheme(scheme).execute(net, 0, dests)
            net.run()
            lat[scheme] = res.latency
        assert lat["tree"] < lat["path"]
