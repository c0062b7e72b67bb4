"""Tests for topology analysis and the CDG deadlock-freedom verifier."""

import pytest

from repro.params import SimParams
from repro.routing.deadlock import (
    build_multicast_cdg,
    build_unrestricted_cdg,
    find_cycle,
)
from repro.routing.invariants import cdg_problems
from repro.routing.updown import UpDownRouting
from repro.topology.analysis import analyze, switch_distances
from repro.topology.graph import NetworkTopology, PortRef, SwitchLink
from repro.topology.irregular import generate_irregular_topology
from tests.topo_fixtures import make_diamond, make_line


class TestAnalysis:
    def test_line_stats(self):
        stats = analyze(make_line(4))
        assert stats.diameter == 3
        assert stats.num_links == 3
        assert stats.min_degree == 1 and stats.max_degree == 2
        assert stats.nodes_per_switch_min == stats.nodes_per_switch_max == 1
        assert stats.multi_link_pairs == 0

    def test_switch_distances(self):
        topo = make_diamond()
        d = switch_distances(topo, 0)
        assert d == [0, 1, 1, 2]

    def test_multi_link_detection(self):
        topo = NetworkTopology(
            2,
            4,
            [],
            [
                SwitchLink(0, PortRef(0, 0), PortRef(1, 0)),
                SwitchLink(1, PortRef(0, 1), PortRef(1, 1)),
            ],
        )
        assert analyze(topo).multi_link_pairs == 1

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            analyze(NetworkTopology(2, 4, [], []))

    def test_generated_topology_stats_sane(self):
        p = SimParams()
        topo = generate_irregular_topology(p, seed=3)
        stats = analyze(topo)
        assert stats.num_switches == 8 and stats.num_nodes == 32
        assert 1 <= stats.diameter <= 7
        assert 0 < stats.mean_switch_distance <= stats.diameter


class TestDeadlockVerifier:
    def test_updown_is_deadlock_free_on_random_topologies(self):
        for seed in range(6):
            topo = generate_irregular_topology(SimParams(), seed=seed)
            rt = UpDownRouting.build(topo)
            assert cdg_problems(topo, rt) == []

    def test_updown_cdg_is_acyclic_on_cyclic_topology(self):
        topo = make_diamond()  # contains the cycle 0-1-3-2-0
        rt = UpDownRouting.build(topo)
        deps = build_multicast_cdg(topo, rt)
        assert find_cycle(deps) is None

    def test_unrestricted_routing_deadlocks_on_cycles(self):
        # Negative control: shortest-path routing without the up/down rule
        # has a cyclic CDG on a ring.
        links = [
            SwitchLink(0, PortRef(0, 1), PortRef(1, 1)),
            SwitchLink(1, PortRef(1, 2), PortRef(2, 1)),
            SwitchLink(2, PortRef(2, 2), PortRef(3, 1)),
            SwitchLink(3, PortRef(3, 2), PortRef(0, 2)),
        ]
        ring = NetworkTopology(
            4, 4, [PortRef(s, 0) for s in range(4)], links
        )
        deps = build_unrestricted_cdg(ring)
        assert find_cycle(deps) is not None
        # ...while up*/down* on the same ring stays acyclic.
        assert cdg_problems(ring, UpDownRouting.build(ring)) == []

    def test_cycle_error_carries_cycle(self):
        deps = {("a",): {("b",)}, ("b",): {("a",)}}
        cycle = find_cycle(deps)
        assert cycle is not None and cycle[0] == cycle[-1]

    def test_cdg_contains_delivery_sinks(self):
        topo = make_line(2)
        rt = UpDownRouting.build(topo)
        deps = build_multicast_cdg(topo, rt)
        for n in range(topo.num_nodes):
            assert deps[("del", n)] == set()
        # injection of node 0 can request its switch's outgoing link or the
        # local delivery of node 0's switch-mates.
        assert deps[("inj", 0)]
