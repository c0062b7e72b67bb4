"""Tests for link-fault injection and post-reconfiguration behaviour."""

import random
from collections import Counter

import networkx as nx
import pytest

from repro.multicast import make_scheme
from repro.params import SimParams
from repro.routing.invariants import cdg_problems
from repro.routing.updown import UpDownRouting
from repro.sim.network import SimNetwork
from repro.topology.faults import degrade, removable_links, remove_link
from repro.topology.graph import NetworkTopology, PortRef, SwitchLink
from repro.topology.irregular import generate_irregular_topology
from tests.topo_fixtures import make_diamond, make_line


class TestRemoveLink:
    def test_removes_exactly_one(self):
        topo = make_diamond()
        degraded = remove_link(topo, 3)
        assert len(degraded.links) == 3
        assert all(lk.link_id != 3 for lk in degraded.links)
        assert degraded.is_connected()

    def test_ports_freed(self):
        topo = make_diamond()
        before = topo.free_ports(2)
        degraded = remove_link(topo, 3)
        assert degraded.free_ports(2) == before + 1

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError, match="no link"):
            remove_link(make_diamond(), 99)

    def test_disconnecting_removal_rejected(self):
        topo = make_line(3)  # every link is a bridge
        with pytest.raises(ValueError, match="disconnects"):
            remove_link(topo, 0)

    def test_removable_links(self):
        assert removable_links(make_line(3)) == []
        assert set(removable_links(make_diamond())) == {0, 1, 2, 3}

    def test_host_attachment_port_id_is_not_a_link_id(self):
        # Link ids and port ids are distinct namespaces: passing the port
        # number of a host attachment must not silently fail a switch link.
        links = [
            SwitchLink(10, PortRef(0, 1), PortRef(1, 1)),
            SwitchLink(11, PortRef(1, 2), PortRef(2, 1)),
            SwitchLink(12, PortRef(2, 2), PortRef(0, 2)),
        ]
        attach = [PortRef(s, 0) for s in range(3)]  # hosts sit on port 0
        topo = NetworkTopology(3, 8, attach, links)
        with pytest.raises(ValueError, match="no link with id 0"):
            remove_link(topo, 0)
        # the real link ids are still individually removable (it's a cycle)
        assert removable_links(topo) == [10, 11, 12]


class TestDegrade:
    def test_zero_failures_is_identity_shape(self):
        topo = make_diamond()
        degraded, failed = degrade(topo, 0)
        assert failed == []
        assert len(degraded.links) == 4

    def test_multiple_failures_keep_connected(self):
        topo = generate_irregular_topology(SimParams(), seed=3)
        degraded, failed = degrade(topo, 3, random.Random(1))
        assert len(failed) == 3
        assert degraded.is_connected()
        assert len(degraded.links) == len(topo.links) - 3

    def test_deterministic_with_seeded_rng(self):
        topo = generate_irregular_topology(SimParams(), seed=3)
        _d1, f1 = degrade(topo, 2, random.Random(5))
        _d2, f2 = degrade(topo, 2, random.Random(5))
        assert f1 == f2

    def test_too_many_failures_rejected(self):
        with pytest.raises(ValueError, match="cannot fail"):
            degrade(make_line(4), 1)
        with pytest.raises(ValueError):
            degrade(make_diamond(), -1)

    def test_stuck_mid_degrade_reports_progress(self):
        # The diamond absorbs exactly one failure (then it is a tree); the
        # error must say how far the degradation got before sticking.
        with pytest.raises(ValueError, match=r"stuck after 1"):
            degrade(make_diamond(), 2, random.Random(0))


def _random_multigraph(rng: random.Random) -> NetworkTopology:
    """0-7 switches joined by random links, parallel links included."""
    n = rng.randint(0, 7)
    next_port = [0] * n
    links = []
    if n >= 2:
        for link_id in range(rng.randint(0, n + 4)):
            a, b = rng.sample(range(n), 2)
            if rng.random() < 0.3 and links:  # a parallel twin
                a, b = links[-1].a.switch, links[-1].b.switch
            ends = []
            for s in (a, b):
                ends.append(PortRef(s, next_port[s]))
                next_port[s] += 1
            links.append(SwitchLink(link_id, *ends))
    attach = [PortRef(s, next_port[s]) for s in range(n)]
    return NetworkTopology(n, 16, attach, links)


def _switch_multigraph(topo: NetworkTopology) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(range(topo.num_switches))
    g.add_edges_from((lk.a.switch, lk.b.switch) for lk in topo.links)
    return g


def _non_bridges(topo: NetworkTopology) -> list[int]:
    """Links that are not bridges of the switch multigraph, in link order:
    a link with a parallel twin never is, any other is judged by
    ``networkx.bridges`` on the simple graph."""
    pair = {lk.link_id: frozenset((lk.a.switch, lk.b.switch))
            for lk in topo.links}
    twins = Counter(pair.values())
    simple = nx.Graph(_switch_multigraph(topo))
    bridges = {frozenset(e) for e in nx.bridges(simple)}
    return [
        lk.link_id for lk in topo.links
        if twins[pair[lk.link_id]] > 1 or pair[lk.link_id] not in bridges
    ]


class TestConnectivityProperties:
    """``is_connected`` and ``removable_links`` against networkx."""

    def test_is_connected_matches_networkx(self):
        rng = random.Random(11)
        sizes, outcomes, parallel = set(), set(), 0
        for _ in range(400):
            topo = _random_multigraph(rng)
            g = _switch_multigraph(topo)
            expected = topo.num_switches == 0 or nx.is_connected(g)
            assert topo.is_connected() == expected
            sizes.add(min(topo.num_switches, 2))
            outcomes.add(expected)
            parallel += g.number_of_edges() > nx.Graph(g).number_of_edges()
        assert sizes == {0, 1, 2} and outcomes == {True, False}
        assert parallel > 0

    def test_removable_links_on_multigraphs(self):
        rng = random.Random(12)
        for _ in range(200):
            topo = _random_multigraph(rng)
            if not topo.is_connected():
                # No removal can leave a disconnected network connected.
                assert removable_links(topo) == []
            else:
                assert removable_links(topo) == _non_bridges(topo)

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("switches", [4, 8, 16, 32, 64, 128])
    def test_removable_links_are_the_non_bridges(self, switches, fraction):
        params = SimParams(num_switches=switches, num_nodes=2 * switches)
        topo = generate_irregular_topology(
            params, seed=switches, extra_link_fraction=fraction
        )
        rng = random.Random(switches)
        for _ in range(4):  # the healthy topology, then up to 3 removals
            removable = removable_links(topo)
            assert removable == _non_bridges(topo)
            if not removable:
                break
            topo = remove_link(topo, rng.choice(removable))
        if fraction == 0.0:
            assert removable == []  # a pure spanning tree


class TestReconfiguration:
    def test_routing_recomputed_and_deadlock_free(self):
        topo = generate_irregular_topology(SimParams(), seed=3)
        degraded, _ = degrade(topo, 2, random.Random(7))
        rt = UpDownRouting.build(degraded)
        assert cdg_problems(degraded, rt) == []

    @pytest.mark.parametrize("scheme", ["binomial", "ni", "path", "tree"])
    def test_multicast_survives_failures(self, scheme):
        params = SimParams()
        topo = generate_irregular_topology(params, seed=3)
        degraded, _ = degrade(topo, 2, random.Random(7))
        net = SimNetwork(degraded, params)
        dests = random.Random(0).sample(range(1, 32), 10)
        res = make_scheme(scheme).execute(net, 0, dests)
        net.run()
        assert res.complete
        net.assert_quiescent()

    def test_failures_never_speed_up_tree_multicast_much(self):
        # Losing links can only shrink the set of legal routes; latency may
        # rise (longer climbs) but should not collapse.
        params = SimParams()
        topo = generate_irregular_topology(params, seed=3)
        dests = random.Random(0).sample(range(1, 32), 12)

        def latency(t):
            net = SimNetwork(t, params)
            res = make_scheme("tree").execute(net, 0, dests)
            net.run()
            return res.latency

        healthy = latency(topo)
        degraded, _ = degrade(topo, 2, random.Random(7))
        assert latency(degraded) >= healthy - 10
