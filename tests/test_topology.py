"""Unit tests for the irregular topology generator and graph model."""

import random

import pytest

from repro.params import SimParams
from repro.topology import NetworkTopology, PortRef, SwitchLink
from repro.topology.irregular import (
    generate_irregular_topology,
    generate_topology_family,
)


def small_params(**kw) -> SimParams:
    return SimParams(**kw)


class TestNetworkTopologyModel:
    def make_two_switch(self) -> NetworkTopology:
        return NetworkTopology(
            num_switches=2,
            ports_per_switch=4,
            node_attachment=[PortRef(0, 0), PortRef(1, 0)],
            links=[SwitchLink(0, PortRef(0, 1), PortRef(1, 1))],
        )

    def test_basic_accessors(self):
        topo = self.make_two_switch()
        assert topo.num_nodes == 2
        assert topo.switch_of_node(0) == 0
        assert topo.switch_of_node(1) == 1
        assert topo.nodes_on_switch(0) == [0]
        assert topo.neighbors(0) == [1]
        assert topo.degree(0) == 1
        assert topo.free_ports(0) == 2
        assert topo.is_connected()

    def test_other_end_and_end_on(self):
        lk = SwitchLink(5, PortRef(0, 1), PortRef(1, 2))
        assert lk.other_end(0) == PortRef(1, 2)
        assert lk.other_end(1) == PortRef(0, 1)
        assert lk.end_on(1) == PortRef(1, 2)
        with pytest.raises(ValueError):
            lk.other_end(2)

    def test_self_link_rejected(self):
        with pytest.raises(ValueError, match="self-link"):
            NetworkTopology(
                num_switches=1,
                ports_per_switch=4,
                node_attachment=[],
                links=[SwitchLink(0, PortRef(0, 0), PortRef(0, 1))],
            )

    def test_double_port_use_rejected(self):
        with pytest.raises(ValueError, match="used twice"):
            NetworkTopology(
                num_switches=2,
                ports_per_switch=4,
                node_attachment=[PortRef(0, 0)],
                links=[SwitchLink(0, PortRef(0, 0), PortRef(1, 0))],
            )

    def test_port_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            NetworkTopology(
                num_switches=1,
                ports_per_switch=2,
                node_attachment=[PortRef(0, 5)],
                links=[],
            )

    def test_disconnected_detection(self):
        topo = NetworkTopology(
            num_switches=2,
            ports_per_switch=4,
            node_attachment=[],
            links=[],
        )
        assert not topo.is_connected()

    def test_multi_links_allowed(self):
        topo = NetworkTopology(
            num_switches=2,
            ports_per_switch=4,
            node_attachment=[],
            links=[
                SwitchLink(0, PortRef(0, 0), PortRef(1, 0)),
                SwitchLink(1, PortRef(0, 1), PortRef(1, 1)),
            ],
        )
        assert topo.degree(0) == 2
        assert topo.neighbors(0) == [1]

    def test_to_networkx(self):
        g = self.make_two_switch().to_networkx()
        assert g.number_of_nodes() == 4  # 2 switches + 2 hosts
        assert g.number_of_edges() == 3  # 1 link + 2 attachments


def _first_error(num_switches, ports, attach, links) -> str | None:
    """Reference scan: the first ``ValueError`` text a topology raises.

    Per link the self-link check, then each end's switch range, port range
    and earlier use; then each node's range and earlier use.
    """
    used = []

    def check(ref, suffix=""):
        if not 0 <= ref.switch < num_switches:
            return f"switch {ref.switch} out of range"
        if not 0 <= ref.port < ports:
            return f"port {ref.port} out of range on switch {ref.switch}"
        if ref in used:
            return f"port {ref} used twice{suffix}"
        used.append(ref)
        return None

    for lk in links:
        if lk.a.switch == lk.b.switch:
            return f"self-link on switch {lk.a.switch}"
        for end in (lk.a, lk.b):
            if (err := check(end)) is not None:
                return err
    for node, ref in enumerate(attach):
        if (err := check(ref, f" (node {node})")) is not None:
            return err
    return None


def _construction_error(num_switches, ports, attach, links) -> str | None:
    try:
        NetworkTopology(num_switches, ports, attach, links)
    except ValueError as exc:
        return str(exc)
    return None


class TestConstructorErrors:
    """Every invalid input raises the same text, and mixed-invalid inputs
    report the same first error, whatever the validation's internals."""

    @pytest.mark.parametrize(
        "attach, links, text",
        [
            ([], [SwitchLink(0, PortRef(1, 0), PortRef(1, 1))],
             "self-link on switch 1"),
            ([], [SwitchLink(0, PortRef(0, 0), PortRef(3, 0))],
             "switch 3 out of range"),
            ([], [SwitchLink(0, PortRef(-1, 0), PortRef(0, 0))],
             "switch -1 out of range"),
            ([], [SwitchLink(0, PortRef(0, 0), PortRef(1, 4))],
             "port 4 out of range on switch 1"),
            ([PortRef(2, 0)], [], "switch 2 out of range"),
            ([PortRef(0, -1)], [], "port -1 out of range on switch 0"),
            ([], [SwitchLink(0, PortRef(0, 1), PortRef(1, 1)),
                  SwitchLink(1, PortRef(0, 1), PortRef(1, 2))],
             "port PortRef(switch=0, port=1) used twice"),
            ([PortRef(0, 0), PortRef(0, 0)], [],
             "port PortRef(switch=0, port=0) used twice (node 1)"),
            ([PortRef(1, 3)], [SwitchLink(0, PortRef(0, 3), PortRef(1, 3))],
             "port PortRef(switch=1, port=3) used twice (node 0)"),
        ],
        ids=[
            "self-link", "switch-high", "switch-negative", "port-high",
            "node-switch", "node-port", "link-port-twice", "node-port-twice",
            "node-on-link-port",
        ],
    )
    def test_exact_text(self, attach, links, text):
        with pytest.raises(ValueError) as exc:
            NetworkTopology(2, 4, attach, links)
        assert str(exc.value) == text
        assert _first_error(2, 4, attach, links) == text

    def test_first_failing_link_wins(self):
        ok = SwitchLink(0, PortRef(0, 0), PortRef(1, 0))
        dup = SwitchLink(1, PortRef(0, 0), PortRef(1, 1))
        loop = SwitchLink(2, PortRef(1, 2), PortRef(1, 3))
        assert _construction_error(2, 4, [], [ok, dup, loop]) == (
            "port PortRef(switch=0, port=0) used twice"
        )
        assert _construction_error(2, 4, [], [ok, loop, dup]) == (
            "self-link on switch 1"
        )
        # The links are all checked before any node.
        assert _construction_error(2, 4, [PortRef(5, 0)], [ok, dup]) == (
            "port PortRef(switch=0, port=0) used twice"
        )

    def test_mixed_invalid_inputs_match_reference_scan(self):
        rng = random.Random(30)
        seen = set()
        for _ in range(3_000):
            n, ports = rng.randint(1, 4), rng.randint(1, 4)

            def ref():
                return PortRef(rng.randint(-1, n), rng.randint(-1, ports))

            links = [
                SwitchLink(i, ref(), ref()) for i in range(rng.randint(0, 5))
            ]
            attach = [ref() for _ in range(rng.randint(0, 4))]
            expected = _first_error(n, ports, attach, links)
            assert _construction_error(n, ports, attach, links) == expected
            seen.add(expected.split()[0] if expected else None)
        # Every error class, and valid inputs, were drawn.
        assert seen == {"self-link", "switch", "port", None}


class TestGenerator:
    def test_default_dimensions(self):
        p = small_params()
        topo = generate_irregular_topology(p)
        assert topo.num_switches == p.num_switches
        assert topo.num_nodes == p.num_nodes
        assert topo.ports_per_switch == p.ports_per_switch
        assert topo.is_connected()

    def test_port_budget_respected(self):
        topo = generate_irregular_topology(small_params())
        for s in range(topo.num_switches):
            assert topo.free_ports(s) >= 0

    def test_deterministic_in_seed(self):
        p = small_params()
        t1 = generate_irregular_topology(p, seed=42)
        t2 = generate_irregular_topology(p, seed=42)
        assert [(l.link_id, l.a, l.b) for l in t1.links] == [
            (l.link_id, l.a, l.b) for l in t2.links
        ]
        assert t1.node_attachment == t2.node_attachment

    def test_different_seeds_differ(self):
        p = small_params()
        t1 = generate_irregular_topology(p, seed=1)
        t2 = generate_irregular_topology(p, seed=2)
        assert (
            t1.node_attachment != t2.node_attachment
            or [(l.a, l.b) for l in t1.links] != [(l.a, l.b) for l in t2.links]
        )

    def test_pure_tree_when_no_extra_links(self):
        p = small_params()
        topo = generate_irregular_topology(p, seed=3, extra_link_fraction=0.0)
        assert len(topo.links) == p.num_switches - 1
        assert topo.is_connected()

    @pytest.mark.parametrize("switches,nodes", [(4, 16), (8, 32), (16, 32), (32, 32)])
    def test_paper_sweep_dimensions(self, switches, nodes):
        p = small_params(num_switches=switches, num_nodes=nodes)
        topo = generate_irregular_topology(p, seed=5)
        assert topo.is_connected()
        assert topo.num_nodes == nodes

    def test_single_switch_system(self):
        p = small_params(num_switches=1, num_nodes=4, ports_per_switch=8)
        topo = generate_irregular_topology(p)
        assert topo.links == []
        assert topo.is_connected()

    def test_infeasible_dimensions_rejected(self):
        with pytest.raises(ValueError):
            generate_irregular_topology(
                small_params(num_switches=2, num_nodes=32, ports_per_switch=4)
            )

    def test_bad_extra_fraction_rejected(self):
        with pytest.raises(ValueError):
            generate_irregular_topology(small_params(), extra_link_fraction=1.5)

    def test_family_distinct_and_sized(self):
        fam = generate_topology_family(small_params(), 4)
        assert len(fam) == 4
        assert all(t.is_connected() for t in fam)
        with pytest.raises(ValueError):
            generate_topology_family(small_params(), 0)
