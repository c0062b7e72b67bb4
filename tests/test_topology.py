"""Unit tests for the irregular topology generator and graph model."""

import hashlib
import json
import random

import pytest

from repro.params import SimParams
from repro.topology import NetworkTopology, PortRef, SwitchLink
from repro.topology.irregular import (
    generate_irregular_topology,
    generate_topology_family,
)
from repro.topology.serialization import topology_to_dict


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


def _reference_generate(params, seed=None, extra_link_fraction=0.5, seen=None):
    """The rescan-per-draw generator, kept as the reference.

    Its logic is the generator as it stood before the candidate lists were
    kept across draws: every draw rebuilds its list by scanning all
    switches.  ``seen`` collects which of the branches ran: ``"redraw"``
    (the spanning tree's redraw), and ``"tree-full"``, ``"host-full"`` and
    ``"link-full"`` when a switch runs out of ports for that draw.
    """
    seen = set() if seen is None else seen
    params.validate()
    if not 0.0 <= extra_link_fraction <= 1.0:
        raise ValueError("extra_link_fraction must be within [0, 1]")
    rng = random.Random(params.topology_seed if seed is None else seed)
    S, P, N = params.num_switches, params.ports_per_switch, params.num_nodes
    next_port = [0] * S

    def take_port(switch):
        ref = PortRef(switch, next_port[switch])
        next_port[switch] += 1
        if ref.port >= P:
            raise AssertionError("internal port budget violation")
        return ref

    tree_ports_needed = [0] * S
    order = list(range(S))
    rng.shuffle(order)
    tree_edges = []
    for i in range(1, S):
        parent = order[rng.randrange(i)]
        if tree_ports_needed[parent] >= P:
            seen.add("redraw")
            open_parents = [
                order[j] for j in range(i)
                if tree_ports_needed[order[j]] < P
            ]
            if not open_parents:
                raise ValueError(
                    "cannot build spanning tree: port budget exhausted"
                )
            parent = open_parents[rng.randrange(len(open_parents))]
        tree_edges.append((parent, order[i]))
        tree_ports_needed[parent] += 1
        tree_ports_needed[order[i]] += 1
        if tree_ports_needed[parent] == P:
            seen.add("tree-full")

    host_of = []
    host_count = [0] * S
    for _ in range(N):
        candidates = [
            s
            for s in range(S)
            if host_count[s] + tree_ports_needed[s] < P
        ]
        if not candidates:
            raise ValueError("cannot place all hosts: port budget exhausted")
        s = rng.choice(candidates)
        host_count[s] += 1
        host_of.append(s)
        if host_count[s] + tree_ports_needed[s] == P:
            seen.add("host-full")

    links = []
    used_ports = [host_count[s] for s in range(S)]

    def link_budget(s):
        return P - used_ports[s]

    link_id = 0
    for a, b in tree_edges:
        links.append(SwitchLink(link_id, PortRef(a, -1), PortRef(b, -1)))
        used_ports[a] += 1
        used_ports[b] += 1
        link_id += 1

    if S > 1:
        spare_pairs = sum(max(0, link_budget(s)) for s in range(S)) // 2
        target_extra = int(round(spare_pairs * extra_link_fraction))
        attempts = 0
        added = 0
        while added < target_extra and attempts < 50 * (target_extra + 1):
            attempts += 1
            open_switches = [s for s in range(S) if link_budget(s) > 0]
            if len(open_switches) < 2:
                break
            a, b = rng.sample(open_switches, 2)
            links.append(SwitchLink(link_id, PortRef(a, -1), PortRef(b, -1)))
            used_ports[a] += 1
            used_ports[b] += 1
            link_id += 1
            added += 1
            if 0 in (link_budget(a), link_budget(b)):
                seen.add("link-full")

    node_attachment = [take_port(s) for s in host_of]
    final_links = [
        SwitchLink(lk.link_id, take_port(lk.a.switch), take_port(lk.b.switch))
        for lk in links
    ]
    return NetworkTopology(
        num_switches=S,
        ports_per_switch=P,
        node_attachment=node_attachment,
        links=final_links,
    )


def _rendering(generate, params, seed, fraction, **kw):
    """Everything a generated topology is, or the ``ValueError`` text."""
    try:
        topo = generate(params, seed=seed, extra_link_fraction=fraction, **kw)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return (
        tuple(topo.node_attachment),
        tuple((lk.link_id, lk.a, lk.b) for lk in topo.links),
    )


def _max_nodes(switches: int, ports: int) -> int:
    """The largest node count :meth:`SimParams.validate` accepts."""
    if switches == 1:
        return ports
    return min(switches * (ports - 1), ports * switches - 2 * (switches - 1))


def _canonical_digest(topo: NetworkTopology) -> str:
    payload = json.dumps(
        topology_to_dict(topo), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestGeneratorMatchesReference:
    """The kept-list generator draws exactly what a rescan per draw did."""

    def test_seeded_draws_match(self):
        rng = random.Random(33)
        seen: set[str] = set()
        errors = 0
        draws = 0
        for size in range(1, 257):
            # Every switch count once, at a random shape and fraction, plus
            # the small sizes many times: their draws fill switches often.
            for _ in range(1 if size > 32 else 60):
                ports = rng.randint(2, 12)
                if size >= 128 and rng.random() < 0.5:
                    # Sparse ports at large S: the spanning tree's first
                    # draw lands on a full hub, so the redraw branch runs.
                    ports = rng.randint(3, 4)
                limit = _max_nodes(size, ports)
                nodes = rng.randint(2, limit + 2 if rng.random() < 0.1 else limit)
                params = SimParams(
                    num_switches=size, ports_per_switch=ports, num_nodes=nodes
                )
                fraction = rng.choice([0.0, 0.25, 0.5, 1.0])
                seed = rng.randrange(1 << 30)
                expected = _rendering(
                    _reference_generate, params, seed, fraction, seen=seen
                )
                got = _rendering(generate_irregular_topology, params, seed, fraction)
                assert got == expected, (size, ports, nodes, fraction, seed)
                errors += isinstance(expected, str)
                draws += 1
        assert draws >= 2_000
        assert errors > 0
        assert seen == {"redraw", "tree-full", "host-full", "link-full"}

    def test_error_texts_match(self):
        cases = [
            (SimParams(num_switches=1, ports_per_switch=4, num_nodes=5), 0.5),
            (SimParams(num_switches=3, ports_per_switch=4, num_nodes=10), 0.5),
            (SimParams(num_switches=4, ports_per_switch=2, num_nodes=4), 0.0),
            (SimParams(), 1.5),
            (SimParams(), float("nan")),
        ]
        for params, fraction in cases:
            expected = _rendering(_reference_generate, params, 1, fraction)
            assert expected.startswith("ValueError: ")
            assert _rendering(
                generate_irregular_topology, params, 1, fraction
            ) == expected

    @pytest.mark.parametrize(
        "switches, nodes, seed, digest",
        [
            (256, 512, 0,
             "8d8f92f14da20a6a63643e6d90f56271eced2df8097bd50364caa30249ea28bc"),
            (256, 512, 1,
             "3d11963fa8a3f29bac1ca9158bd93d3a28bb740a7fb14577da1cdf7f342b84a2"),
            (256, 512, 2,
             "619cb17537d53b206eb5f04b6b72b9272017397aee3471791ad50d82064d6671"),
            (1024, 2048, 0,
             "c90ece4ec34ab33753f937933fa1c4858e8aad78ef7989399e029122640a35e5"),
            (1024, 2048, 1,
             "bb78b144ed15e755a720802c9917ea8dcfde8928aba7f5ea38a8cb793f1f6b71"),
            (1024, 2048, 2,
             "ed310c61c84b2e183fc26eea5272b3b66ef260919e8ea568d9e0d17acdc57f3d"),
        ],
    )
    def test_golden_digests(self, switches, nodes, seed, digest):
        params = SimParams(num_switches=switches, num_nodes=nodes)
        topo = generate_irregular_topology(params, seed=seed)
        assert _canonical_digest(topo) == digest
