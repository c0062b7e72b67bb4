"""Random irregular topology generation.

The paper generates "different irregular topologies" with a fixed number of
switches and ports per switch and averages results over them (their method is
described in Kesavan et al., HPCA'98).  We follow the same recipe:

1. scatter the hosts across switches uniformly at random (bounded by free
   ports, and leaving every switch at least one port for connectivity);
2. connect the switches with a uniformly random spanning tree (guaranteeing
   connectivity, as the paper requires);
3. spend remaining ports on random extra switch-switch links -- multi-links
   between the same switch pair are allowed, self-links are not -- until the
   requested link budget or port exhaustion.

The generator is fully deterministic in its seed.
"""

from __future__ import annotations

import random

from repro.params import SimParams
from repro.topology.graph import NetworkTopology, PortRef, SwitchLink


def generate_irregular_topology(
    params: SimParams,
    seed: int | None = None,
    extra_link_fraction: float = 0.5,
) -> NetworkTopology:
    """Generate a random connected irregular topology.

    Args:
        params: system dimensions (switch count, port count, node count).
        seed: RNG seed; defaults to ``params.topology_seed``.
        extra_link_fraction: after the spanning tree, this fraction of the
            remaining free port *pairs* is consumed by random extra links
            (0.0 keeps a pure tree, 1.0 wires every spare port it can).

    Generation takes O(S + N + L) time for S switches, N nodes and L links,
    plus at most one list removal per switch per draw list.  Each of the
    three draws (the spanning tree's redraw, host placement, extra links)
    picks from a list built once and kept as switches fill: a switch leaves
    it, order kept, the moment it has no port left for that purpose.  The
    list therefore holds the same members in the same order as a rescan of
    every switch at each draw would, so ``rng`` sees identical sequences and
    each seed gives the same topology as that rescan.

    Returns:
        A connected :class:`NetworkTopology`.

    Raises:
        ValueError: if the dimensions cannot host all nodes while staying
            connected (delegates to :meth:`SimParams.validate`).
    """
    params.validate()
    if not 0.0 <= extra_link_fraction <= 1.0:
        raise ValueError("extra_link_fraction must be within [0, 1]")
    rng = random.Random(params.topology_seed if seed is None else seed)
    S, P, N = params.num_switches, params.ports_per_switch, params.num_nodes

    # --- 1. host placement -------------------------------------------------
    # Every switch must keep >=1 port for the spanning tree (>=2 for interior
    # switches, but the tree construction below checks as it goes).
    tree_ports_needed = [0] * S
    # A uniformly random spanning tree over switches (random Prufer-free
    # construction: random permutation + attach each new switch to a random
    # already-connected one).
    order = list(range(S))
    rng.shuffle(order)
    # The (switch, switch) ends of every link in link-id order, tree first.
    edges: list[tuple[int, int]] = []
    # Connected switches that still have a tree port, in ``order`` order.
    open_parents = [order[0]]
    for i in range(1, S):
        parent = order[rng.randrange(i)]
        if tree_ports_needed[parent] >= P:
            # The uniform draw landed on a switch whose ports the tree has
            # already exhausted (likely once S*P is large: random-attachment
            # trees grow log-degree hubs).  Redraw uniformly among the
            # connected switches that still have a free port; the extra
            # draw only happens where the unguarded choice used to blow the
            # port budget at materialisation time, so every previously
            # valid seed reproduces its topology bit-for-bit.
            if not open_parents:
                raise ValueError(
                    "cannot build spanning tree: port budget exhausted"
                )
            parent = open_parents[rng.randrange(len(open_parents))]
        edges.append((parent, order[i]))
        tree_ports_needed[parent] += 1
        tree_ports_needed[order[i]] += 1
        if tree_ports_needed[parent] == P:
            open_parents.remove(parent)
        if tree_ports_needed[order[i]] < P:
            open_parents.append(order[i])

    host_of: list[int] = []
    host_count = [0] * S
    # Switches with a port left for a host, in switch order.
    candidates = [s for s in range(S) if tree_ports_needed[s] < P]
    for _ in range(N):
        if not candidates:
            raise ValueError("cannot place all hosts: port budget exhausted")
        s = rng.choice(candidates)
        host_count[s] += 1
        host_of.append(s)
        if host_count[s] + tree_ports_needed[s] == P:
            candidates.remove(s)

    # --- 2. spanning tree links (already in ``edges``) ----------------------
    used_ports = [h + t for h, t in zip(host_count, tree_ports_needed)]

    # --- 3. extra random links ----------------------------------------------
    if S > 1:
        # Switches with a spare port, in switch order.
        open_switches = [s for s in range(S) if used_ports[s] < P]
        spare_pairs = sum(P - used_ports[s] for s in open_switches) // 2
        for _ in range(int(round(spare_pairs * extra_link_fraction))):
            if len(open_switches) < 2:
                break
            a, b = rng.sample(open_switches, 2)
            edges.append((a, b))
            for end in (a, b):
                used_ports[end] += 1
                if used_ports[end] == P:
                    open_switches.remove(end)

    # --- materialise port numbers -------------------------------------------
    # Hosts take the low ports, then links, mirroring Figure 1 of the paper
    # where each switch mixes host ports and switch ports.  Port numbering is
    # immaterial to behaviour (routing is by link identity), so a next-free
    # counter per switch suffices; the topology's own port-range check would
    # catch a switch handed more than P ports.
    next_port = [0] * S
    node_attachment: list[PortRef] = []
    for s in host_of:
        node_attachment.append(PortRef(s, next_port[s]))
        next_port[s] += 1
    links: list[SwitchLink] = []
    for link_id, (a, b) in enumerate(edges):
        links.append(
            SwitchLink(link_id, PortRef(a, next_port[a]), PortRef(b, next_port[b]))
        )
        next_port[a] += 1
        next_port[b] += 1

    topo = NetworkTopology(
        num_switches=S,
        ports_per_switch=P,
        node_attachment=node_attachment,
        links=links,
    )
    if not topo.is_connected():
        raise AssertionError("generator produced a disconnected topology")
    return topo


def generate_topology_family(
    params: SimParams, count: int, base_seed: int | None = None
) -> list[NetworkTopology]:
    """Generate ``count`` distinct-seed topologies for averaging experiments.

    The paper averages every reported number over several random topologies;
    this helper produces the family deterministically from ``base_seed``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    base = params.topology_seed if base_seed is None else base_seed
    return [
        generate_irregular_topology(params, seed=base + 1000 * i)
        for i in range(count)
    ]
