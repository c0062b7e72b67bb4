"""NI-based multicast: k-binomial tree + FPFS smart-NI forwarding (S10).

The scheme of Kesavan & Panda (ICPP'97) as used by the paper: destinations
form a k-binomial tree (recursive doubling, at most ``k`` children per
vertex).  Interior nodes never involve their host processor in forwarding --
the smart NI forwards each packet to all children as soon as it arrives
(First-Packet-First-Served), paying only ``o_ni`` per replica, while the
packet is DMA'd to host memory in the background.

The optimal ``k`` trades serialisation at the NI (more children = more
``o_ni`` blocks back to back) against tree depth (fewer children = more
store-and-forward NI hops); it depends on the destination-set size and the
packet count.  We pick ``k`` by evaluating a contention-free analytic model
of the FPFS pipeline for each candidate (see :func:`estimate_fpfs_completion`)
-- a faithful stand-in for the closed-form selection of the original paper,
whose numeric tables the OCR'd text does not preserve.
"""

from __future__ import annotations

from typing import Callable

from repro.multicast.base import MulticastResult, MulticastScheme
from repro.multicast.ordering import contention_aware_order
from repro.params import SimParams
from repro.sim.messaging import (
    HostReceiver,
    SmartNIForwarder,
    smart_ni_source_send,
)
from repro.sim.network import SimNetwork

MAX_K = 8
"""Largest fan-out considered by the k selector."""


def build_k_binomial_tree(members: list[int], k: int) -> dict[int, list[int]]:
    """k-binomial tree over ``members`` (``members[0]`` is the root).

    "A recursively doubling tree where each vertex has at most k children":
    every node hands the (far) half of its remaining responsibility to a new
    child, up to ``k`` times; the k-th child inherits everything left.
    ``k = 1`` degenerates to a chain, large ``k`` to the plain binomial tree.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not members:
        raise ValueError("empty member list")
    if len(set(members)) != len(members):
        raise ValueError("duplicate members")
    tree: dict[int, list[int]] = {m: [] for m in members}
    _hand_out(tree, list(members), k)
    return tree


def _hand_out(tree: dict[int, list[int]], mem: list[int], k: int) -> None:
    """Give ``mem[0]`` its children in ``tree`` for the members ``mem[1:]``.

    A module-level function rather than a recursive closure: the closure
    would be a reference cycle holding the whole tree until the cycle
    collector runs, and ``choose_k`` builds up to ``MAX_K`` trees per plan.
    """
    root, rest = mem[0], mem[1:]
    sent = 0
    while rest:
        if sent == k - 1:
            group, rest = rest, []
        else:
            take = (len(rest) + 1) // 2
            group, rest = rest[:take], rest[take:]
        tree[root].append(group[0])
        _hand_out(tree, group, k)
        sent += 1


def _post_order(
    tree: dict[int, list[int]], node: int, out: list[int]
) -> list[int]:
    """Append the subtree under ``node`` to ``out``, children first."""
    for c in tree[node]:
        _post_order(tree, c, out)
    out.append(node)
    return out


def base_packet_hop_latency(net: SimNetwork, src: int, dst: int) -> float:
    """Contention-free NI-to-NI latency of one packet between two nodes."""
    p = net.params
    hops = net.routing.distance(
        net.topo.switch_of_node(src), net.topo.switch_of_node(dst)
    )
    header = (
        p.link_delay  # injection
        + p.routing_delay
        + hops * (p.switch_delay + p.link_delay + p.routing_delay)
        + (p.switch_delay + p.link_delay)  # delivery
    )
    return header + p.packet_flits - 1


def estimate_fpfs_completion(
    tree: dict[int, list[int]],
    root: int,
    params: SimParams,
    hop_latency: Callable[[int, int], float],
) -> float:
    """Contention-free completion time of the FPFS pipeline over ``tree``.

    Models, per node: one ``o_ni`` receive block plus one ``o_ni`` replica
    set-up block per child; the injection channel serialising replica packets
    at ``L`` cycles each in FPFS (packet-major) order, gated by each packet's
    arrival; and per-destination host delivery (packet DMAs + ``o_host``).
    Used only to select ``k``; the real simulation measures actual latency
    including network contention.
    """
    m = params.message_packets
    o_ni, o_host = params.o_ni, params.o_host
    per_pkt = params.o_ni_per_packet
    L = params.packet_flits
    bus = params.io_bus_flits_per_cycle

    # avail[n][p]: time packet p sits complete in n's NI memory.
    avail: dict[int, list[float]] = {
        root: [o_host + m * L / bus] * m  # whole message DMA'd, then NI runs
    }
    completion = 0.0
    stack = [root]
    while stack:
        node = stack.pop()
        arr = avail[node]
        children = tree[node]
        # Walk the FPFS program: packet-major replicas, per-child o_ni
        # set-up interleaved at each child's first replica.
        t_ni = arr[0] + (0 if node == root else o_ni)
        inj_free = 0.0
        setup_done: set[int] = set()
        child_arr: dict[int, list[float]] = {c: [] for c in children}
        for p in range(m):
            for ci, c in enumerate(children):
                t_ni = max(t_ni, arr[p])
                if ci not in setup_done:
                    setup_done.add(ci)
                    t_ni += o_ni
                t_ni += per_pkt
                start = max(t_ni, inj_free)
                inj_free = start + L
                child_arr[c].append(start + hop_latency(node, c))
        for c in children:
            avail[c] = child_arr[c]
            stack.append(c)
        if node != root:
            dma_done = arr[0] + o_ni
            for p in range(m):
                dma_done = max(dma_done, arr[p]) + L / bus
            completion = max(completion, dma_done + o_host)
    return completion


def choose_k(
    net: SimNetwork, source: int, ordered_dests: list[int]
) -> tuple[int, dict[int, list[int]]]:
    """Pick the fan-out minimising the analytic FPFS completion estimate."""
    members = [source] + ordered_dests
    # Every candidate tree runs over the same members, so each pair's
    # latency is looked up once for all of them.
    latencies: dict[tuple[int, int], float] = {}

    def hop_latency(a: int, b: int) -> float:
        lat = latencies.get((a, b))
        if lat is None:
            lat = latencies[a, b] = base_packet_hop_latency(net, a, b)
        return lat

    # Past k = ceil(log2 n) for n members the tree no longer changes (no
    # node has more than that many children to hand out), so larger k would
    # only repeat the last estimate; the first strict minimum wins anyway.
    # ceil(log2 n) == (n - 1).bit_length(), and n - 1 is the dest count.
    k_max = min(MAX_K, len(ordered_dests).bit_length())
    best: tuple[float, int, dict[int, list[int]]] | None = None
    for k in range(1, k_max + 1):
        tree = build_k_binomial_tree(members, k)
        est = estimate_fpfs_completion(tree, source, net.params, hop_latency)
        if best is None or est < best[0]:
            best = (est, k, tree)
    assert best is not None
    return best[1], best[2]


class NIKBinomialScheme(MulticastScheme):
    """NI-supported multicast on a k-binomial tree with FPFS forwarding."""

    name = "ni"

    def __init__(self, fixed_k: int | None = None) -> None:
        """``fixed_k`` pins the fan-out (for ablations); default auto-selects."""
        self.fixed_k = fixed_k

    def plan(self, net: SimNetwork, source: int,
             dests: list[int]) -> tuple[int, dict[int, list[int]]]:
        """(k, tree) this scheme would use (exposed for tests)."""
        ordered = contention_aware_order(net.topo, net.routing, source, dests)
        if self.fixed_k is not None:
            return self.fixed_k, build_k_binomial_tree(
                [source] + ordered, self.fixed_k
            )
        return choose_k(net, source, ordered)

    def execute(
        self,
        net: SimNetwork,
        source: int,
        dests: list[int],
        on_complete: Callable[[MulticastResult], None] | None = None,
    ) -> MulticastResult:
        result = self._new_result(net, source, dests)
        _k, tree = self._cached_plan(
            net,
            ("ktree", source, result.dests),
            lambda: self.plan(net, source, list(result.dests)),
        )
        m = net.params.message_packets
        receivers: dict[int, HostReceiver | SmartNIForwarder] = {}

        def make_launcher(src: int, dst: int) -> Callable[[], None]:
            steer = net.unicast_steer(dst)
            receiver = receivers[dst]

            def launch() -> None:
                net.hosts[src].launch_worm(
                    steer,
                    initial_state=None,
                    on_delivered=lambda _n, _t: receiver.packet_arrived(),
                    label=f"ni:{src}->{dst}",
                )

            return launch

        # Children before parents, so every launcher binds its child's
        # receiver itself: a launcher that looked ``receivers`` up would close
        # a reference cycle through the forwarders' launch rows (and ``net``).
        for node in _post_order(tree, source, []):
            if node == source:
                continue
            on_deliv = lambda t, n=node: result._record(n, t, on_complete)
            rows = [
                [make_launcher(node, c) for c in tree[node]] for _ in range(m)
            ]
            if tree[node]:
                receivers[node] = SmartNIForwarder(
                    net.hosts[node], m, rows, on_deliv
                )
            else:
                receivers[node] = HostReceiver(net.hosts[node], m, on_deliv)

        source_rows = [
            [make_launcher(source, c) for c in tree[source]] for _ in range(m)
        ]
        smart_ni_source_send(net.hosts[source], source_rows)
        return result
