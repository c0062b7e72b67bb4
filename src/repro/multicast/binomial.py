"""Multi-phase software multicast over unicast messages (Section 3.1).

The classical baseline: a binomial tree over {source} + destinations, taking
ceil(log2(n)) communication steps.  Every edge of the tree is a full
conventional message -- the sender pays ``o_host`` + DMA + per-packet
``o_ni``, the receiver pays per-packet ``o_ni`` + DMA + ``o_host`` -- which
is precisely why the paper calls multicast latency "dominated by the
communication software overhead" even with lightweight messaging layers.
"""

from __future__ import annotations

from typing import Callable

from repro.multicast.base import MulticastResult, MulticastScheme
from repro.multicast.ordering import contention_aware_order
from repro.sim.messaging import HostReceiver, host_send
from repro.sim.network import SimNetwork


def build_binomial_tree(members: list[int]) -> dict[int, list[int]]:
    """Binomial multicast tree over ``members`` (``members[0]`` is the root).

    Children lists are in *send order*.  The construction is the classic
    recursive halving: in every communication step each informed node informs
    the representative of the farther half of its remaining responsibility
    (callers pass a far-first ordering, so "farther" = "earlier in the
    list"), giving ceil(log2 n) steps total.
    """
    if not members:
        raise ValueError("empty member list")
    if len(set(members)) != len(members):
        raise ValueError("duplicate members")
    tree: dict[int, list[int]] = {m: [] for m in members}
    # Each node fills only its own child list, so the order the groups are
    # split in does not matter; a worklist avoids a self-recursive closure
    # (a reference cycle per call).
    groups = [list(members)]
    while groups:
        mem = groups.pop()
        root, rest = mem[0], mem[1:]
        while rest:
            take = (len(rest) + 1) // 2
            group, rest = rest[:take], rest[take:]
            tree[root].append(group[0])
            groups.append(group)
    return tree


def tree_depth_in_steps(tree: dict[int, list[int]], root: int) -> int:
    """Completion step count: child ``i`` (0-based) of a node informed at
    step ``s`` is informed at step ``s + i + 1``."""

    def rec(node: int, informed_at: int) -> int:
        worst = informed_at
        for i, c in enumerate(tree[node]):
            worst = max(worst, rec(c, informed_at + i + 1))
        return worst

    return rec(root, 0)


class UnicastBinomialScheme(MulticastScheme):
    """The software baseline: a tree of full unicast messages.

    The default tree is binomial ("the best of these schemes ... the best
    achievable using unicast communication primitives", Section 1).  The
    ``fanout`` knob generalises to the whole hierarchical software family:
    ``fanout=1`` is a chain, small fanouts are k-binomial trees, and
    ``fanout=None`` with ``flat=True`` degenerates to *separate addressing*
    (the source unicasts to every destination itself -- the naive scheme the
    hierarchical algorithms were invented to beat).
    """

    name = "binomial"

    def __init__(self, fanout: int | None = None, flat: bool = False) -> None:
        if fanout is not None and fanout < 1:
            raise ValueError("fanout must be >= 1")
        if flat and fanout is not None:
            raise ValueError("flat separate-addressing ignores fanout")
        self.fanout = fanout
        self.flat = flat

    def plan(self, net: SimNetwork, source: int,
             dests: list[int]) -> dict[int, list[int]]:
        """The multicast tree this scheme would use (exposed for tests)."""
        ordered = contention_aware_order(net.topo, net.routing, source, dests)
        if self.flat:
            tree = {n: [] for n in [source] + ordered}
            tree[source] = list(ordered)
            return tree
        if self.fanout is not None:
            from repro.multicast.kbinomial import build_k_binomial_tree

            return build_k_binomial_tree([source] + ordered, self.fanout)
        return build_binomial_tree([source] + ordered)

    def execute(
        self,
        net: SimNetwork,
        source: int,
        dests: list[int],
        on_complete: Callable[[MulticastResult], None] | None = None,
    ) -> MulticastResult:
        result = self._new_result(net, source, dests)
        tree = self._cached_plan(
            net,
            ("tree", source, result.dests),
            lambda: self.plan(net, source, list(result.dests)),
        )
        n_packets = net.params.message_packets

        def on_host_delivery(
            node: int, time: float, kids: list[tuple[int, HostReceiver]]
        ) -> None:
            result._record(node, time, on_complete)
            sends_to(node, kids)

        def sends_to(node: int, kids: list[tuple[int, HostReceiver]]) -> None:
            """Issue this node's child messages (back-to-back host sends)."""
            for child, receiver in kids:
                launchers = [
                    _make_launcher(net, node, child, receiver)
                    for _ in range(n_packets)
                ]
                host_send(net.hosts[node], launchers)

        # Each receiver is bound to its own children's receivers only, and
        # the plan is a tree, so no closure cycle (holding ``net``) outlives
        # the message, delivered or abandoned.
        children: dict[int, list[tuple[int, HostReceiver]]] = {
            node: [] for node in tree
        }
        receivers = {
            child: HostReceiver(
                net.hosts[child],
                n_packets,
                on_delivered=lambda t, n=child, kids=children[child]: (
                    on_host_delivery(n, t, kids)
                ),
            )
            for nodes in tree.values()
            for child in nodes
        }
        for node, nodes in tree.items():
            children[node].extend((c, receivers[c]) for c in nodes)

        sends_to(source, children[source])
        return result


def _make_launcher(net: SimNetwork, src: int, dst: int,
                   receiver: HostReceiver) -> Callable[[], None]:
    steer = net.unicast_steer(dst)

    def launch() -> None:
        net.hosts[src].launch_worm(
            steer,
            initial_state=None,
            on_delivered=lambda _node, _t: receiver.packet_arrived(),
            label=f"uni:{src}->{dst}",
        )

    return launch
