"""Timed collective operations over the simulated network.

These model the *communication* of each collective (message flow, overheads,
contention); payload semantics (the reduction operator, barrier counters)
contribute only their host-software cost, which is already captured by the
per-message host overhead.

All completion times are reported through :class:`CollectiveResult`; the
simulation must be run (``net.run()``) for results to fill in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.multicast import make_scheme
from repro.multicast.base import MulticastResult
from repro.sim.messaging import HostReceiver, host_send
from repro.sim.network import SimNetwork

ACK_FLITS = 8
"""Length of control packets (acks, barrier tokens): header + a few flits."""


def _resolve_participants(
    net: SimNetwork, root: int, participants: "list[int] | None"
) -> tuple[int, ...]:
    """Validate and normalise a collective's participant set.

    ``None`` means all nodes (the paper's whole-machine collectives); an
    explicit list models a job gang (e.g. one ML training job's workers)
    and must contain the root, hold no duplicates, and stay inside the
    topology.  Returned sorted for deterministic iteration order.
    """
    if participants is None:
        return tuple(range(net.topo.num_nodes))
    members = sorted(participants)
    if len(set(members)) != len(members):
        raise ValueError("duplicate collective participants")
    if root not in members:
        raise ValueError("the root must participate in its own collective")
    for n in members:
        if not 0 <= n < net.topo.num_nodes:
            raise ValueError(f"participant {n} outside the topology")
    return tuple(members)


def _complete_degenerate(
    net: SimNetwork,
    result: CollectiveResult,
    on_complete: "Callable[[CollectiveResult], None] | None",
) -> None:
    """Finish a single-participant collective.

    A collective over one node moves no data, but its host still runs the
    collective call's software path once, so completion is at launch plus
    one host overhead block (queued FIFO behind the host's other work) --
    never instantaneous and, crucially, never a hang.
    """

    def finish() -> None:
        result.node_times[result.root] = net.engine.now
        result.complete_time = net.engine.now
        if on_complete is not None:
            on_complete(result)

    net.hosts[result.root].cpu_task(finish)


@dataclass
class CollectiveResult:
    """Outcome of one collective operation."""

    kind: str
    root: int
    participants: tuple[int, ...]
    start_time: float
    complete_time: float | None = None
    node_times: dict[int, float] = field(default_factory=dict)
    """Per-node local completion times (meaning depends on the collective:
    release receipt for barriers, delivery for broadcasts, ...)."""

    @property
    def complete(self) -> bool:
        return self.complete_time is not None

    @property
    def latency(self) -> float:
        if self.complete_time is None:
            raise RuntimeError(f"{self.kind} not complete")
        return self.complete_time - self.start_time


def _send_control(net: SimNetwork, src: int, dst: int,
                  on_delivered: Callable[[float], None]) -> None:
    """One short control message (ack/token) with full host+NI overheads."""
    receiver = HostReceiver(net.hosts[dst], 1, on_delivered)
    steer = net.unicast_steer(dst)

    def launch() -> None:
        net.hosts[src].launch_worm(
            steer,
            initial_state=None,
            on_delivered=lambda _n, _t: receiver.packet_arrived(),
            length=ACK_FLITS,
            label=f"ctl:{src}->{dst}",
        )

    host_send(net.hosts[src], [launch])


def broadcast(
    net: SimNetwork,
    root: int,
    scheme_name: str = "tree",
    on_complete: Callable[[CollectiveResult], None] | None = None,
    participants: list[int] | None = None,
    **scheme_kw,
) -> CollectiveResult:
    """Broadcast from the root to every other participant (default: all)."""
    members = _resolve_participants(net, root, participants)
    dests = [n for n in members if n != root]
    result = CollectiveResult("broadcast", root, members, net.engine.now)
    if not dests:
        _complete_degenerate(net, result, on_complete)
        return result

    def done(mres: MulticastResult) -> None:
        result.node_times.update(mres.delivery_times)
        result.complete_time = net.engine.now
        if on_complete is not None:
            on_complete(result)

    make_scheme(scheme_name, **scheme_kw).execute(net, root, dests, done)
    return result


def multicast_with_acks(
    net: SimNetwork,
    source: int,
    dests: list[int],
    scheme_name: str = "tree",
    on_complete: Callable[[CollectiveResult], None] | None = None,
    **scheme_kw,
) -> CollectiveResult:
    """Multicast followed by ack collection at the source.

    This is the DSM cache-invalidation pattern of the paper's reference [2]:
    the operation completes when the *source* has received an ack from every
    destination.
    """
    result = CollectiveResult(
        "multicast+acks", source, tuple([source] + list(dests)), net.engine.now
    )
    pending = {"acks": len(dests)}

    def on_ack(dest: int, t: float) -> None:
        result.node_times[dest] = t
        pending["acks"] -= 1
        if pending["acks"] == 0:
            result.complete_time = net.engine.now
            if on_complete is not None:
                on_complete(result)

    scheme = make_scheme(scheme_name, **scheme_kw)
    mres = scheme.execute(net, source, list(dests))
    # Each destination acks as soon as its host has the message.
    mres.dest_hook = lambda dest, _t: _send_control(
        net, dest, source, lambda t, d=dest: on_ack(d, t)
    )
    return result


def barrier(
    net: SimNetwork,
    root: int = 0,
    scheme_name: str = "tree",
    on_complete: Callable[[CollectiveResult], None] | None = None,
    participants: list[int] | None = None,
    arrivals: dict[int, float] | None = None,
    **scheme_kw,
) -> CollectiveResult:
    """Participant barrier: gather tokens at the root, multicast the release.

    Every participant sends an arrival token to the root (control message);
    when the root has all of them it multicasts the release; each node's
    barrier exit time is its release delivery.  ``arrivals`` optionally maps
    a node to the absolute time it reaches the barrier (its token launches
    then rather than immediately) -- the barrier cannot complete before the
    last participant has launched.

    A single-participant barrier is degenerate: nobody to wait for, so it
    completes after one host overhead block (it must never hang waiting for
    tokens that will never arrive).
    """
    members = _resolve_participants(net, root, participants)
    others = [n for n in members if n != root]
    result = CollectiveResult("barrier", root, members, net.engine.now)
    if not others:
        _complete_degenerate(net, result, on_complete)
        return result
    pending = {"tokens": len(others)}

    def release_done(mres: MulticastResult) -> None:
        result.node_times.update(mres.delivery_times)
        result.node_times[root] = net.engine.now
        result.complete_time = net.engine.now
        if on_complete is not None:
            on_complete(result)

    def on_token(_t: float) -> None:
        pending["tokens"] -= 1
        if pending["tokens"] == 0:
            make_scheme(scheme_name, **scheme_kw).execute(
                net, root, others, release_done
            )

    for n in others:
        when = (arrivals or {}).get(n)
        if when is None:
            _send_control(net, n, root, on_token)
        else:
            net.engine.at(
                when, lambda n=n: _send_control(net, n, root, on_token)
            )
    return result


def gather_to_root(
    net: SimNetwork,
    root: int = 0,
    on_complete: Callable[[CollectiveResult], None] | None = None,
) -> CollectiveResult:
    """All-to-one gather: every node sends its full message to the root.

    Direct (non-combining) gather, as MPI_Gather semantics require distinct
    payloads; the root's NI and I/O bus serialise the incoming messages.
    """
    nodes = list(range(net.topo.num_nodes))
    others = [n for n in nodes if n != root]
    result = CollectiveResult("gather", root, tuple(nodes), net.engine.now)
    pending = {"left": len(others)}
    m = net.params.message_packets

    def one_done(sender: int, t: float) -> None:
        result.node_times[sender] = t
        pending["left"] -= 1
        if pending["left"] == 0:
            result.complete_time = net.engine.now
            if on_complete is not None:
                on_complete(result)

    for n in others:
        receiver = HostReceiver(
            net.hosts[root], m, lambda t, s=n: one_done(s, t)
        )
        steer = net.unicast_steer(root)

        def launch(n=n, receiver=receiver, steer=steer) -> None:
            net.hosts[n].launch_worm(
                steer,
                initial_state=None,
                on_delivered=lambda _x, _t: receiver.packet_arrived(),
                label=f"gat:{n}->{root}",
            )

        host_send(net.hosts[n], [launch for _ in range(m)])
    return result


def scatter_from_root(
    net: SimNetwork,
    root: int = 0,
    on_complete: Callable[[CollectiveResult], None] | None = None,
) -> CollectiveResult:
    """One-to-all scatter: the root sends a *distinct* message to each node.

    Personalised data cannot be multicast, so the root issues one
    conventional send per destination; its host CPU, I/O bus, and injection
    link serialise the operation (the classic root bottleneck).
    """
    nodes = list(range(net.topo.num_nodes))
    others = [n for n in nodes if n != root]
    result = CollectiveResult("scatter", root, tuple(nodes), net.engine.now)
    pending = {"left": len(others)}
    m = net.params.message_packets

    def one_done(dest: int, t: float) -> None:
        result.node_times[dest] = t
        pending["left"] -= 1
        if pending["left"] == 0:
            result.complete_time = net.engine.now
            if on_complete is not None:
                on_complete(result)

    for n in others:
        receiver = HostReceiver(
            net.hosts[n], m, lambda t, d=n: one_done(d, t)
        )
        steer = net.unicast_steer(n)

        def launch(n=n, receiver=receiver, steer=steer) -> None:
            net.hosts[root].launch_worm(
                steer,
                initial_state=None,
                on_delivered=lambda _x, _t: receiver.packet_arrived(),
                label=f"sca:{root}->{n}",
            )

        host_send(net.hosts[root], [launch for _ in range(m)])
    return result


def allreduce(
    net: SimNetwork,
    root: int = 0,
    scheme_name: str = "tree",
    on_complete: Callable[[CollectiveResult], None] | None = None,
    participants: list[int] | None = None,
    **scheme_kw,
) -> CollectiveResult:
    """Reduce-to-root followed by a broadcast of the result.

    The broadcast leg uses the chosen multicast scheme, so the NI-vs-switch
    question applies to half of the operation's critical path.

    A single-participant allreduce is degenerate -- the node combines with
    itself -- and completes after one host overhead block; it must neither
    hang in the reduce leg nor launch an empty multicast.
    """
    members = _resolve_participants(net, root, participants)
    result = CollectiveResult("allreduce", root, members, net.engine.now)
    if len(members) == 1:
        _complete_degenerate(net, result, on_complete)
        return result

    def bcast_done(b: CollectiveResult) -> None:
        result.node_times.update(b.node_times)
        result.complete_time = net.engine.now
        if on_complete is not None:
            on_complete(result)

    def reduce_done(_r: CollectiveResult) -> None:
        broadcast(net, root, scheme_name, bcast_done,
                  participants=list(members), **scheme_kw)

    reduce_to_root(net, root, reduce_done, participants=list(members))
    return result


def reduce_to_root(
    net: SimNetwork,
    root: int = 0,
    on_complete: Callable[[CollectiveResult], None] | None = None,
    participants: list[int] | None = None,
) -> CollectiveResult:
    """All-to-one reduction over a binomial combining tree.

    The inverse of the binomial multicast: leaves send full messages up a
    binomial tree; each interior node combines (its host overhead models the
    operator) and forwards one message to its parent.  Completion is the
    root's receipt of its last child's contribution.  A single-participant
    reduce combines locally: one host overhead block, no messages.
    """
    from repro.multicast.binomial import build_binomial_tree
    from repro.multicast.ordering import contention_aware_order

    members = _resolve_participants(net, root, participants)
    nodes = list(members)
    others = [n for n in nodes if n != root]
    if not others:
        result = CollectiveResult("reduce", root, members, net.engine.now)
        _complete_degenerate(net, result, on_complete)
        return result
    ordered = contention_aware_order(net.topo, net.routing, root, others)
    tree = build_binomial_tree([root] + ordered)
    parent: dict[int, int] = {}
    for p, children in tree.items():
        for c in children:
            parent[c] = p
    result = CollectiveResult("reduce", root, members, net.engine.now)
    waiting = {n: len(tree[n]) for n in nodes}
    reduction = _Reduction(net, root, parent, waiting, result, on_complete)
    for n in nodes:
        if reduction.waiting[n] == 0:
            reduction.contribution_ready(n)
    return result


class _Reduction:
    """The combining state of one :func:`reduce_to_root`.

    Its two steps call each other through the instance, not through closures
    over each other, so a finished reduction leaves no reference cycle
    holding the network.
    """

    def __init__(self, net: SimNetwork, root: int, parent: dict[int, int],
                 waiting: dict[int, int], result: CollectiveResult,
                 on_complete: "Callable[[CollectiveResult], None] | None") -> None:
        self.net = net
        self.root = root
        self.parent = parent
        self.waiting = waiting
        """Children still to combine, per node."""
        self.result = result
        self.on_complete = on_complete

    def contribution_ready(self, node: int) -> None:
        """All of ``node``'s children combined; send up (or finish)."""
        net, result = self.net, self.result
        if node == self.root:
            result.node_times[node] = net.engine.now
            result.complete_time = net.engine.now
            if self.on_complete is not None:
                self.on_complete(result)
            return
        dst = self.parent[node]
        n_packets = net.params.message_packets
        receiver = HostReceiver(
            net.hosts[dst], n_packets, lambda t: self.child_arrived(dst, t)
        )
        steer = net.unicast_steer(dst)

        def launch() -> None:
            net.hosts[node].launch_worm(
                steer,
                initial_state=None,
                on_delivered=lambda _n, _t: receiver.packet_arrived(),
                label=f"red:{node}->{dst}",
            )

        host_send(net.hosts[node], [launch for _ in range(n_packets)])

    def child_arrived(self, node: int, t: float) -> None:
        self.result.node_times[node] = t
        self.waiting[node] -= 1
        if self.waiting[node] == 0:
            self.contribution_ready(node)
