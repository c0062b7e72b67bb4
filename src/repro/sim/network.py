"""Assembled simulated system: topology + routing + fabric + hosts.

:class:`SimNetwork` wires everything together for one run and provides the
unicast steering function every scheme's point-to-point traffic uses.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from typing import Callable

from repro.params import SimParams
from repro.routing.escape import EscapeRouting
from repro.routing.reachability import ReachabilityTable
from repro.routing.updown import Phase, UpDownRouting
from repro.sim.engine import Engine
from repro.sim.fabric import Fabric, LazyMap
from repro.sim.host import Host
from repro.sim.worm import Deliver, Forward, SteerFn, Worm
from repro.topology.graph import NetworkTopology


@dataclass
class ChaosStats:
    """Runtime fault-injection counters (see :mod:`repro.chaos`).

    Lives on :attr:`SimNetwork.chaos` so the fault injector, the hosts'
    nack path, and the reliable-delivery layer can all bump the same
    counters without import cycles; :class:`~repro.sim.monitor.NetworkMonitor`
    folds them into its utilization report.
    """

    faults_fired: int = 0
    faults_skipped: int = 0
    worms_aborted: int = 0
    nacks: int = 0
    retries: int = 0
    duplicate_acks: int = 0
    gave_up: int = 0
    reconfigurations: int = 0
    reconfig_latency_total: float = 0.0


def _host_builder(net: "SimNetwork") -> Callable[[int], Host]:
    """Builds a node's host; holds the network weakly, as hosts do."""
    net_ref = weakref.ref(net)
    num_nodes = net.topo.num_nodes

    def build(node: int) -> Host:
        if not 0 <= node < num_nodes:
            raise KeyError(node)
        return Host(net_ref(), node)

    return build


class SimNetwork:
    """One simulated irregular-network system instance.

    Construction orients the links and builds the reverse up*/down* state
    graph; everything else is built on first use (routes toward a
    destination, a state's moves, the reachability strings, channels and
    hosts), so a run pays only for what its traffic reads.  Many
    messages/experiments can then run on the same instance.  Instances are
    single-engine: do not share across concurrently running engines.
    """

    def __init__(
        self,
        topo: NetworkTopology,
        params: SimParams,
        engine: Engine | None = None,
    ) -> None:
        params.validate()
        self.topo = topo
        self.params = params
        self.engine = engine if engine is not None else Engine()
        self.routing = UpDownRouting.build(topo, orientation=params.routing_tree)
        self.reach = ReachabilityTable.build(self.routing)
        self.escape: EscapeRouting | None = (
            EscapeRouting(topo) if params.vc_routing == "escape" else None
        )
        """Minimal-path shortcut tables for lanes >= 1 (escape mode only)."""
        self.fabric = Fabric(self.engine, topo, params)
        self.rng = random.Random(params.route_seed)
        self.hosts: dict[int, Host] = LazyMap(_host_builder(self))
        """Each node's :class:`Host`, keyed by node and built on its first
        lookup; :meth:`all_hosts` lists every one in node order."""
        self.trace = None
        """Assign a :class:`~repro.sim.tracelog.TraceLog` to trace every
        worm launched through the hosts."""
        self.worm_log = None
        """Assign a list and every :class:`~repro.sim.worm.Worm` launched
        through a host is appended to it (the fuzz oracles audit the hop
        trees of completed worms post-run)."""
        self.routing_epoch = 0
        """Bumped by every :meth:`reconfigure`; worms are stamped with the
        epoch they launched under and cached multicast plans are keyed by it
        (a reconfiguration therefore invalidates every cached plan)."""
        self.routing_history: list[UpDownRouting] = [self.routing]
        """Routing tables per epoch (``routing_history[epoch]``); post-run
        audits judge each worm against the orientation it was planned on."""
        self.chaos = ChaosStats()
        self.fault_listeners: list[Callable[[object], None]] = []
        """Called (in registration order, with the fired
        :class:`~repro.chaos.schedule.FaultEvent`) after the injector has
        revoked a link's channels, aborted its worms, and reconfigured."""
        self._live_worms: dict[int, Worm] = {}
        self._worm_uid = 0

    # ------------------------------------------------------------------
    # Steering
    # ------------------------------------------------------------------
    def unicast_steer(self, dest_node: int) -> SteerFn:
        """Steer function for a point-to-point packet toward ``dest_node``.

        State is the up*/down* :class:`Phase`.  At each switch the candidate
        set is every output on a minimal legal route (adaptive routing); with
        ``params.adaptive_routing`` False it is narrowed to the deterministic
        lowest-(switch, link) choice.
        """
        dest_switch = self.topo.switch_of_node(dest_node)
        deliver_ch = self.fabric.deliver[dest_node]
        routing = self.routing
        escape = self.escape
        fabric = self.fabric
        adaptive = self.params.adaptive_routing

        def steer(switch: int, state: object):
            phase: Phase = state if isinstance(state, Phase) else Phase.UP
            if switch == dest_switch:
                return [Deliver(deliver_ch)]
            hops = routing.next_hops(switch, phase, dest_switch)
            options = [
                (fabric.forward_channel(h.link, switch), h.next_phase)
                for h in hops
            ]
            if not adaptive:
                options = [
                    min(
                        options,
                        key=lambda o: (o[0].to_switch, o[0].link.link_id),
                    )
                ]
            if escape is None:
                return [Forward(options)]
            # Escape mode: minimal-path shortcuts for lanes >= 1.  The phase
            # state resets to UP after a shortcut (up-phase routes reach
            # every destination from every switch), and channels already in
            # the legal option set carry their legal next-phase instead.
            legal_uids = {o[0].uid for o in options}
            shortcuts = [
                (fabric.forward_channel(lk, switch), Phase.UP)
                for lk in escape.minimal_hops(switch, dest_switch)
                if fabric.forward_channel(lk, switch).uid not in legal_uids
            ]
            return [Forward(options, adaptive_options=shortcuts)]

        return steer

    # ------------------------------------------------------------------
    # Runtime faults (see repro.chaos)
    # ------------------------------------------------------------------
    def register_worm(self, worm: Worm) -> None:
        """Track a launched worm until it finishes or aborts.

        The registry is insertion-ordered, so the fault injector aborts a
        failed link's worms in launch order -- part of the determinism
        contract (same seed + same schedule => byte-identical traces).
        """
        uid = self._worm_uid
        self._worm_uid += 1
        self._live_worms[uid] = worm
        worm.on_retire = lambda _w, uid=uid: self._live_worms.pop(uid, None)

    def all_hosts(self) -> list[Host]:
        """Every node's host in node order; builds the ones no lookup has
        reached yet (they are idle)."""
        return [self.hosts[n] for n in range(self.topo.num_nodes)]

    def live_worms(self) -> list[Worm]:
        """In-flight worms, in launch order."""
        return list(self._live_worms.values())

    def reconfigure(self, topo: NetworkTopology) -> None:
        """Autonet-style reconfiguration onto a degraded topology.

        Recomputes the BFS/up*/down* orientation on ``topo`` (the
        reachability strings follow on their first query) and bumps
        :attr:`routing_epoch`, invalidating every cached multicast
        plan.  The fabric keeps its existing channels (link ids are
        preserved by :func:`repro.topology.faults.remove_link`), so
        in-flight worms keep draining on the tables they launched under
        while new sends plan on the fresh ones.
        """
        self.topo = topo
        self.routing = UpDownRouting.build(
            topo, orientation=self.params.routing_tree
        )
        self.reach = ReachabilityTable.build(self.routing)
        if self.escape is not None:
            self.escape = EscapeRouting(topo)
        self.routing_epoch += 1
        self.routing_history.append(self.routing)
        self.chaos.reconfigurations += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain (or advance) the event engine.

        ``max_events`` is :meth:`Engine.run`'s safety valve against runaway
        networks (zero-delay retry loops and the like), plumbed through so
        callers of the network API can bound a run without reaching into the
        engine.
        """
        self.engine.run(until=until, max_events=max_events)

    def discard_pending(self) -> None:
        """Abandon a run stopped at its time bound.

        Drops the queued events, the hosts' and channels' waiting requesters
        and the in-flight worms.  Their callbacks close over the network, so
        left in place they hold it in reference cycles until the cycle
        collector runs; dropped, the network dies by reference counting.  It
        must own its engine and must not run again afterwards.
        """
        self.engine.clear()
        for host in self.hosts.values():
            host.cpu.drop_waiters()
            host.ni.drop_waiters()
        for channel in self.fabric.built_channels():
            channel.drop_waiters()
        self._live_worms.clear()

    def assert_quiescent(self) -> None:
        """Sanity check between experiments: nothing busy, nothing scheduled.

        A scheduled-but-unfired event is just as non-quiescent as a busy
        channel -- it will mutate state the moment the engine runs again --
        so the check requires ``engine.pending == 0`` too.
        """
        # A channel or host no lookup has built is idle, so only built ones
        # can be busy; they are reported in uid and node order.
        busy = [c for c in self.fabric.built_channels() if c.busy]
        stuck = [c.name for c in sorted(busy, key=lambda c: c.uid)]
        busy_hosts = [h for h in self.hosts.values() if h.cpu.busy or h.ni.busy]
        for h in sorted(busy_hosts, key=lambda h: h.node):
            if h.cpu.busy:
                stuck.append(h.cpu.name)
            if h.ni.busy:
                stuck.append(h.ni.name)
        if stuck:
            raise AssertionError(f"network not quiescent; busy: {stuck}")
        if self.engine.pending:
            raise AssertionError(
                f"network not quiescent; {self.engine.pending} pending "
                f"event(s), next at t={self.engine.next_event_time()}"
            )
