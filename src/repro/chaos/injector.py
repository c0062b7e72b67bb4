"""Arming fault schedules on a live network.

At each :class:`~repro.chaos.schedule.FaultEvent`'s fire time the injector:

1. revokes the link's two directional forward channels (no new traffic);
2. aborts every in-flight worm holding or awaiting those channels, in
   launch order -- each abort releases the worm's resources and propagates
   a nack to its source host;
3. performs Autonet-style reconfiguration
   (:meth:`~repro.sim.network.SimNetwork.reconfigure`): new BFS/up*/down*
   orientation on the degraded topology, new reachability strings, routing
   epoch bump (which invalidates cached multicast plans);
4. notifies ``net.fault_listeners`` after ``reconfig_latency`` cycles --
   the hook the retry layer (:class:`~repro.chaos.delivery.ReliableMulticast`)
   replans from.

A fault whose removal would disconnect the switch graph (or whose link is
already gone) is *skipped* with a trace record rather than raised: fuzzed
schedules may race each other, and a disconnected network cannot be
reconfigured around.

Every step is a deterministic function of (engine state, schedule), so the
same seed + same schedule replays to byte-identical traces.
"""

from __future__ import annotations

import math

from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.sim.network import SimNetwork
from repro.topology import faults


class FaultInjector:
    """Arms a :class:`FaultSchedule` on a :class:`SimNetwork`.

    Args:
        net: the live network (faults act on its fabric and routing).
        schedule: the time-ordered fault events to arm.
        reconfig_latency: cycles between the fault firing and the
            reconfigured routing being announced to ``fault_listeners``
            (the Autonet reconfiguration protocol's running time); routing
            tables themselves are swapped at fire time, cost-free.
    """

    def __init__(
        self,
        net: SimNetwork,
        schedule: FaultSchedule,
        reconfig_latency: float = 0.0,
    ) -> None:
        if not 0 <= reconfig_latency < math.inf:
            raise ValueError(
                f"reconfig_latency must be finite and non-negative, got "
                f"{reconfig_latency}"
            )
        self.net = net
        self.schedule = schedule
        self.reconfig_latency = reconfig_latency
        self._armed = False

    def arm(self) -> None:
        """Schedule every fault event on the network's engine.

        Call before (or during) the run, once.  Arming early gives fault
        events low sequence numbers, so a fault at time T fires before
        same-time worm events scheduled later -- part of the determinism
        contract.
        """
        if self._armed:
            raise RuntimeError("fault schedule already armed")
        self._armed = True
        for ev in self.schedule:
            self.net.engine.at(ev.time, lambda ev=ev: self._fire(ev))

    # ------------------------------------------------------------------
    # Fire-time mechanics
    # ------------------------------------------------------------------
    def _trace(self, event: str, detail: str) -> None:
        if self.net.trace is not None:
            self.net.trace.emit(self.net.engine.now, event, "chaos", detail)

    def _fire(self, ev: FaultEvent) -> None:
        net = self.net
        try:
            degraded = faults.remove_link(net.topo, ev.link_id)
        except ValueError as exc:
            # Already removed by an earlier fault, or removal would
            # disconnect -- skip rather than kill the run.
            net.chaos.faults_skipped += 1
            self._trace("fault-skip", f"link {ev.link_id}: {exc}")
            return

        net.chaos.faults_fired += 1
        self._trace("fault", f"link {ev.link_id} failed")

        # Look the link's two channels up directly: the lookup builds a
        # channel no worm has touched yet, so it is revoked before any later
        # lookup can find it live.
        failed = next(lk for lk in net.topo.links if lk.link_id == ev.link_id)
        revoked_uids = set()
        for frm in (failed.a.switch, failed.b.switch):
            ch = net.fabric.forward_channel(failed, frm)
            ch.revoke()
            revoked_uids.add(ch.uid)

        # Abort victims in launch order (the registry is insertion-ordered).
        for worm in net.live_worms():
            if worm.touches(revoked_uids):
                worm.abort(f"link {ev.link_id} failed")

        net.reconfigure(degraded)
        net.chaos.reconfig_latency_total += self.reconfig_latency
        self._trace(
            "reconfig",
            f"epoch {net.routing_epoch}, "
            f"{len(degraded.links)} links remain",
        )
        self.net.engine.at(
            net.engine.now + self.reconfig_latency,
            lambda: self._notify(ev),
        )

    def _notify(self, ev: FaultEvent) -> None:
        for listener in list(self.net.fault_listeners):
            listener(ev)
