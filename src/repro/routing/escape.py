"""Escape-VC adaptive routing: minimal shortcuts outside up*/down* order.

With ``vc_routing="escape"`` (see :class:`~repro.params.SimParams`) lane 0
of every channel remains restricted to the up*/down* order -- the *escape
lane*, whose channel dependency graph is acyclic (Duato's sufficient
condition: it equals the multicast CDG that
:func:`repro.routing.invariants.cdg_problems` proves acyclic at every
epoch) -- while lanes
>= 1 may take any hop on a *minimal* switch-graph path toward the
destination, regardless of up/down legality.

This module provides the minimal-path candidate sets.  The discipline that
makes the combination deadlock-free lives in the worm model: a shortcut is
taken only when a lane >= 1 of its channel is free at decision time, so a
worm never *waits* on an adaptive lane; every blocking wait admits lane 0,
where only acyclic up*/down* dependencies exist (docs/virtual_channels.md
has the full argument).

After a shortcut the up*/down* phase state resets to ``Phase.UP`` at the
next switch: up-phase routes reach every destination from every switch
(the reachability property the test-suite pins), so a misrouted worm always
has a legal escape continuation.
"""

from __future__ import annotations

from repro.topology.analysis import switch_distances
from repro.topology.graph import NetworkTopology, SwitchLink


class EscapeRouting:
    """Per-topology minimal-path tables for adaptive (non-escape) lanes."""

    def __init__(self, topo: NetworkTopology) -> None:
        self.topo = topo
        self._dist = [
            switch_distances(topo, s) for s in range(topo.num_switches)
        ]

    def distance(self, src_switch: int, dst_switch: int) -> int:
        """Switch-graph hop distance (unrestricted by up*/down*)."""
        return self._dist[src_switch][dst_switch]

    def minimal_hops(self, switch: int, dest_switch: int) -> list[SwitchLink]:
        """Links out of ``switch`` on some minimal path to ``dest_switch``.

        Deterministic order (ascending link id); empty at the destination.
        """
        if switch == dest_switch:
            return []
        want = self._dist[switch][dest_switch] - 1
        hops = [
            lk
            for lk in self.topo.links_of(switch)
            if self._dist[lk.other_end(switch).switch][dest_switch] == want
        ]
        hops.sort(key=lambda lk: lk.link_id)
        return hops
