"""Physical channels of the switch fabric.

Contention in a wormhole/cut-through network happens at *channels*: the
directional use of a physical link, plus the node injection and delivery
links.  Each channel is a unit-capacity FIFO resource (one worm owns it at a
time) with a header-crossing delay and a record of the flit buffer waiting on
its far side (which governs how quickly a blocked worm can drain off of it --
see :mod:`repro.sim.worm`).

Channel kinds and their crossing delays:

* ``inject``  (NI -> switch input buffer): link propagation.
* ``forward`` (switch input buffer -> crossbar -> link -> next switch input
  buffer): switch delay + link propagation.
* ``deliver`` (switch input buffer -> crossbar -> host link -> NI): switch
  delay + link propagation; the NI sinks at link rate, so its buffer is
  effectively unbounded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.params import SimParams
from repro.sim.engine import Engine
from repro.sim.resources import MultiLaneResource
from repro.topology.graph import NetworkTopology, SwitchLink

UNBOUNDED_BUFFER = 1 << 30
"""Sentinel buffer size for sinks that always accept flits (the NI)."""


def _lane_seed(route_seed: int, uid: int) -> int:
    """Deterministic per-channel lane-pointer seed (sha256, never hash())."""
    payload = f"lane:{route_seed}:{uid}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class Channel(MultiLaneResource):
    """One directional channel of the fabric.

    A channel is a :class:`MultiLaneResource` with ``params.vc_count`` lanes:
    each lane is an independent virtual channel of the physical link.  The
    lane-allocation pointer is seeded per channel from ``(route_seed, uid)``
    so allocation is deterministic yet decorrelated across channels."""

    __slots__ = (
        "uid",
        "kind",
        "delay",
        "downstream_buffer",
        "to_switch",
        "to_node",
        "link",
        "from_switch",
        "flits_carried",
        "worms_carried",
        "revoked",
    )

    def __init__(
        self,
        engine: Engine,
        uid: int,
        kind: str,
        delay: int,
        downstream_buffer: int,
        *,
        from_switch: int | None = None,
        to_switch: int | None = None,
        to_node: int | None = None,
        link: SwitchLink | None = None,
        name: str = "",
        lanes: int = 1,
        lane_seed: int = 0,
    ) -> None:
        super().__init__(engine, lanes=lanes, name=name, lane_seed=lane_seed)
        self.uid = uid
        self.kind = kind
        self.delay = delay
        self.downstream_buffer = downstream_buffer
        self.from_switch = from_switch
        self.to_switch = to_switch
        self.to_node = to_node
        self.link = link
        self.flits_carried = 0
        self.worms_carried = 0
        self.revoked = False

    def revoke(self) -> None:
        """Take the channel out of service (runtime link fault).

        A revoked channel never accepts new traffic: worms ask
        :attr:`revoked` before requesting it and abort instead (a link-level
        nack).  Worms already holding or queued on the channel are aborted by
        the fault injector; their queued grant closures drain by releasing
        immediately, so the channel ends idle and stays idle.
        """
        self.revoked = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel {self.name or self.uid} kind={self.kind}>"


class Fabric:
    """All channels of a topology, wired for a given parameter set."""

    def __init__(self, engine: Engine, topo: NetworkTopology, params: SimParams) -> None:
        self.engine = engine
        self.topo = topo
        self.params = params
        self._uid = 0
        forward_delay = params.switch_delay + params.link_delay

        self.inject: dict[int, Channel] = {}
        for node in range(topo.num_nodes):
            sw = topo.switch_of_node(node)
            self.inject[node] = self._make(
                "inject",
                params.link_delay,
                params.input_buffer_flits,
                to_switch=sw,
                name=f"inj:n{node}->s{sw}",
            )

        self.deliver: dict[int, Channel] = {}
        for node in range(topo.num_nodes):
            sw = topo.switch_of_node(node)
            self.deliver[node] = self._make(
                "deliver",
                forward_delay,
                UNBOUNDED_BUFFER,
                from_switch=sw,
                to_node=node,
                name=f"del:s{sw}->n{node}",
            )

        # Two directional channels per switch-switch link, keyed by
        # (link_id, from_switch).
        self.forward: dict[tuple[int, int], Channel] = {}
        for lk in topo.links:
            for frm in (lk.a.switch, lk.b.switch):
                to = lk.other_end(frm).switch
                self.forward[(lk.link_id, frm)] = self._make(
                    "forward",
                    forward_delay,
                    params.input_buffer_flits,
                    from_switch=frm,
                    to_switch=to,
                    link=lk,
                    name=f"fwd:l{lk.link_id}:s{frm}->s{to}",
                )

    def _make(self, kind: str, delay: int, downstream_buffer: int, **kw) -> Channel:
        lanes = self.params.vc_count
        # With one lane the pointer is ``seed % 1 == 0`` whatever the seed.
        seed = _lane_seed(self.params.route_seed, self._uid) if lanes > 1 else 0
        ch = Channel(
            self.engine,
            self._uid,
            kind,
            delay,
            downstream_buffer,
            lanes=lanes,
            lane_seed=seed,
            **kw,
        )
        self._uid += 1
        return ch

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def forward_channel(self, link: SwitchLink, from_switch: int) -> Channel:
        """The directional channel crossing ``link`` out of ``from_switch``."""
        return self.forward[(link.link_id, from_switch)]

    def all_channels(self) -> list[Channel]:
        """Every channel in the fabric (for load/occupancy statistics)."""
        return (
            list(self.inject.values())
            + list(self.deliver.values())
            + list(self.forward.values())
        )

    def total_flits_carried(self) -> int:
        """Sum of flits moved across all channels (traffic volume metric)."""
        return sum(c.flits_carried for c in self.all_channels())
