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

A channel is built on its first lookup, with the uid (and so the name and
lane seed) it has in the fabric's canonical order; see :class:`Fabric`.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Hashable

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


class LazyMap(dict):
    """A dict whose missing keys are built on their first lookup.

    ``build(key)`` makes the value; an unknown key raises :class:`KeyError`
    as a plain dict would.  The map holds its builder, never its owner, so
    an owner and its maps form no reference cycle.  Iteration and ``len``
    see only what lookups have built so far.
    """

    __slots__ = ("_build",)

    def __init__(self, build: Callable[[Hashable], object]) -> None:
        super().__init__()
        self._build = build

    def __missing__(self, key: Hashable):
        value = self[key] = self._build(key)
        return value


class _ChannelBuilder:
    """Builds any channel of a fabric from its key alone.

    The uid is the channel's index in the fabric's canonical order -- every
    inject channel by node, then every deliver channel by node, then both
    directions of every link in ``topo.links`` order, ``a`` end first::

        inject n   -> n
        deliver n  -> N + n
        forward    -> 2N + 2*(link position) + (0 out of lk.a, 1 out of lk.b)

    so uids, names and lane seeds do not depend on the order of lookups.
    """

    def __init__(self, engine: Engine, topo: NetworkTopology, params: SimParams) -> None:
        self.engine = engine
        self.topo = topo
        self.params = params
        self.forward_delay = params.switch_delay + params.link_delay
        self._link_pos: dict[int, int] | None = None

    def _make(
        self, uid: int, kind: str, delay: int, downstream_buffer: int, **kw
    ) -> Channel:
        lanes = self.params.vc_count
        # With one lane the pointer is ``seed % 1 == 0`` whatever the seed.
        seed = _lane_seed(self.params.route_seed, uid) if lanes > 1 else 0
        return Channel(
            self.engine,
            uid,
            kind,
            delay,
            downstream_buffer,
            lanes=lanes,
            lane_seed=seed,
            **kw,
        )

    def _switch_of(self, node: int) -> int:
        if not 0 <= node < self.topo.num_nodes:
            raise KeyError(node)
        return self.topo.switch_of_node(node)

    def inject(self, node: int) -> Channel:
        sw = self._switch_of(node)
        return self._make(
            node,
            "inject",
            self.params.link_delay,
            self.params.input_buffer_flits,
            to_switch=sw,
            name=f"inj:n{node}->s{sw}",
        )

    def deliver(self, node: int) -> Channel:
        sw = self._switch_of(node)
        return self._make(
            self.topo.num_nodes + node,
            "deliver",
            self.forward_delay,
            UNBOUNDED_BUFFER,
            from_switch=sw,
            to_node=node,
            name=f"del:s{sw}->n{node}",
        )

    def forward(self, key: tuple[int, int]) -> Channel:
        link_id, frm = key
        if self._link_pos is None:
            self._link_pos = {
                lk.link_id: pos for pos, lk in enumerate(self.topo.links)
            }
        pos = self._link_pos.get(link_id)
        if pos is None:
            raise KeyError(key)
        lk = self.topo.links[pos]
        if frm == lk.a.switch:
            end, to = 0, lk.b.switch
        elif frm == lk.b.switch:
            end, to = 1, lk.a.switch
        else:
            raise KeyError(key)
        return self._make(
            2 * (self.topo.num_nodes + pos) + end,
            "forward",
            self.forward_delay,
            self.params.input_buffer_flits,
            from_switch=frm,
            to_switch=to,
            link=lk,
            name=f"fwd:l{link_id}:s{frm}->s{to}",
        )


class Fabric:
    """All channels of a topology, wired for a given parameter set.

    Channels are built on first lookup: a run pays only for the channels its
    traffic touches, and a channel no lookup has reached is idle and has
    carried nothing.  ``inject``/``deliver`` are keyed by node and
    ``forward`` by ``(link_id, from_switch)``; their iteration order is
    lookup order, so enumerate with :meth:`all_channels` (canonical uid
    order) or :meth:`built_channels`.
    """

    def __init__(self, engine: Engine, topo: NetworkTopology, params: SimParams) -> None:
        self.engine = engine
        self.topo = topo
        self.params = params
        build = _ChannelBuilder(engine, topo, params)
        self.inject: dict[int, Channel] = LazyMap(build.inject)
        self.deliver: dict[int, Channel] = LazyMap(build.deliver)
        self.forward: dict[tuple[int, int], Channel] = LazyMap(build.forward)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def forward_channel(self, link: SwitchLink, from_switch: int) -> Channel:
        """The directional channel crossing ``link`` out of ``from_switch``."""
        return self.forward[(link.link_id, from_switch)]

    def built_channels(self) -> list[Channel]:
        """The channels looked up so far, grouped by kind in lookup order."""
        return [
            *self.inject.values(),
            *self.deliver.values(),
            *self.forward.values(),
        ]

    def all_channels(self) -> list[Channel]:
        """Every channel in the fabric, in uid order (for load/occupancy
        statistics); builds the ones no lookup has reached yet."""
        nodes = range(self.topo.num_nodes)
        return (
            [self.inject[n] for n in nodes]
            + [self.deliver[n] for n in nodes]
            + [
                self.forward[(lk.link_id, sw)]
                for lk in self.topo.links
                for sw in (lk.a.switch, lk.b.switch)
            ]
        )

    def total_flits_carried(self) -> int:
        """Sum of flits moved across all channels (traffic volume metric)."""
        return sum(c.flits_carried for c in self.built_channels())
