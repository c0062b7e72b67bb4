"""Worm-level cut-through packet model with flit-exact timing.

A *worm* is one packet (``L`` flits) moving through the fabric, possibly
replicating into a tree (multidestination worms).  Rather than ticking every
flit every cycle, the model advances the *header* through FIFO channel grants
and computes tail/release times in closed form, which is exact for rate-1
flit streaming through per-hop input buffers:

The per-flit send schedule of every hop is the least fixed point of three
constraint families (rate limit from the grant, flit availability from the
parent hop, and buffer backpressure from the next hop -- see the comment on
:meth:`Worm._send_bound`), evaluated lazily as grants occur.  When the
downstream buffer holds a whole packet a blocked packet absorbs into it and
frees its upstream channels -- virtual cut-through; with small buffers the
worm stalls spanning several channels -- wormhole chain-blocking.

Replication forks are special: replicating switch ports carry *full-packet
replication buffers* (the "support for deadlock-free replication ...
required at the switches" of the paper's Section 3.3), so branches advance
independently and a blocked branch neither starves its siblings nor
back-pressures the shared feed.  Without that hardware support, two
multidestination worms replicating across each other genuinely deadlock --
the cycle-accurate reference backend (:mod:`repro.sim.flitsim`) reproduces
both behaviours, and the cross-validation suite pins this model to it.

Complexity: finalization is event-driven -- each grant or expansion
re-attempts only the changed hop and the hops whose constraint walks are
registered as blocked on it, rather than rescanning the whole replication
tree.  Every bound a walk proves is kept on its hop for the worm's life, so
each (hop, flit) bound is computed once per worm; a re-attempt only walks
the part of its constraint horizon not yet proven (see
:meth:`Worm._refinalize`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.params import SimParams
from repro.sim.engine import Engine
from repro.sim.fabric import Channel


@dataclass
class Deliver:
    """Steer instruction: absorb a copy at the node on ``channel``."""

    channel: Channel


@dataclass
class Forward:
    """Steer instruction: continue toward another switch.

    ``options`` are the adaptive alternatives (all on minimal legal
    continuations), each paired with the scheme-private routing state the
    steer function will receive at the next switch if that channel is the
    one chosen (e.g. the up*/down* phase depends on which link is taken).

    ``adaptive_options`` (escape-VC mode only) are minimal-path shortcuts
    *outside* the up*/down* order.  They may only be taken on lanes >= 1 of
    a channel with a free adaptive lane at decision time -- a worm never
    waits on one -- so lane 0 remains a deadlock-free escape path
    (see docs/virtual_channels.md).
    """

    options: list[tuple[Channel, object]]
    adaptive_options: list[tuple[Channel, object]] = field(default_factory=list)


SteerFn = Callable[[int, object], list["Deliver | Forward"]]
"""(switch, state) -> replication instructions at this switch."""


@dataclass(slots=True, weakref_slot=True)
class _Hop:
    """One granted-or-requested channel on the worm's replication tree.

    Slotted: a worm makes one per channel it crosses, and a slotted hop is
    less than half the size of one with an instance ``__dict__``.  The
    weakref slot lets tests watch a finished worm's hops die."""

    channel: Channel
    parent: "_Hop | None"
    idx: int = 0            # creation order (finalization tie-break)
    lane: int = 0           # virtual channel granted (set with h)
    adaptive: bool = False  # escape-mode shortcut: must avoid lane 0
    h: float | None = None  # header finished crossing; None until granted
    terminal: bool = False  # delivery hop: chain ends here
    expanded: bool = False  # children hops all created (requests issued)
    children: list[int] = field(default_factory=list)
    """Creation indices of the child hops.  Indices, not hops: a tree of
    parent and child references would be a cycle, and the worm's hops (with
    their kept bounds) must die with it by reference counting."""
    release_scheduled: bool = False
    released: bool = False  # channel given back (normal tail or abort)
    counted: bool = False   # traffic committed to the channel's counters
    waiters: list["_Hop"] = field(default_factory=list, repr=False)
    """Hops whose last finalization attempt blocked on this hop."""
    bounds: dict[int, float] = field(default_factory=dict, repr=False)
    """Final send bounds proven so far: flit index -> cycle."""


class Worm:
    """One packet in flight; drives itself through the fabric via events.

    Args:
        engine: the event engine.
        params: timing parameters (packet length, buffers, delays).
        steer: routing/replication decision function, called once per switch
            the header enters (at ``header arrival + routing_delay``).
        on_delivered: ``(node, tail_time)`` fired when the last flit of a
            copy reaches a destination NI.
        on_done: optional; fired when every delivery has completed *and*
            every channel has been released.
        on_abort: optional; fired (with a reason string) when the worm is
            killed by a runtime link fault -- the nack propagated back to
            the source host.  ``on_done`` never fires for an aborted worm.
        rng: shared RNG for adaptive tie-breaks (deterministic per seed).
        length: flits in this worm; defaults to ``params.packet_flits``.
    """

    def __init__(
        self,
        engine: Engine,
        params: SimParams,
        steer: SteerFn,
        on_delivered: Callable[[int, float], None],
        on_done: Callable[[], None] | None = None,
        on_abort: Callable[[str], None] | None = None,
        rng: random.Random | None = None,
        length: int | None = None,
        label: str = "",
        trace: "object | None" = None,
    ) -> None:
        if params.link_delay < 1:
            raise ValueError(
                "worm timing model requires link_delay >= 1 (header must "
                "advance at least one cycle per hop)"
            )
        self.engine = engine
        self.params = params
        self.steer = steer
        self.on_delivered = on_delivered
        self.on_done = on_done
        self.on_abort = on_abort
        self.rng = rng or random.Random(params.route_seed)
        self.length = params.packet_flits if length is None else length
        self.label = label
        self.trace = trace
        """Optional :class:`~repro.sim.tracelog.TraceLog` receiving events."""
        self.start_time: float | None = None
        self.finish_time: float | None = None
        self.aborted = False
        self.abort_reason = ""
        self.epoch = 0
        """Routing epoch at launch (stamped by :meth:`Host.launch_worm`);
        post-run audits judge the worm's route against the orientation it was
        planned under, not against post-reconfiguration tables."""
        self.on_retire: "Callable[[Worm], None] | None" = None
        """Set by the launching host: deregisters the worm from the
        network's live-worm registry on done *or* abort."""
        self._unreleased = 0
        self._pending_deliveries = 0
        self._started = False
        self._channels_used: set[int] = set()
        self._hops: list[_Hop] = []
        self._blocker: _Hop | None = None
        """The hop the last blocked :meth:`_send_bound` walk stopped at."""

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------
    def start(self, inject_channel: Channel, initial_state: object) -> None:
        """Inject the worm: queue for the source node's injection channel."""
        if self._started:
            raise RuntimeError("worm already started")
        self._started = True
        self.start_time = self.engine.now
        root = self._new_hop(inject_channel, parent=None)
        self._request(root, next_state=initial_state)

    # ------------------------------------------------------------------
    # Hop mechanics
    # ------------------------------------------------------------------
    def _new_hop(self, channel: Channel, parent: _Hop | None) -> _Hop:
        if channel.uid in self._channels_used:
            raise RuntimeError(
                f"worm {self.label!r} routed across channel {channel.name} twice"
            )
        self._channels_used.add(channel.uid)
        hop = _Hop(channel=channel, parent=parent, idx=len(self._hops))
        if parent is not None:
            parent.children.append(hop.idx)
        self._hops.append(hop)
        self._unreleased += 1
        return hop

    def _request(self, hop: _Hop, next_state: object) -> None:
        if hop.channel.revoked:
            # Link-level nack: the channel was taken out of service by a
            # runtime fault after this hop was planned.
            self.abort(f"channel {hop.channel.name} revoked")
            return

        def granted(lane: int) -> None:
            hop.lane = lane
            if self.aborted or hop.released:
                # The worm died while this request sat in the FIFO; the
                # grant just made the lane ours, so hand it straight
                # back (no traffic is counted for a cancelled hop).
                hop.released = True
                hop.channel.release(lane)
                return
            hop.h = self.engine.now + hop.channel.delay
            if self.trace is not None:
                self.trace.emit(self.engine.now, "grant", self.label, hop.channel.name)
            if not hop.terminal:
                # Header reaches the next switch's input buffer at hop.h and
                # spends routing_delay being decoded before replication.
                self.engine.at(
                    hop.h + self.params.routing_delay,
                    lambda: self._expand(hop, next_state),
                )
            self._refinalize(hop)

        hop.channel.request(granted, adaptive_only=hop.adaptive)

    @staticmethod
    def _load(opt: tuple[Channel, object]) -> tuple[int, int]:
        """Channel preference key: channels with a free lane (immediate
        grant) first, then shortest queue.  At ``vc_count=1`` a free lane
        is exactly the not-busy condition of the single-lane fabric."""
        ch = opt[0]
        if ch.has_free_lane:
            return (0, ch.queue_length)
        return (1, ch.queue_length + 1)

    def _choose(self, options: list[tuple[Channel, object]]) -> tuple[Channel, object]:
        """Adaptive output selection: idle channels first, then shortest
        queue; ties broken randomly (seeded) like Autonet's random port pick."""
        if not options:
            raise ValueError("Forward with no candidate channels")
        if len(options) == 1:
            return options[0]
        loads = [self._load(o) for o in options]
        best = min(loads)
        pool = [o for o, load in zip(options, loads) if load == best]
        return pool[0] if len(pool) == 1 else self.rng.choice(pool)

    def _choose_vc(
        self,
        options: list[tuple[Channel, object]],
        adaptive: list[tuple[Channel, object]],
    ) -> tuple[tuple[Channel, object], bool]:
        """Escape-mode selection among up*/down* options and adaptive
        shortcuts.  Returns ``(choice, is_adaptive)``.

        The up*/down* set wins whenever one of its channels grants
        immediately; an adaptive shortcut is taken only when every legal
        option would block *and* the shortcut has a free lane >= 1 right
        now.  Adaptive requests are issued in the same engine event as this
        check, so they always grant synchronously -- a worm never waits on
        an adaptive lane, which is what keeps escape routing deadlock-free.
        """
        candidates = [
            o for o in adaptive
            if not o[0].revoked and o[0].has_free_adaptive_lane
        ]
        if not candidates:
            return self._choose(options), False
        if min(self._load(o) for o in options)[0] == 0:
            return self._choose(options), False
        return self._choose(candidates), True

    def _expand(self, hop: _Hop, state: object) -> None:
        """Header decoded at the switch after crossing ``hop``: replicate."""
        if self.aborted:
            return
        switch = hop.channel.to_switch
        assert switch is not None, "expanded a delivery hop"
        instrs = self.steer(switch, state)
        if not instrs:
            raise RuntimeError(
                f"steer returned no instructions for worm {self.label!r} at "
                f"switch {switch} -- the worm would be stranded"
            )
        for ins in instrs:
            if self.aborted:
                # A sibling branch hit a revoked channel while this loop
                # ran; stop issuing requests for the rest of the tree.
                return
            if isinstance(ins, Deliver):
                child = self._new_hop(ins.channel, parent=hop)
                child.terminal = True
                child.expanded = True
                self._pending_deliveries += 1
                self._request(child, next_state=None)
            elif isinstance(ins, Forward):
                options = [o for o in ins.options if not o[0].revoked]
                if not options:
                    self.abort(f"no surviving route at switch {switch}")
                    return
                if ins.adaptive_options:
                    # Escape mode resets the up*/down* phase after a
                    # shortcut, so a later legal segment could retrace a
                    # channel this worm already crossed -- filter used
                    # channels out (a worm's tree never crosses a channel
                    # twice).  Pure up*/down* routes are simple by
                    # construction, so this filter is escape-mode only.
                    used = self._channels_used
                    base = [o for o in options if o[0].uid not in used]
                    shortcuts = [
                        o for o in ins.adaptive_options if o[0].uid not in used
                    ]
                    (chosen, next_state), adaptive = self._choose_vc(
                        base or options, shortcuts
                    )
                else:
                    chosen, next_state = self._choose(options)
                    adaptive = False
                child = self._new_hop(chosen, parent=hop)
                child.adaptive = adaptive
                self._request(child, next_state=next_state)
            else:  # pragma: no cover - type guard
                raise TypeError(f"unknown steer instruction {ins!r}")
        hop.expanded = True
        self._refinalize(hop)

    def hop_records(self) -> list[tuple[int | None, Channel]]:
        """The replication tree as ``(parent_index, channel)`` per hop.

        Hops appear in creation order; ``parent_index`` indexes into this
        same list (``None`` for the injection root).  This is the dynamic
        ground truth the fuzz oracles audit: every root-to-leaf chain must
        be a contiguous legal up*/down* route ending in a delivery channel.
        """
        return [
            (None if h.parent is None else h.parent.idx, h.channel)
            for h in self._hops
        ]

    def _delivered(self, node: int) -> None:
        if self.aborted:
            return
        self._pending_deliveries -= 1
        if self.trace is not None:
            self.trace.emit(self.engine.now, "deliver", self.label, f"node {node}")
        self.on_delivered(node, self.engine.now)
        self._check_done()

    # ------------------------------------------------------------------
    # Tail-time computation (release and delivery scheduling)
    # ------------------------------------------------------------------
    # The per-flit send schedule of hop h obeys three constraint families
    # (matching the flit-level reference simulator in repro.sim.flitsim):
    #
    #   send_h(m) >= grant_h + m                       (rate limit)
    #   send_h(m) >= send_parent(m) + delay_parent     (flit availability)
    #   send_h(m) >= send_c(m - (B_h+1)) + delay_c - delay_h
    #                                  (buffer capacity; only when c is h's
    #                                   one child -- a fork's replication
    #                                   buffers decouple its branches)
    #
    # The tail time of hop h is delay_h + send_h(L-1), computed by
    # relaxation over these constraint "walks".  Down-moves strictly
    # decrease the flit index by the buffer capacity, so the recursion
    # terminates; the value is *final* once every hop a walk can visit at a
    # non-negative index has been granted (and expanded, where its children
    # matter).
    #
    # Hops are granted before they expand, both transitions are one-way,
    # and a hop's children are fixed once it expands.  Two consequences:
    #
    # * A bound that returns without blocking is final, so each hop keeps it
    #   in ``hop.bounds`` for the worm's life and no walk recomputes it.
    #   Blocking is a ``None`` return, and a blocked walk keeps nothing for
    #   the hops it was computing (their values would miss a term).
    # * A walk stops at its *first* ungranted/unexpanded hop, and nothing
    #   before that blocker can change, so the walk's outcome is frozen until
    #   the blocker itself changes.  Each failed hop therefore parks on its
    #   blocker's waiter list, and a state change re-attempts exactly the
    #   changed hop plus its registered waiters -- O(affected) per grant,
    #   not O(all hops).  Candidates are re-attempted in hop-creation order,
    #   which keeps the engine's same-time event sequence identical to a
    #   full rescan (ties fire in schedule order).

    def _refinalize(self, changed: _Hop) -> None:
        """Re-attempt tail finalization for ``changed`` and its waiters."""
        if self.aborted:
            return
        candidates = changed.waiters
        if candidates:
            changed.waiters = []
            candidates.append(changed)
            candidates.sort(key=lambda h: h.idx)
        else:
            candidates = [changed]
        last = self.length - 1
        now = self.engine.now
        previous = -1
        for hop in candidates:
            # A hop can be listed twice (changed and a waiter, or parked
            # twice on one blocker); sorting made the copies adjacent.
            if hop.idx == previous or hop.release_scheduled:
                continue
            previous = hop.idx
            send = self._send_bound(hop, last)
            if send is None:
                self._blocker.waiters.append(hop)
                continue
            tail = hop.channel.delay + send
            hop.release_scheduled = True
            when = max(tail, now)
            self.engine.at(when, lambda h=hop: self._release(h))
            if hop.terminal:
                node = hop.channel.to_node
                assert node is not None
                self.engine.at(when, lambda n=node: self._delivered(n))

    def _send_bound(self, hop: _Hop, idx: int) -> float | None:
        """Tightest lower bound on when flit ``idx`` enters ``hop``'s channel.

        Returns ``None`` when an ungranted/unexpanded hop within the
        constraint horizon leaves the value still unbounded, and records
        that hop as :attr:`_blocker`.  A returned value is final and is kept
        in ``hop.bounds``.
        """
        bound = hop.bounds.get(idx)
        if bound is not None:
            return bound
        if hop.h is None:
            self._blocker = hop
            return None
        delay = hop.channel.delay
        bound = hop.h - delay + idx
        parent = hop.parent
        if parent is not None:
            up = self._send_bound(parent, idx)
            if up is None:
                return None
            up += parent.channel.delay
            if up > bound:
                bound = up
        cap = hop.channel.downstream_buffer + 1
        if idx >= cap and not hop.terminal:
            if not hop.expanded:
                self._blocker = hop
                return None
            # Replicating switches provide deadlock-free replication
            # (paper section 3.3): every fork port has its own full-packet
            # replication buffer, so a blocked branch neither starves its
            # siblings nor back-pressures the shared feed.  Without this,
            # two tree worms replicating across each other genuinely
            # deadlock (the flit-level reference reproduces that), which is
            # precisely why the paper lists the support as a switch cost.
            if len(hop.children) == 1:
                child = self._hops[hop.children[0]]
                down = self._send_bound(child, idx - cap)
                if down is None:
                    return None
                down = down + child.channel.delay - delay
                if down > bound:
                    bound = down
        hop.bounds[idx] = bound
        return bound

    def _release(self, hop: _Hop) -> None:
        if hop.released:
            # Abort already handed the channel back; the tail-time release
            # event scheduled earlier must not double-release.
            return
        hop.released = True
        hop.counted = True
        if self.trace is not None:
            self.trace.emit(self.engine.now, "release", self.label, hop.channel.name)
        hop.channel.flits_carried += self.length
        hop.channel.worms_carried += 1
        hop.channel.release(hop.lane)
        self._unreleased -= 1
        self._check_done()

    def _check_done(self) -> None:
        if self.aborted:
            return
        if self._unreleased == 0 and self._pending_deliveries == 0:
            if self.finish_time is None:
                self.finish_time = self.engine.now
                if self.on_done is not None:
                    self.on_done()
                if self.on_retire is not None:
                    self.on_retire(self)

    # ------------------------------------------------------------------
    # Runtime faults
    # ------------------------------------------------------------------
    def abort(self, reason: str) -> None:
        """Kill the worm (runtime link fault): release every held channel.

        All granted, not-yet-released hops hand their channels back
        immediately *without* committing traffic to the channel counters
        (an aborted transfer never completed, so it carries no flits for
        the load accounting -- see :meth:`hop_counted`).  Ungranted hops
        stay queued; their grant closures self-release when the FIFO
        reaches them.  Pending tail-release and delivery events become
        no-ops via the :attr:`aborted` guards.  Fires ``on_abort`` (the
        nack to the source host) exactly once.
        """
        if self.aborted or self.finish_time is not None:
            return
        self.aborted = True
        self.abort_reason = reason
        if self.trace is not None:
            self.trace.emit(self.engine.now, "abort", self.label, reason)
        for hop in self._hops:
            # A hop parked on its parent (or on itself) closes a cycle that
            # no later state change clears once the worm is dead.
            hop.waiters.clear()
            if hop.h is not None and not hop.released:
                hop.released = True
                hop.channel.release(hop.lane)
        if self.on_abort is not None:
            self.on_abort(reason)
        if self.on_retire is not None:
            self.on_retire(self)

    def touches(self, channel_uids: set[int]) -> bool:
        """Does the worm hold or await any of these channels right now?

        Used by the fault injector to find the victims of a revoked link:
        a hop that is granted-but-unreleased holds the channel; one that is
        requested-but-ungranted sits in its FIFO queue.  Released hops no
        longer matter.
        """
        return any(
            not h.released and h.channel.uid in channel_uids
            for h in self._hops
        )

    def hop_counted(self) -> list[bool]:
        """Per-hop flag: did the hop commit traffic to its channel counters?

        Aligned with :meth:`hop_records` order.  Aborted hops release their
        channels without counting, so conservation audits must only expect
        ``length`` flits on hops marked ``True`` here.
        """
        return [h.counted for h in self._hops]
