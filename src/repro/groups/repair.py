"""Incremental path-plan repair: graft on join, prune on leave.

A membership change invalidates at most a sliver of a multi-drop path
plan (:class:`~repro.multicast.pathworm.MulticastPathPlan`); replanning
from scratch throws the rest away.  This module patches it in place: a
join grafts the new member onto the nearest legal attachment point: if
some worm already crosses the member's switch, the member becomes one
more drop at that position (zero new links); otherwise a fresh
single-destination worm is planned from the closest eligible sender (a
covered node that has not sent yet, by routing distance then id) and
appended as a new final phase.  A leave removes the member's drop, trims
the now-useless path tail, and -- if the leaver was due to send a later
worm -- hands that worm to another already-covered node on the same
switch.  Tree plans are not patched: a tree group replans on every
membership change.

Every patch is advisory: callers re-verify the result against the
up*/down* invariants (:func:`repro.multicast.pathworm.verify_plan`) and
fall back to a full replan when a function here returns ``None`` or
verification fails.  Cost helpers (path and tree) mirror the execution
layer's link accounting so a patched-vs-fresh quality ratio and a
switch-table footprint need no simulation.
"""

from __future__ import annotations

from dataclasses import replace

from repro.multicast.pathworm import (
    MulticastPathPlan,
    PathWormPlan,
    best_single_worm,
)
from repro.multicast.treeworm import TreeWormPlan, down_port_assignment
from repro.sim.network import SimNetwork


# ----------------------------------------------------------------------
# Cost + footprint accounting
# ----------------------------------------------------------------------
def path_plan_cost(plan: MulticastPathPlan) -> int:
    """Static cost of a path plan: one injection plus the links per worm."""
    return sum(1 + len(w.links) for w in plan.worms)


def path_footprint(plan: MulticastPathPlan) -> tuple[int, ...]:
    """Sorted switches the plan's worms cross (the state the plan pins)."""
    return tuple(sorted({s for w in plan.worms for s in w.switch_path}))


def tree_cost_footprint(
    net: SimNetwork,
    plan: TreeWormPlan,
    dests: list[int],
) -> tuple[int, tuple[int, ...]]:
    """Static (cost, footprint) of a tree plan over a destination set.

    Replays the worm's route without simulating it: climb the up path
    (dropping destinations local to each crossed switch, stopping early
    if the header empties), then walk the down distribution through
    :func:`~repro.multicast.treeworm.down_port_assignment`, the header
    decode :meth:`TreeWormScheme.make_steer` runs.  Cost is one
    injection plus every link the worm (and its down copies) traverses.
    """
    topo = net.topo
    remaining = frozenset(dests)
    switches: set[int] = set()
    edges = 0
    prev = None
    for s in plan.up_switch_path:
        if prev is not None:
            edges += 1
        switches.add(s)
        remaining = remaining - frozenset(topo.nodes_on_switch(s))
        prev = s
        if s == plan.turn_switch or not remaining:
            break
    # Down distribution happens only if header bits survive the climb.
    stack = [(plan.turn_switch, remaining)] if remaining else []
    while stack:
        sw, rem = stack.pop()
        switches.add(sw)
        rem = rem - frozenset(topo.nodes_on_switch(sw))
        for lk, subset in down_port_assignment(topo, net.routing, sw, rem):
            edges += 1
            stack.append((lk.other_end(sw).switch, subset))
    return 1 + edges, tuple(sorted(switches))


# ----------------------------------------------------------------------
# Path-plan surgery
# ----------------------------------------------------------------------
def _swap_worm(
    plan: MulticastPathPlan, pi: int, wi: int, worm: PathWormPlan
) -> MulticastPathPlan:
    phase = plan.phases[pi][:wi] + (worm,) + plan.phases[pi][wi + 1:]
    return MulticastPathPlan(
        phases=plan.phases[:pi] + (phase,) + plan.phases[pi + 1:]
    )


def graft_path_plan(
    net: SimNetwork,
    plan: MulticastPathPlan,
    source: int,
    new_dest: int,
    strategy: str = "lg",
) -> MulticastPathPlan | None:
    """Attach one new destination to an existing path plan.

    Returns the patched plan, or ``None`` when no legal attachment point
    exists (caller replans).  Preference order: an existing worm already
    crossing the new member's switch (earliest phase first -- delivered
    soonest, zero added links), else a fresh single-destination worm
    from the nearest eligible sender appended as a new final phase.
    """
    topo, rt = net.topo, net.routing
    ns = topo.switch_of_node(new_dest)
    for pi, phase in enumerate(plan.phases):
        for wi, worm in enumerate(phase):
            for pos, sw in enumerate(worm.switch_path):
                if sw == ns:
                    drops = list(worm.drops)
                    drops[pos] = tuple(sorted((*drops[pos], new_dest)))
                    return _swap_worm(
                        plan, pi, wi, replace(worm, drops=tuple(drops))
                    )
    used = {w.sender for ph in plan.phases for w in ph}
    eligible = [source] if source not in used else []
    for phase in plan.phases:
        for worm in phase:
            eligible.extend(
                n for n in sorted(worm.covered) if n not in used
            )
    if not eligible:
        return None
    sender = min(
        eligible,
        key=lambda n: (rt.distance(topo.switch_of_node(n), ns), n),
    )
    worm = best_single_worm(
        net, sender, frozenset({new_dest}), strategy=strategy
    )
    return MulticastPathPlan(phases=plan.phases + ((worm,),))


def prune_path_plan(
    net: SimNetwork,
    plan: MulticastPathPlan,
    source: int,
    gone: int,
    strategy: str = "lg",
) -> MulticastPathPlan | None:
    """Detach one departed destination from a path plan.

    Removes the leaver's drop, trims the carrying worm's now-useless
    tail (worms that covered only the leaver disappear outright, as do
    phases they leave empty), and hands any worm the leaver was due to
    send to a replacement: preferably an idle earlier-covered node on the
    same switch (the worm survives verbatim), otherwise the orphaned
    worm's destinations are re-covered by fresh worms from the nearest
    idle earlier-covered senders, slotted into the same phase so the
    downstream sender-eligibility structure is untouched.  Returns
    ``None`` -- replan -- when the leaver is not in the plan or the
    replacement pool is exhausted.
    """
    phases = [list(ph) for ph in plan.phases]
    drop_loc: tuple[int, int] | None = None
    for pi, ph in enumerate(phases):
        for wi, w in enumerate(ph):
            if any(gone in nodes for nodes in w.drops):
                drop_loc = (pi, wi)
    if drop_loc is None:
        return None

    # Hand any worm the leaver was due to send to a replacement sender,
    # covered in a strictly earlier phase and idle.
    topo, rt = net.topo, net.routing
    used = {w.sender for ph in phases for w in ph}
    for pi, ph in enumerate(phases):
        for wi, w in enumerate(ph):
            if w.sender != gone:
                continue
            pool = {source}
            for q in range(pi):
                for w2 in phases[q]:
                    pool |= set(w2.covered)
            pool.discard(gone)
            idle = sorted(r for r in pool if r not in used)
            start = w.switch_path[0]
            same_switch = [
                r for r in idle if topo.switch_of_node(r) == start
            ]
            if same_switch:
                used.add(same_switch[0])
                phases[pi][wi] = replace(w, sender=same_switch[0])
                continue
            # No same-switch stand-in: re-cover the orphaned worm's drop
            # set with fresh worms from the nearest idle senders.  Same
            # phase slot, so every later phase's senders stay covered in
            # a strictly earlier phase.
            remaining = frozenset(n for n in w.covered if n != gone)
            new_worms: list[PathWormPlan] = []
            while remaining:
                if not idle:
                    return None
                sender = min(
                    idle,
                    key=lambda n: (
                        min(
                            rt.distance(
                                topo.switch_of_node(n),
                                topo.switch_of_node(d),
                            )
                            for d in remaining
                        ),
                        n,
                    ),
                )
                idle.remove(sender)
                used.add(sender)
                nw = best_single_worm(net, sender, remaining,
                                      strategy=strategy)
                new_worms.append(nw)
                remaining = remaining - nw.covered
            phases[pi][wi:wi + 1] = new_worms
            if drop_loc[0] == pi:
                # Worm indices in this phase shifted; gone's drop is never
                # on a worm gone sends, so only re-locate it.
                for wj, w2 in enumerate(phases[pi]):
                    if any(gone in nodes for nodes in w2.drops):
                        drop_loc = (pi, wj)

    pi, wi = drop_loc
    w = phases[pi][wi]
    drops = [tuple(n for n in nodes if n != gone) for nodes in w.drops]
    last = -1
    for i, nodes in enumerate(drops):
        if nodes:
            last = i
    if last < 0:
        del phases[pi][wi]
    else:
        phases[pi][wi] = replace(
            w,
            switch_path=w.switch_path[:last + 1],
            links=w.links[:last],
            drops=tuple(drops[:last + 1]),
        )
    new_phases = tuple(tuple(ph) for ph in phases if ph)
    if not new_phases:
        return None
    return MulticastPathPlan(phases=new_phases)
