"""Multi-drop path-based multicast with MDP-LG scheduling (system S12).

The second switch-supported scheme the paper studies (Kesavan & Panda,
PCRCW'97): a *multi-drop path-based* worm follows a single legal up*/down*
path; at every switch along the path it may replicate to the ports of
attached destination nodes and to at most one further switch port.  Because
one path rarely strings together every destination's switch, an arbitrary
multicast needs several worms, organised in *phases*: destinations covered in
phase ``p`` act as secondary sources in phase ``p+1`` (recursive doubling of
the sender pool), and each phase's worms are chosen to cover as many
still-uncovered destinations as possible.

The paper uses the **MDP-LG** ("Multi-Drop Path-based Less Greedy")
algorithm.  The original pseudo-code is not in the (OCR-degraded) text, so we
reconstruct it from its description -- "finds a small number of multi worms
to cover the set and decides how to send these worms in multiple phases so
as to reduce contention":

* **worm search** (:func:`best_single_worm`): a multi-drop worm "uses almost
  exactly the same path followed by a unicast worm from a source to one of
  its destinations" (Section 3.2.4), so the candidate set is every *minimal
  legal path* from the sender to each still-uncovered destination; a
  candidate covers every uncovered destination attached to a switch it
  crosses.
* **greedy vs. less-greedy selection**: plain greedy maximises (coverage,
  -path length).  The *less greedy* variant, used by default, additionally
  prefers -- among candidates of equal coverage -- paths that reach the
  farthest destinations, leaving nearby destinations (cheap for any later
  secondary source) to subsequent phases; this balances phase load, which is
  how the LG variant earns its name.
* **phase schedule**: "worms are transmitted in multiple phases with the
  destinations in a phase acting as secondary sources in succeeding phases",
  and "a phase finishes only when all the packets of the message arrive at an
  intermediate destination: only then can the node initiate the ... worm of
  the next phase" (Section 4.2.3).  We therefore assign *at most one worm per
  sender*: phase 1 is the source's worm; every destination covered so far is
  an eligible sender for the next phase.  The phase boundary then needs no
  global barrier -- it is exactly the local "I have the whole message"
  dependency at each secondary source.

Interior destinations use the *conventional* NI path (full host receive,
then host send) -- the paper explicitly withholds smart-NI support from the
switch-based schemes to keep the comparison clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.multicast.base import MulticastResult, MulticastScheme
from repro.routing.paths import (
    is_legal_path,
    path_switches,
    walk_minimal_paths,
)
from repro.routing.updown import UpDownRouting
from repro.sim.messaging import HostReceiver, host_send
from repro.sim.network import SimNetwork
from repro.sim.worm import Deliver, Forward
from repro.topology.graph import SwitchLink


@dataclass(frozen=True)
class PathWormPlan:
    """One multi-drop worm: its link path and per-position drop lists."""

    sender: int
    switch_path: tuple[int, ...]
    links: tuple[SwitchLink, ...]
    drops: tuple[tuple[int, ...], ...]
    """``drops[i]`` = nodes dropped at ``switch_path[i]``.  A minimal legal
    path never crosses a switch twice, so each position is a distinct
    switch."""

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(n for nodes in self.drops for n in nodes)

    @property
    def deepest_drop(self) -> int:
        """The first destination dropped at the last dropping position (the
        worm's secondary-source representative)."""
        for nodes in reversed(self.drops):
            if nodes:
                return nodes[0]
        raise ValueError("worm drops nothing")


@dataclass(frozen=True)
class MulticastPathPlan:
    """Full MDP plan: worms grouped by phase, in send order per sender."""

    phases: tuple[tuple[PathWormPlan, ...], ...]

    @property
    def worms(self) -> list[PathWormPlan]:
        return [w for ph in self.phases for w in ph]

    @property
    def num_phases(self) -> int:
        return len(self.phases)


# ----------------------------------------------------------------------
# Worm search
# ----------------------------------------------------------------------
MAX_PATHS_PER_DEST = 24
"""Cap on minimal-path enumeration per anchor destination (the paper's
networks have few parallel minimal routes; the cap guards degenerate
topologies)."""


def best_single_worm(
    net: SimNetwork,
    sender: int,
    remaining: frozenset[int],
    strategy: str = "lg",
) -> PathWormPlan:
    """Find the best multi-drop worm from ``sender`` over ``remaining``.

    Candidates are minimal legal unicast paths from the sender's switch to
    each uncovered destination's switch (the worm "uses almost exactly the
    same path followed by a unicast worm ... to one of its destinations");
    each candidate covers all uncovered destinations on switches it crosses.
    Selection keys: greedy maximises (coverage, -length); the less-greedy
    default additionally prefers anchoring on *far* destinations, leaving
    near ones (cheap for any later secondary source) to later phases.
    """
    if not remaining:
        raise ValueError("no destinations remaining")
    if strategy not in ("lg", "greedy"):
        raise ValueError(f"unknown strategy {strategy!r}")
    topo, rt = net.topo, net.routing
    start = topo.switch_of_node(sender)
    dest_by_switch: dict[int, list[int]] = {}
    for d in sorted(remaining):
        dest_by_switch.setdefault(topo.switch_of_node(d), []).append(d)

    # Each candidate's coverage is summed along the walk: a switch's weight
    # is its count of uncovered destinations, and a minimal path crosses
    # each switch once.  Within one anchor every candidate has the same
    # length and distance, so the anchor's candidate is its first path of
    # strictly highest coverage; only that path is copied.
    weight = [0] * topo.num_switches
    for s, nodes in dest_by_switch.items():
        weight[s] = len(nodes)
    coverage, links = -1, None

    def keep_first_best(path: list[SwitchLink], path_coverage: int) -> None:
        nonlocal coverage, links
        if path_coverage > coverage:
            coverage, links = path_coverage, list(path)

    best_key: tuple | None = None
    best_path: list[SwitchLink] | None = None
    for anchor_switch in sorted(dest_by_switch):
        coverage, links = -1, None
        walk_minimal_paths(rt, start, anchor_switch, MAX_PATHS_PER_DEST,
                           keep_first_best, weight)
        far = rt.distance(start, anchor_switch)
        if strategy == "lg":
            key = (coverage, far, -len(links))
        else:
            key = (coverage, -len(links), far)
        if best_key is None or key > best_key:
            best_key = key
            best_path = links
    assert best_path is not None and best_key is not None
    full = path_switches(start, best_path)

    # Per-position drops (each destination dropped at its first chance), and
    # trim trailing switches past the last drop (they would carry nothing).
    covered: set[int] = set()
    drops: list[tuple[int, ...]] = []
    last_useful = 0
    for i, s in enumerate(full):
        here = tuple(d for d in dest_by_switch.get(s, []) if d not in covered)
        drops.append(here)
        if here:
            covered.update(here)
            last_useful = i
    full = full[: last_useful + 1]
    drops = drops[: last_useful + 1]
    links = list(best_path[:last_useful])
    if not is_legal_path(rt, full[0], links):
        raise AssertionError("constructed worm path violates up*/down*")
    return PathWormPlan(
        sender=sender,
        switch_path=tuple(full),
        links=tuple(links),
        drops=tuple(drops),
    )


# ----------------------------------------------------------------------
# Phase scheduling
# ----------------------------------------------------------------------
def plan_path_worms(
    net: SimNetwork,
    source: int,
    dests: list[int],
    strategy: str = "lg",
) -> MulticastPathPlan:
    """The MDP-LG (or MDP-G) multi-phase worm schedule.

    One worm per sender, recursive doubling of the sender pool: phase 1 is
    the source's single worm; every destination covered in phases ``<= p``
    that has not yet sent is eligible to send one worm in phase ``p + 1``.
    """
    remaining = frozenset(dests)
    available: list[int] = [source]
    used: set[int] = set()
    phases: list[tuple[PathWormPlan, ...]] = []
    while remaining:
        phase: list[PathWormPlan] = []
        covered_this_phase: list[int] = []
        for s in available:
            if s in used:
                continue
            if not remaining:
                break
            worm = best_single_worm(net, s, remaining, strategy=strategy)
            used.add(s)
            remaining = remaining - worm.covered
            phase.append(worm)
            # Deterministic sender-pool order: deepest drop first (it is
            # farthest out, diversifying the next phase's send locations).
            covered_this_phase.append(worm.deepest_drop)
            covered_this_phase.extend(
                d for d in sorted(worm.covered) if d != worm.deepest_drop
            )
        if not phase:
            raise AssertionError("no eligible sender despite remaining dests")
        available = available + covered_this_phase
        phases.append(tuple(phase))
    return MulticastPathPlan(phases=tuple(phases))


# ----------------------------------------------------------------------
# Static plan verification
# ----------------------------------------------------------------------
def verify_plan(
    topo,
    rt: UpDownRouting,
    source: int,
    dests: list[int],
    plan: MulticastPathPlan,
) -> list[str]:
    """Statically check a plan against the paper's structural invariants.

    Returns a list of human-readable violations (empty when the plan is
    sound).  Checked invariants, each tied to Section 3.2.4 / 4.2.3:

    * every worm's link sequence decomposes into an up* prefix followed by
      a down* suffix (route legality);
    * the switch path recorded in the plan matches its link sequence;
    * drops happen only at switches the worm actually crosses, at nodes
      attached to those switches;
    * the phases cover the destination set exactly once overall;
    * every sender is the source or a destination covered in an *earlier*
      phase, and no sender launches worms in two phases.
    """
    from repro.routing.paths import updown_decomposition

    problems: list[str] = []
    dset = frozenset(dests)
    covered_so_far: set[int] = set()
    dropped: list[int] = []
    senders_used: set[int] = set()
    for pi, phase in enumerate(plan.phases):
        eligible = {source} | covered_so_far
        for worm in phase:
            tag = f"phase {pi + 1} worm from {worm.sender}"
            if worm.sender not in eligible:
                problems.append(f"{tag}: sender not yet covered")
            if worm.sender in senders_used:
                problems.append(f"{tag}: sender already sent in an earlier phase")
            senders_used.add(worm.sender)
            start = topo.switch_of_node(worm.sender)
            if worm.switch_path[0] != start:
                problems.append(f"{tag}: path does not start at the sender's switch")
            if path_switches(worm.switch_path[0], list(worm.links)) != list(
                worm.switch_path
            ):
                problems.append(f"{tag}: switch path disagrees with link sequence")
            try:
                updown_decomposition(rt, worm.switch_path[0], list(worm.links))
            except ValueError as exc:
                problems.append(f"{tag}: not an up*/down* path ({exc})")
            if len(worm.drops) != len(worm.switch_path):
                problems.append(f"{tag}: drop list length mismatch")
            for pos, nodes in zip(worm.switch_path, worm.drops):
                for n in nodes:
                    if topo.switch_of_node(n) != pos:
                        problems.append(
                            f"{tag}: drops node {n} at switch {pos}, "
                            f"but it is attached to switch {topo.switch_of_node(n)}"
                        )
            dropped.extend(worm.covered)
        covered_so_far |= {n for worm in phase for n in worm.covered}
    if len(dropped) != len(set(dropped)):
        dupes = sorted({n for n in dropped if dropped.count(n) > 1})
        problems.append(f"destinations dropped more than once: {dupes}")
    missing = sorted(dset - set(dropped))
    extra = sorted(set(dropped) - dset)
    if missing:
        problems.append(f"destinations never covered: {missing}")
    if extra:
        problems.append(f"non-destinations dropped: {extra}")
    return problems


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class PathWormScheme(MulticastScheme):
    """Multi-phase multi-drop path-based multicast (MDP-LG by default)."""

    name = "path"

    def __init__(self, strategy: str = "lg") -> None:
        if strategy not in ("lg", "greedy"):
            raise ValueError("strategy must be 'lg' or 'greedy'")
        self.strategy = strategy

    def plan(self, net: SimNetwork, source: int,
             dests: list[int]) -> MulticastPathPlan:
        """The worm/phase plan (exposed for tests)."""
        return plan_path_worms(net, source, dests, strategy=self.strategy)

    def make_steer(self, net: SimNetwork, worm_plan: PathWormPlan) -> Callable:
        """Steer function walking the planned path and dropping copies.

        Worm state is the index into the switch path.
        """
        fab = net.fabric

        def steer(switch: int, state):
            idx: int = state
            assert worm_plan.switch_path[idx] == switch
            instrs = [
                Deliver(fab.deliver[n]) for n in worm_plan.drops[idx]
            ]
            if idx + 1 < len(worm_plan.switch_path):
                ch = fab.forward_channel(worm_plan.links[idx], switch)
                instrs.append(Forward([(ch, idx + 1)]))
            return instrs

        return steer

    def execute(
        self,
        net: SimNetwork,
        source: int,
        dests: list[int],
        on_complete: Callable[[MulticastResult], None] | None = None,
    ) -> MulticastResult:
        result = self._new_result(net, source, dests)
        plan = self._cached_plan(
            net,
            ("mdp", source, result.dests),
            lambda: self.plan(net, source, list(result.dests)),
        )
        # Worm send-lists per sender, in phase order.
        sends: dict[int, list[PathWormPlan]] = {}
        for phase in plan.phases:
            for worm_plan in phase:
                sends.setdefault(worm_plan.sender, []).append(worm_plan)

        _PathSends(self, net, sends, result, on_complete).start(source)
        return result


class _PathSends:
    """One path multicast in flight: each node the message reaches starts
    the worms its plan gives it.

    Delivery and sending reach each other through the instance, and a worm's
    receivers live only as long as its copies do, so neither a finished
    multicast nor one whose worms a fault aborted leaves a reference cycle
    holding the network.
    """

    def __init__(self, scheme: PathWormScheme, net: SimNetwork,
                 sends: dict[int, list[PathWormPlan]], result: MulticastResult,
                 on_complete: Callable[[MulticastResult], None] | None) -> None:
        self.scheme = scheme
        self.net = net
        self.sends = sends
        self.result = result
        self.on_complete = on_complete

    def delivered(self, node: int, time: float) -> None:
        self.result._record(node, time, self.on_complete)
        self.start(node)

    def start(self, node: int) -> None:
        """Launch ``node``'s worms, in phase order."""
        net = self.net
        m = net.params.message_packets
        for worm_plan in self.sends.get(node, ()):
            steer = self.scheme.make_steer(net, worm_plan)
            receivers = {
                d: HostReceiver(
                    net.hosts[d], m,
                    on_delivered=lambda t, n=d: self.delivered(n, t),
                )
                for nodes in worm_plan.drops
                for d in nodes
            }

            def make_launcher(wp=worm_plan, st=steer,
                              receivers=receivers) -> Callable[[], None]:
                def launch() -> None:
                    net.hosts[wp.sender].launch_worm(
                        st,
                        initial_state=0,
                        on_delivered=lambda n, _t: receivers[
                            n
                        ].packet_arrived(),
                        label=f"path:{wp.sender}",
                    )

                return launch

            host_send(net.hosts[node], [make_launcher() for _ in range(m)])
