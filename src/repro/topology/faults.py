"""Link-fault injection and reconfiguration support.

The paper motivates irregular topologies by exactly this: "using such
topologies allows easy addition and deletion of nodes ... making the overall
environment more amenable to network reconfigurations and resistant to
faults."  Autonet reconfigures by recomputing its spanning tree when links
fail.

Two fault models live in this library:

* **Static** (this module): links are failed *before* a run --
  :func:`degrade` picks removable links, and reconfiguration is simply
  building a new :class:`~repro.sim.network.SimNetwork` on the degraded
  topology (routing tables, reachability strings, and all multicast plans
  follow).
* **Runtime** (:mod:`repro.chaos`): links fail *mid-run* on a seeded
  schedule (drawn here by :func:`schedule_faults`); in-flight worms abort
  with a nack, the live network reconfigures in place via
  :meth:`~repro.sim.network.SimNetwork.reconfigure`, and a retry layer
  redelivers exactly-once on the new orientation.

The same static-vs-runtime split applies to multicast *destinations*:
the experiments above multicast to destination sets fixed for the whole
run, while :mod:`repro.groups` lets membership churn mid-run (joins and
leaves patch the installed plan in place).  The two axes compose -- a
runtime fault bumps the routing epoch, which invalidates a dynamic
group's patched plan but never its membership.
"""

from __future__ import annotations

import math
import random

from repro.topology.graph import NetworkTopology


def remove_link(topo: NetworkTopology, link_id: int) -> NetworkTopology:
    """A copy of the topology with one switch-switch link failed.

    The freed ports stay open (as after a physical cable failure).  Raises
    ``ValueError`` for unknown ids or when removal would disconnect the
    switch graph (a disconnected network cannot be reconfigured around).
    """
    links = [lk for lk in topo.links if lk.link_id != link_id]
    if len(links) == len(topo.links):
        raise ValueError(f"no link with id {link_id}")
    degraded = NetworkTopology(
        num_switches=topo.num_switches,
        ports_per_switch=topo.ports_per_switch,
        node_attachment=list(topo.node_attachment),
        links=links,
    )
    if not degraded.is_connected():
        raise ValueError(
            f"removing link {link_id} disconnects the network"
        )
    return degraded


def removable_links(topo: NetworkTopology) -> list[int]:
    """Ids of links whose individual failure keeps the network connected."""
    out = []
    for lk in topo.links:
        try:
            remove_link(topo, lk.link_id)
        except ValueError:
            continue
        out.append(lk.link_id)
    return out


def _fail_in_turn(
    topo: NetworkTopology, n_failures: int, rng: random.Random, cannot: str
) -> tuple[NetworkTopology, list[int]]:
    """Fail ``n_failures`` links one at a time, each drawn with
    ``rng.choice`` from the links removable at that point.

    Returns the degraded topology and the victims in draw order; raises
    ``ValueError`` starting with ``cannot`` when no link is removable.
    """
    current = topo
    victims: list[int] = []
    for _ in range(n_failures):
        candidates = removable_links(current)
        if not candidates:
            raise ValueError(
                f"{cannot} without disconnecting (stuck after {len(victims)})"
            )
        victim = rng.choice(candidates)
        current = remove_link(current, victim)
        victims.append(victim)
    return current, victims


def degrade(
    topo: NetworkTopology,
    n_failures: int,
    rng: random.Random | None = None,
) -> tuple[NetworkTopology, list[int]]:
    """Fail ``n_failures`` random links, keeping the network connected.

    Returns the degraded topology and the failed link ids (in failure
    order).  Raises ``ValueError`` if the topology cannot absorb that many
    failures without disconnecting.
    """
    if n_failures < 0:
        raise ValueError("n_failures must be non-negative")
    return _fail_in_turn(
        topo, n_failures, rng or random.Random(0),
        f"cannot fail {n_failures} links",
    )


def schedule_faults(
    topo: NetworkTopology,
    n_failures: int,
    rng: random.Random | None = None,
    window: tuple[float, float] = (0.0, 1000.0),
) -> list[tuple[float, int]]:
    """Draw a seeded runtime fault schedule: ``(fire_time, link_id)`` pairs.

    Links are chosen like :func:`degrade` -- each one keeps the
    *sequentially* degraded network connected -- so the whole schedule can
    be absorbed by Autonet-style reconfiguration.  Fire times are uniform
    in ``window`` and returned sorted ascending (ties keep draw order).
    Deterministic for a given ``rng`` state; arm the result on a live
    network with :class:`repro.chaos.FaultInjector`.
    """
    if n_failures < 0:
        raise ValueError("n_failures must be non-negative")
    lo, hi = window
    if not 0 <= lo <= hi < math.inf:
        raise ValueError(
            "window must be (low, high) with 0 <= low <= high, both finite, "
            f"got {window}"
        )
    rng = rng or random.Random(0)
    _, victims = _fail_in_turn(
        topo, n_failures, rng, f"cannot schedule {n_failures} runtime faults"
    )
    # Sorted fire times are paired with victims in draw order, so the links
    # fail in exactly the sequence whose connectivity was just validated.
    times = sorted(rng.uniform(lo, hi) for _ in victims)
    return list(zip(times, victims))
