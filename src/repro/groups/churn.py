"""Seeded membership churn and the patched-vs-replanned paired harness.

:func:`churn_stream` draws a deterministic join/leave event stream over a
bounded population: ``churn_rate`` gates whether a step produces an event
(both the gate and the op draw are consumed every step, so streams at
different rates stay aligned on the shared prefix of decisions), and
joins and leaves are equally likely, clamped so membership never
empties and never exceeds the population.

:func:`run_paired_churn` is the experiment kernel: one network, one
churn stream, two groups -- a *patched*
:class:`~repro.groups.membership.MulticastGroup` (``repair=True``: path
plans graft/prune, tree plans replan anyway) and a *twin* that replans on
every change -- driven through identical membership changes and
alternating sends.  At every step :func:`send_and_compare` checks that
the patched group delivers exactly the same destination set as the
replan-every-change twin (the repair layer's correctness contract; the
fuzz ``churn`` oracle runs the same comparison), and the report records
how often each side replanned plus the patched-vs-fresh plan-cost ratio
(the twin's plan *is* the fresh plan, so the quality bound is measured,
not estimated).  Optional fault steps remove a link and reconfigure
mid-stream, exercising the epoch-invalidates-plans rule.

Everything here is a pure function of its seed: sub-seeds use the same
sha256 construction as the experiment runner's cell seeds, report
values are plain JSON-able data with no wall-clock anywhere, and
:meth:`ChurnReport.digest` gives CI a replayable fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.groups.membership import (
    DEFAULT_QUALITY_BOUND,
    GroupManager,
    MulticastGroup,
)
from repro.params import SimParams
from repro.sim.network import SimNetwork
from repro.topology import faults
from repro.topology.irregular import generate_irregular_topology
from repro.workloads.arrivals import derive_seed

MAX_EVENTS_PER_SEND = 500_000
"""Engine-event budget per send (matches the fuzz harness's runaway cap)."""


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change: ``op`` is ``"join"`` or ``"leave"``."""

    step: int
    op: str
    node: int


def churn_stream(
    seed: int,
    steps: int,
    population: tuple[int, ...],
    root: int,
    initial_members: tuple[int, ...],
    churn_rate: float,
) -> tuple[ChurnEvent, ...]:
    """A deterministic join/leave stream (at most one event per step).

    ``churn_rate`` is the per-step probability of an event; the gate and
    the join-vs-leave draw are consumed on every step regardless, so two
    rates of one seed agree event-for-event until the first step where
    only the higher rate fires.  Joins draw from the population outside
    the group, leaves from the members; each op's weight is 1, zeroed
    when its pool is empty (a group never empties, the root never
    churns).
    """
    if not 0.0 <= churn_rate <= 1.0:
        raise ValueError("churn_rate must be in [0, 1]")
    rng = random.Random(derive_seed(seed, "churn-stream"))
    members = set(initial_members)
    events: list[ChurnEvent] = []
    for step in range(steps):
        gate = rng.random()
        op_draw = rng.random()
        if gate >= churn_rate:
            continue
        outside = sorted(set(population) - members - {root})
        jw = 1.0 if outside else 0.0
        lw = 1.0 if len(members) > 1 else 0.0
        if jw + lw == 0.0:
            continue
        if op_draw < jw / (jw + lw):
            node = outside[rng.randrange(len(outside))]
            members.add(node)
            events.append(ChurnEvent(step, "join", node))
        else:
            pool = sorted(members)
            node = pool[rng.randrange(len(pool))]
            members.remove(node)
            events.append(ChurnEvent(step, "leave", node))
    return tuple(events)


@dataclass
class ChurnReport:
    """Outcome of one paired churn run (plain data, JSON-able)."""

    scheme: str
    steps: int
    events: int
    sends: int
    patched_stats: dict
    twin_replans: int
    delivery_identical: bool
    mismatches: list[str] = field(default_factory=list)
    verify_failures: int = 0
    epoch_bumps: int = 0
    max_cost_ratio: float = 0.0
    mean_cost_ratio: float = 0.0
    table_stats: dict | None = None

    def to_value(self) -> dict:
        """The experiment-cell value: deterministic, JSON-round-trippable."""
        out = {
            "scheme": self.scheme,
            "steps": self.steps,
            "events": self.events,
            "sends": self.sends,
            "patched": dict(self.patched_stats),
            "twin_replans": self.twin_replans,
            "delivery_identical": self.delivery_identical,
            "mismatches": list(self.mismatches),
            "verify_failures": self.verify_failures,
            "epoch_bumps": self.epoch_bumps,
            "max_cost_ratio": self.max_cost_ratio,
            "mean_cost_ratio": self.mean_cost_ratio,
        }
        if self.table_stats is not None:
            out["tables"] = dict(self.table_stats)
        return out

    def digest(self) -> str:
        """Replay fingerprint: sha256 over the canonical value JSON."""
        payload = json.dumps(self.to_value(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _drain(net: SimNetwork) -> None:
    net.engine.run(max_events=MAX_EVENTS_PER_SEND)


def send_and_compare(
    patched: MulticastGroup,
    twin: MulticastGroup,
    net: SimNetwork,
    stage: str,
) -> list[str]:
    """Send from both groups (draining after each); return the mismatches.

    Empty when the patched send completed, delivered exactly the current
    members, and delivered the same set as the replanned twin.
    """
    want = tuple(sorted(patched.members))
    rp = patched.send()
    _drain(net)
    rt = twin.send()
    _drain(net)
    delivered_patched = tuple(sorted(rp.delivery_times))
    delivered_twin = tuple(sorted(rt.delivery_times))
    mismatches = []
    if not rp.complete or delivered_patched != want:
        mismatches.append(
            f"{stage}: patched delivered {list(delivered_patched)}, members {list(want)}"
        )
    if delivered_twin != delivered_patched:
        mismatches.append(
            f"{stage}: patched {list(delivered_patched)} != replanned {list(delivered_twin)}"
        )
    return mismatches


def run_paired_churn(
    params: SimParams,
    scheme_name: str,
    *,
    seed: int,
    steps: int,
    group_size: int,
    churn_rate: float,
    quality_bound: float = DEFAULT_QUALITY_BOUND,
    table_capacity: int | None = None,
    table_policy: str = "lru",
    fault_steps: tuple[int, ...] = (),
    scheme_kw: dict | None = None,
) -> ChurnReport:
    """Drive a patched group and a replan-every-change twin through one
    seeded churn stream, asserting identical delivery sets step by step.

    ``fault_steps`` removes one removable link and reconfigures the
    network before those steps' events (the chaos-layer interaction).
    Both groups send after every event.  The twin shares the network but
    not the scheme instance, so the two plan caches never alias.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    scheme_kw = dict(scheme_kw or {})
    topo = generate_irregular_topology(
        params, seed=derive_seed(seed, "topology")
    )
    params = params.replace(
        num_switches=topo.num_switches, num_nodes=topo.num_nodes
    )
    net = SimNetwork(topo, params)
    root = 0
    pool = [n for n in range(params.num_nodes) if n != root]
    if group_size >= len(pool):
        raise ValueError("group_size must leave headroom for joins")
    member_rng = random.Random(derive_seed(seed, "members"))
    initial = tuple(sorted(member_rng.sample(pool, group_size)))
    events = churn_stream(
        seed, steps, tuple(pool), root, initial, churn_rate
    )
    events_at: dict[int, list[ChurnEvent]] = {}
    for ev in events:
        events_at.setdefault(ev.step, []).append(ev)

    # Two managers: same spec must NOT share a scheme instance (a shared
    # plan cache would let one side serve the other's plans and void the
    # differential).
    patched_mgr = GroupManager(
        net, default_scheme=scheme_name,
        table_capacity=table_capacity, table_policy=table_policy,
    )
    twin_mgr = GroupManager(net, default_scheme=scheme_name)
    patched = patched_mgr.create(
        root, list(initial), quality_bound=quality_bound, repair=True,
        **scheme_kw,
    )
    twin = twin_mgr.create(
        root, list(initial), quality_bound=quality_bound, repair=False,
        **scheme_kw,
    )

    fault_set = set(fault_steps)
    fault_rng = random.Random(derive_seed(seed, "faults"))
    report = ChurnReport(
        scheme=scheme_name, steps=steps, events=len(events), sends=0,
        patched_stats={}, twin_replans=0, delivery_identical=True,
    )
    ratios: list[float] = []

    def compare(stage: str) -> None:
        mismatches = send_and_compare(patched, twin, net, stage)
        report.sends += 2
        if mismatches:
            report.delivery_identical = False
            report.mismatches.extend(mismatches)
        if patched.plan_cost is not None and twin.plan_cost:
            ratios.append(patched.plan_cost / twin.plan_cost)

    compare("initial")
    for step in range(steps):
        if step in fault_set:
            removable = faults.removable_links(net.topo)
            if removable:
                link_id = removable[fault_rng.randrange(len(removable))]
                net.reconfigure(faults.remove_link(net.topo, link_id))
                report.epoch_bumps += 1
        for ev in events_at.get(step, ()):
            if ev.op == "join":
                patched.join(ev.node)
                twin.join(ev.node)
            else:
                patched.leave(ev.node)
                twin.leave(ev.node)
            compare(f"step {step} ({ev.op} {ev.node})")
    report.patched_stats = patched.stats.as_dict()
    report.twin_replans = twin.stats.replans
    report.verify_failures = patched.stats.verify_failures
    if ratios:
        report.max_cost_ratio = max(ratios)
        report.mean_cost_ratio = sum(ratios) / len(ratios)
    if patched_mgr.tables is not None:
        report.table_stats = patched_mgr.tables.stats.as_dict()
    return report
