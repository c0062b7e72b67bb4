"""Invariant oracles: everything a scenario run must satisfy.

The paper's Figures 6-11 compare three multicast support levels under the
claim that all of them implement the *same* semantics: exactly-once delivery
to every destination over legal up*/down* routes, on any connected irregular
topology.  This module turns that claim into executable checks, run after
every fuzz scenario:

* **delivery** -- the operation completes, every destination's host receives
  the message exactly once, never before the operation started;
* **quiescence** -- no channel, CPU, or NI is still held after the engine
  drains (a leak here is the event-model analogue of a deadlocked worm);
* **hop-legality** -- the *dynamic* replication tree of every worm launched
  (read back through :meth:`repro.sim.worm.Worm.hop_records`) is contiguous,
  ends every branch in a delivery channel, and decomposes into up* then
  down* (reusing :func:`repro.routing.paths.updown_decomposition`);
* **plan-static** -- the path scheme's worm/phase plan passes
  :func:`repro.multicast.pathworm.verify_plan`; the tree scheme's plan
  passes :func:`repro.multicast.treeworm.verify_tree_plan` (a legal up
  path to a turn switch that down-covers the destination set);
* **epoch-static** -- for scenarios with a fault schedule:
  :func:`repro.routing.invariants.verify_epoch_sequence` statically proves
  CDG acyclicity and reachability completeness at every routing epoch the
  schedule reaches, before any dynamic replay is attempted;
* **header** -- the bit-string header round-trips and fits the configured
  packet (:func:`repro.routing.invariants.header_problems`);
* **reachability** -- the reachability table agrees with its orientation's
  witness (:func:`repro.routing.invariants.reachability_problems`, shared
  with the epoch verifier: BFS-subtree coverage, or DFS preorder
  labels, self-reachable attached nodes and a root covering every node);
* **conservation** -- per-channel flit/worm counters equal the sum over
  audited worms that crossed the channel (flits are neither lost nor
  duplicated in flight);
* **lane-conservation** -- virtual-channel bookkeeping balances on every
  channel: lane grants equal lane releases after the run, no lane is still
  owned, and the concurrent-owner high-water mark never exceeded the
  configured ``vc_count``;
* **monotone-time** -- trace timestamps never decrease and the engine clock
  ends at/after the last delivery;
* **scheme-differential** -- every scheme in the roster delivers the same
  destination set for the same (topology, operation) cell;
* **backend-differential** -- the merged static-route tree produces
  identical per-destination tail times on the worm-level event backend and
  the flit-level reference backend (skipped when deterministic unicast
  routes re-converge and no merged tree exists, and for chaos scenarios --
  the flit-level reference has no fault support);
* **chaos** -- for scenarios with a runtime fault schedule
  (:mod:`repro.chaos`): every armed fault is accounted for (fired or
  skipped), no send gives up (exactly-once-after-retry), and a second run
  of the same seed + schedule produces a byte-identical trace digest;
* **churn** -- for scenarios with a membership churn stream
  (:mod:`repro.groups`): a repairing group (path plans graft/prune) and
  a replan-every-change twin are driven through the same join/leave ops,
  and after every op both must deliver exactly the current member set
  (exactly-once under churn), with every accepted patch passing the
  static path-plan verifier;
* **collectives** -- for scenarios with an open-loop collective admission
  schedule (:mod:`repro.workloads`): every scheme drives the identical
  schedule through the workload engine's admission loop, every admitted
  operation must complete by the drain horizon with its kind's exact
  participant accounting (exactly-once delivery under overlapping
  collectives), the network must end quiescent, and channel/lane
  conservation must hold after the drain.

Chaos scenarios change the dynamic checks, not the bar: each scheme is
wrapped in :class:`~repro.chaos.ReliableMulticast`, deliveries are the
first-ack-wins ack set, aborted worms are audited to a relaxed standard
(their partial routes must still be continuous, legal prefixes; their
released channels must carry no traffic), and hop legality is judged
against the routing *epoch* each worm launched under -- pre-fault worms
against the original orientation, post-retry worms against the
reconfigured one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.chaos import FaultInjector, FaultSchedule, ReliableMulticast
from repro.multicast import make_scheme
from repro.multicast.pathworm import plan_path_worms, verify_plan
from repro.multicast.treeworm import verify_tree_plan
from repro.routing.invariants import (
    EpochProblem,
    header_problems,
    reachability_problems,
    verify_epoch_sequence,
)
from repro.routing.paths import updown_decomposition
from repro.routing.reachability import (
    ReachabilityTable,
    decode_mask,
    header_mask,
)
from repro.routing.updown import UpDownRouting
from repro.sim.crossval import (
    multicast_route,
    run_event_scenario,
    run_flit_scenario,
)
from repro.sim.network import SimNetwork
from repro.sim.tracelog import TraceLog
from repro.fuzz.scenario import FuzzScenario, SchemeSpec, spec_label

MAX_EVENTS = 500_000
"""Event budget per scheme run; exceeding it is reported as a runaway."""

ORACLES = (
    "delivery",
    "quiescence",
    "hop-legality",
    "plan-static",
    "epoch-static",
    "header",
    "reachability",
    "conservation",
    "lane-conservation",
    "monotone-time",
    "scheme-differential",
    "backend-differential",
    "chaos",
    "churn",
    "collectives",
)
"""Every oracle name, in report order."""


@dataclass(frozen=True)
class Violation:
    """One broken invariant, attributed to an oracle and a context."""

    oracle: str
    context: str
    """Scheme label (``path(strategy=greedy)``), ``topology``, or
    ``backends`` -- where the violation was observed."""

    message: str

    def render(self) -> str:
        return f"[{self.oracle}] {self.context}: {self.message}"


@dataclass
class ScenarioReport:
    """Outcome of one scenario's full oracle pass."""

    scenario: FuzzScenario
    violations: list[Violation] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    deliveries: dict[str, dict[int, float]] = field(default_factory=dict)
    """Per-scheme-label map of destination -> host delivery time."""

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        """Deterministic multi-line report (byte-stable across runs)."""
        sc = self.scenario
        head = (
            f"scenario {sc.digest()[:12]}"
            f" switches={sc.topo.num_switches} nodes={sc.topo.num_nodes}"
            f" links={len(sc.topo.links)} source={sc.source}"
            f" dests={list(sc.dests)}"
            f" schemes=[{', '.join(spec_label(s) for s in sc.schemes)}]"
        )
        if sc.degraded_links:
            head += f" degraded={list(sc.degraded_links)}"
        if sc.fault_schedule:
            head += f" faults={[lk for _t, lk in sc.fault_schedule]}"
        if sc.churn_ops:
            head += f" churn={[f'{op}:{n}' for op, n in sc.churn_ops]}"
        if sc.collective_ops:
            head += (
                " collectives="
                f"{[f'{k}@{t:g}->r{r}' for t, k, r in sc.collective_ops]}"
            )
        if sc.label:
            head += f" ({sc.label})"
        lines = [head]
        for note in self.skipped:
            lines.append(f"  skipped: {note}")
        if self.ok:
            lines.append("  ok")
        else:
            lines.append(f"  {len(self.violations)} violation(s):")
            for v in self.violations:
                lines.append(f"    {v.render()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Per-scheme dynamic run
# ----------------------------------------------------------------------
def _audit_worm_hops(
    net: SimNetwork, label: str, out: list[Violation]
) -> dict[int, tuple[int, int]]:
    """Check every launched worm's hop tree; return per-channel traffic.

    Returns ``{channel uid: (flits, worms)}`` accumulated over the audited
    worms, which the conservation oracle compares against the fabric's own
    counters.  Each worm is judged against the routing tables of the epoch
    it launched under (a runtime reconfiguration must not retroactively
    outlaw in-flight routes).  Aborted worms get the relaxed standard:
    their partial chains must still be continuous legal prefixes, but need
    not end in a delivery channel, and only hops that committed traffic
    (``hop_counted``) count toward conservation.
    """
    expected: dict[int, tuple[int, int]] = {}
    for w_index, worm in enumerate(net.worm_log or ()):
        rt = net.routing_history[worm.epoch]
        hops = worm.hop_records()
        counted = worm.hop_counted()
        tag = f"worm {w_index} ({worm.label or 'unlabelled'})"
        if not hops:
            out.append(Violation(
                "hop-legality", label, f"{tag} recorded no hops"))
            continue
        children: dict[int, list[int]] = {i: [] for i in range(len(hops))}
        root_idx = None
        for i, (parent, ch) in enumerate(hops):
            if counted[i]:
                flits, worms = expected.get(ch.uid, (0, 0))
                expected[ch.uid] = (flits + worm.length, worms + 1)
            if parent is None:
                if ch.kind != "inject":
                    out.append(Violation(
                        "hop-legality", label,
                        f"{tag} roots at non-injection channel {ch.name}"))
                root_idx = i
            else:
                children[parent].append(i)
                p_ch = hops[parent][1]
                from_sw = ch.from_switch if ch.kind != "inject" else None
                if p_ch.to_switch is None or from_sw != p_ch.to_switch:
                    out.append(Violation(
                        "hop-legality", label,
                        f"{tag} discontinuous: {p_ch.name} -> {ch.name}"))
        if root_idx is None:
            out.append(Violation(
                "hop-legality", label, f"{tag} has no injection root"))
            continue
        # Every leaf must deliver; every root-to-leaf chain must be up*/down*.
        # Aborted worms are cut short, so their leaves may be non-delivery
        # hops -- the chain must still be a legal up*/down* prefix.
        for i, (parent, ch) in enumerate(hops):
            if children[i]:
                continue
            if ch.kind != "deliver":
                if not worm.aborted:
                    out.append(Violation(
                        "hop-legality", label,
                        f"{tag} leaves the worm stranded on {ch.name}"))
                    continue
            chain = []
            j: int | None = i
            while j is not None:
                chain.append(hops[j][1])
                j = hops[j][0]
            chain.reverse()
            links = [c.link for c in chain if c.kind == "forward"]
            start = chain[0].to_switch
            where = (
                f"to node {ch.to_node}" if ch.kind == "deliver"
                else f"ending on {ch.name} (aborted)"
            )
            try:
                updown_decomposition(rt, start, links)
            except ValueError as exc:
                out.append(Violation(
                    "hop-legality", label,
                    f"{tag} illegal route {where}: {exc}"))
    return expected


def _check_conservation(
    net: SimNetwork,
    expected: dict[int, tuple[int, int]],
    label: str,
    out: list[Violation],
) -> None:
    for ch in net.fabric.all_channels():
        flits, worms = expected.get(ch.uid, (0, 0))
        if ch.flits_carried != flits or ch.worms_carried != worms:
            out.append(Violation(
                "conservation", label,
                f"channel {ch.name} carried {ch.flits_carried} flits / "
                f"{ch.worms_carried} worms but audited worms account for "
                f"{flits} flits / {worms} worms"))


def _check_lane_conservation(
    net: SimNetwork, label: str, out: list[Violation]
) -> None:
    """Virtual-channel bookkeeping: grants/releases balance, lanes bounded."""
    vcs = net.params.vc_count
    for ch in net.fabric.all_channels():
        if ch.peak_owned > vcs:
            out.append(Violation(
                "lane-conservation", label,
                f"channel {ch.name} had {ch.peak_owned} concurrent lane "
                f"owners but vc_count is {vcs}"))
        if ch.grants != ch.releases:
            out.append(Violation(
                "lane-conservation", label,
                f"channel {ch.name} granted {ch.grants} lane(s) but "
                f"released {ch.releases}"))
        if ch.owned_lanes:
            out.append(Violation(
                "lane-conservation", label,
                f"channel {ch.name} still owns {ch.owned_lanes} lane(s) "
                "after the run"))


def _execute_scheme(scenario: FuzzScenario, spec: SchemeSpec):
    """One fresh network + one run of the scheme (chaos-wrapped if needed).

    Returns ``(net, deliveries, start_time, complete)`` where deliveries is
    destination -> first host delivery time: the result record's map on a
    fault-free run, the reliable layer's first-ack-wins set under a fault
    schedule.
    """
    net = SimNetwork(scenario.topo, scenario.params)
    net.trace = TraceLog(capacity=1_000_000)
    net.worm_log = []
    scheme = make_scheme(spec[0], **dict(spec[1]))
    if scenario.fault_schedule:
        injector = FaultInjector(
            net, FaultSchedule.from_pairs(list(scenario.fault_schedule))
        )
        injector.arm()
        reliable = ReliableMulticast(net, scheme)
        op = reliable.send(scenario.source, list(scenario.dests))
        net.engine.run(max_events=MAX_EVENTS)
        return net, dict(op.acked), op.start_time, op.complete
    result = scheme.execute(net, scenario.source, list(scenario.dests))
    net.engine.run(max_events=MAX_EVENTS)
    return net, dict(result.delivery_times), result.start_time, result.complete


def run_scheme(
    scenario: FuzzScenario, spec: SchemeSpec
) -> tuple[dict[int, float] | None, list[Violation]]:
    """Execute one scheme on a fresh network and run the dynamic oracles.

    Returns the per-destination host delivery times (``None`` when the run
    crashed before completing) and the violations observed.
    """
    label = spec_label(spec)
    out: list[Violation] = []
    try:
        net, deliveries, start_time, complete = _execute_scheme(
            scenario, spec)
    except (RuntimeError, ValueError, AssertionError, KeyError,
            TypeError) as exc:
        out.append(Violation(
            "delivery", label, f"run crashed: {type(exc).__name__}: {exc}"))
        return None, out

    # delivery: exactly once, never early, all destinations.
    dset = set(scenario.dests)
    got = set(deliveries)
    if missing := sorted(dset - got):
        out.append(Violation(
            "delivery", label, f"destinations never delivered: {missing}"))
    if extra := sorted(got - dset):
        out.append(Violation(
            "delivery", label, f"non-destinations delivered: {extra}"))
    if not complete and not (dset - got):
        out.append(Violation(
            "delivery", label, "all destinations delivered but the result "
            "record never completed"))
    for d in sorted(got & dset):
        when = deliveries[d]
        if not math.isfinite(when) or when < start_time:
            out.append(Violation(
                "delivery", label,
                f"destination {d} delivered at {when!r}, before start "
                f"{start_time!r}"))

    # quiescence: nothing may still hold a channel or processor.
    try:
        net.assert_quiescent()
    except AssertionError as exc:
        out.append(Violation("quiescence", label, str(exc)))

    # monotone-time: traced events in nondecreasing order, clock at the end.
    records = net.trace.records()
    for earlier, later in zip(records, records[1:]):
        if later.time < earlier.time:
            out.append(Violation(
                "monotone-time", label,
                f"trace went backwards: {earlier.event}@{earlier.time} then "
                f"{later.event}@{later.time}"))
            break
    last_delivery = max(deliveries.values(), default=0.0)
    if net.engine.now < last_delivery:
        out.append(Violation(
            "monotone-time", label,
            f"engine stopped at {net.engine.now} before the last delivery "
            f"at {last_delivery}"))

    # hop-legality + conservation over every worm actually launched.
    expected = _audit_worm_hops(net, label, out)
    _check_conservation(net, expected, label, out)
    _check_lane_conservation(net, label, out)

    # plan-static: re-derive and verify the scheme's static plan (against
    # the network's *final* topology and routing, which under a fault
    # schedule is the post-reconfiguration state -- exactly what a retry
    # would plan on).
    if spec[0] == "path":
        strategy = dict(spec[1]).get("strategy", "lg")
        plan = plan_path_worms(
            net, scenario.source, list(scenario.dests), strategy=strategy
        )
        for problem in verify_plan(
            net.topo, net.routing, scenario.source,
            list(scenario.dests), plan,
        ):
            out.append(Violation("plan-static", label, problem))
    elif spec[0] == "tree" and not dict(spec[1]).get("max_header_dests"):
        scheme = make_scheme(spec[0], **dict(spec[1]))
        plan = scheme.plan(net, scenario.source, list(scenario.dests))
        for problem in verify_tree_plan(net, plan, list(scenario.dests)):
            out.append(Violation("plan-static", label, problem))

    # chaos: fault accounting, no give-ups, and seed-replay byte-identity.
    if scenario.fault_schedule:
        armed = len(scenario.fault_schedule)
        accounted = net.chaos.faults_fired + net.chaos.faults_skipped
        if accounted != armed:
            out.append(Violation(
                "chaos", label,
                f"{armed} fault(s) armed but {accounted} accounted for "
                f"({net.chaos.faults_fired} fired, "
                f"{net.chaos.faults_skipped} skipped)"))
        if net.chaos.gave_up:
            out.append(Violation(
                "chaos", label,
                f"{net.chaos.gave_up} send(s) gave up before delivering "
                "to every destination"))
        try:
            net2, _, _, _ = _execute_scheme(scenario, spec)
        except (RuntimeError, ValueError, AssertionError, KeyError,
                TypeError) as exc:
            out.append(Violation(
                "chaos", label,
                f"replay crashed: {type(exc).__name__}: {exc}"))
        else:
            if net2.trace.digest() != net.trace.digest():
                out.append(Violation(
                    "chaos", label,
                    "replay of the same seed + schedule produced a "
                    "different trace digest"))

    return deliveries, out


# ----------------------------------------------------------------------
# Scenario-level checks
# ----------------------------------------------------------------------
def _check_topology(scenario: FuzzScenario, out: list[Violation]) -> None:
    """Reachability- and header-consistency of the system itself."""
    topo = scenario.topo
    orientation = scenario.params.routing_tree
    reach = ReachabilityTable.build(
        UpDownRouting.build(topo, orientation=orientation)
    )
    for problem in reachability_problems(reach, orientation):
        out.append(Violation("reachability", "topology", problem))

    if decode_mask(header_mask(scenario.dests)) != frozenset(scenario.dests):
        out.append(Violation(
            "header", "topology",
            "bit-string header does not round-trip the destination set"))
    if any(name == "tree" for name, _ in scenario.schemes):
        for problem in header_problems(
            topo.num_nodes, scenario.params.packet_flits
        ):
            out.append(Violation("header", "topology", problem))


def _check_backends(scenario: FuzzScenario, report: ScenarioReport) -> None:
    """Static-route differential: event backend vs flit-level reference."""
    topo, params = scenario.topo, scenario.params
    rt = UpDownRouting.build(topo, orientation=params.routing_tree)
    try:
        multicast_route(topo, rt, scenario.source, scenario.dests)
    except ValueError:
        report.skipped.append(
            "backend-differential (deterministic routes re-converge; "
            "no merged tree exists)")
        return
    jobs = [(0, scenario.source, tuple(scenario.dests))]
    event_deliveries = run_event_scenario(topo, params, jobs)
    flit_deliveries = run_flit_scenario(topo, params, jobs)
    if event_deliveries != flit_deliveries:
        keys = sorted(set(event_deliveries) | set(flit_deliveries))
        diff = [
            f"{k}: event={event_deliveries.get(k)} "
            f"flit={flit_deliveries.get(k)}"
            for k in keys
            if event_deliveries.get(k) != flit_deliveries.get(k)
        ]
        report.violations.append(Violation(
            "backend-differential", "backends",
            "delivery maps disagree: " + "; ".join(diff)))


def _check_churn(scenario: FuzzScenario, report: ScenarioReport) -> None:
    """Churn differential: patched group vs replan-every-change twin.

    Runs fault-free on a fresh network per scheme (the chaos injector and
    the churn stream are orthogonal stressors; their interaction is covered
    by the paired-churn harness's ``fault_steps``).  After the initial send
    and after every op, :func:`repro.groups.churn.send_and_compare` must
    find no mismatch (both groups deliver exactly the current member set),
    and every patch the patched group accepted must have passed the static
    verifier (surfaced through its ``verify_failures`` counter).
    """
    from repro.groups import GroupManager
    from repro.groups.churn import send_and_compare

    for spec in scenario.schemes:
        label = spec_label(spec)
        try:
            net = SimNetwork(scenario.topo, scenario.params)
            kw = dict(spec[1])
            patched = GroupManager(net, default_scheme=spec[0]).create(
                scenario.source, list(scenario.dests), repair=True, **kw)
            twin = GroupManager(net, default_scheme=spec[0]).create(
                scenario.source, list(scenario.dests), repair=False, **kw)
            stages = [("initial", None)] + [
                (f"op {i} ({op} {node})", (op, node))
                for i, (op, node) in enumerate(scenario.churn_ops)
            ]
            for stage, change in stages:
                if change is not None:
                    op, node = change
                    for g in (patched, twin):
                        if op == "join":
                            g.join(node)
                        else:
                            g.leave(node)
                for msg in send_and_compare(patched, twin, net, stage):
                    report.violations.append(Violation("churn", label, msg))
            if patched.stats.verify_failures:
                report.violations.append(Violation(
                    "churn", label,
                    f"repair produced {patched.stats.verify_failures} "
                    "illegal patch(es) (caught by the static verifier "
                    "and replanned, but the repair functions promise "
                    "legal-or-None)"))
        except (RuntimeError, ValueError, AssertionError, KeyError,
                TypeError) as exc:
            report.violations.append(Violation(
                "churn", label,
                f"churn run crashed: {type(exc).__name__}: {exc}"))


def _check_collectives(scenario: FuzzScenario, report: ScenarioReport) -> None:
    """Collectives accounting: the open-loop admission loop under oracles.

    Per scheme, a fresh network drives the scenario's admission schedule
    through the workload engine's :func:`repro.workloads.driver
    .drive_admissions` -- the very loop the ``collective-load`` experiment
    uses -- then requires: every admitted op completed by the drain horizon
    (an incomplete collective on a fully drained engine is a hang, the
    collective analogue of a deadlocked worm); each op's per-node
    accounting matches its kind exactly (broadcast and allreduce notify
    every non-root node once, a barrier releases every participant
    including the root); the network ends quiescent; and channel/lane
    conservation holds after the drain (reported under those oracles'
    own names).
    """
    from repro.workloads.arrivals import OpArrival
    from repro.workloads.driver import drive_admissions

    expected_notified = {
        "broadcast": scenario.topo.num_nodes - 1,
        "allreduce": scenario.topo.num_nodes - 1,
        "barrier": scenario.topo.num_nodes,
    }
    schedule = [
        OpArrival(i, t, t, kind, root)
        for i, (t, kind, root) in enumerate(scenario.collective_ops)
    ]
    for spec in scenario.schemes:
        label = f"collectives:{spec_label(spec)}"
        try:
            net = SimNetwork(scenario.topo, scenario.params)
            net.worm_log = []
            records = drive_admissions(
                net, spec[0], schedule, scheme_kw=dict(spec[1])
            )
            net.engine.run(max_events=MAX_EVENTS)
            if net.engine.pending:
                report.violations.append(Violation(
                    "collectives", label,
                    f"engine hit the {MAX_EVENTS}-event budget with "
                    f"{net.engine.pending} event(s) still pending"))
                continue
            for rec in records:
                if not rec.complete:
                    report.violations.append(Violation(
                        "collectives", label,
                        f"op {rec.index} ({rec.kind} root {rec.root}, "
                        f"admitted at {rec.admit_time:g}) never completed "
                        "on a drained engine"))
                    continue
                if rec.complete_time < rec.admit_time:
                    report.violations.append(Violation(
                        "collectives", label,
                        f"op {rec.index} completed at {rec.complete_time!r} "
                        f"before its admission at {rec.admit_time!r}"))
                want = expected_notified[rec.kind]
                if rec.delivered != want:
                    report.violations.append(Violation(
                        "collectives", label,
                        f"op {rec.index} ({rec.kind}) notified "
                        f"{rec.delivered} node(s); its kind requires "
                        f"exactly {want}"))
            try:
                net.assert_quiescent()
            except AssertionError as exc:
                report.violations.append(Violation(
                    "collectives", label, str(exc)))
            expected = _audit_worm_hops(net, label, report.violations)
            _check_conservation(net, expected, label, report.violations)
            _check_lane_conservation(net, label, report.violations)
        except (RuntimeError, ValueError, AssertionError, KeyError,
                TypeError) as exc:
            report.violations.append(Violation(
                "collectives", label,
                f"collectives run crashed: {type(exc).__name__}: {exc}"))


def verify_scenario_epochs(scenario: FuzzScenario) -> list[EpochProblem]:
    """Verify a scenario's fault schedule epoch by epoch.

    Links fail in the order the chaos :class:`FaultInjector` arms them:
    :meth:`FaultSchedule.from_pairs` order, i.e. by fire time with ties
    broken by link id.  Scenarios without a schedule still get their
    epoch-0 proof.
    """
    schedule = FaultSchedule.from_pairs(list(scenario.fault_schedule))
    return verify_epoch_sequence(
        scenario.topo,
        [ev.link_id for ev in schedule.events],
        orientation=scenario.params.routing_tree,
    )


def run_oracles(scenario: FuzzScenario) -> ScenarioReport:
    """Run every oracle on one scenario; the full differential pass."""
    report = ScenarioReport(scenario=scenario)
    _check_topology(scenario, report.violations)

    # epoch-static: before any dynamic replay, statically prove the fault
    # schedule keeps the multicast CDG acyclic and the reachability strings
    # complete at every routing epoch it reaches.  A schedule that is
    # provably unsafe would make the dynamic chaos run's failures
    # uninterpretable, so it is caught here first.
    if scenario.fault_schedule:
        for problem in verify_scenario_epochs(scenario):
            report.violations.append(Violation(
                "epoch-static", "topology", problem.message()))

    for spec in scenario.schemes:
        deliveries, violations = run_scheme(scenario, spec)
        report.violations.extend(violations)
        if deliveries is not None:
            report.deliveries[spec_label(spec)] = deliveries

    if scenario.churn_ops:
        _check_churn(scenario, report)

    if scenario.collective_ops:
        _check_collectives(scenario, report)

    # scheme-differential: identical delivery sets across the roster.
    by_set: dict[tuple[int, ...], list[str]] = {}
    for label in sorted(report.deliveries):
        key = tuple(sorted(report.deliveries[label]))
        by_set.setdefault(key, []).append(label)
    if len(by_set) > 1:
        parts = [
            f"{labels} -> {list(key)}" for key, labels in sorted(by_set.items())
        ]
        report.violations.append(Violation(
            "scheme-differential", "schemes",
            "delivery sets diverge: " + "; ".join(parts)))

    if scenario.compare_backends:
        if scenario.fault_schedule:
            report.skipped.append(
                "backend-differential (fault schedule armed; the "
                "flit-level reference backend has no fault support)")
        else:
            _check_backends(scenario, report)
    return report
