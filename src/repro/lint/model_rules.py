"""Model rules: static verification of a topology + routing instance.

Where the code rules guard *how the simulator is written*, these guard
*what it simulates*: the structural invariants the paper's correctness
argument rests on.  Each rule receives a :class:`ModelContext` (topology,
up*/down* routing, reachability table, parameters) and returns findings
anchored to a synthetic ``<model:LABEL>`` path.  The CDG, reachability
and header rules wrap the shared checkers of :mod:`repro.routing.invariants`.

The rules, and the claim in the paper each one makes checkable:

* ``multicast-cdg-cycle`` -- "the directed links do not form loops": the
  channel dependency graph, *extended* with tree-worm replication branch
  sets and path-worm forking (all legal continuations, ordered branch
  acquisition), is acyclic.
* ``cdg-negative-control`` -- the checker itself detects the deadlock that
  unrestricted minimal routing seeds on cyclic topologies (a silent
  always-pass checker is worse than none).
* ``reachability-superset`` -- every down port's reachability bit string
  covers at least the BFS-tree descendants behind it (Section 3.2.3), or,
  under DFS orientation, agrees with the preorder labels.
* ``path-plan-legality`` -- every MDP-LG plan decomposes into legal
  up*-prefix/down*-suffix worms covering each destination exactly once
  (Sections 3.2.4, 4.2.3).
* ``header-capacity`` -- the tree scheme's N-bit destination header fits
  the packet the parameters describe (Section 3.3's hardware-cost concern).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.lint.findings import Finding, Severity
from repro.lint.registry import rule
from repro.params import SimParams
from repro.routing.deadlock import build_unrestricted_cdg, find_cycle
from repro.routing.invariants import (
    cdg_problems,
    header_problems,
    reachability_problems,
)
from repro.routing.reachability import ReachabilityTable
from repro.routing.updown import UpDownRouting
from repro.topology.graph import NetworkTopology


@dataclass(frozen=True)
class ModelContext:
    """One loaded system instance for the model rules to verify."""

    label: str
    params: SimParams
    topo: NetworkTopology
    routing: UpDownRouting
    reach: ReachabilityTable

    @property
    def path(self) -> str:
        return f"<model:{self.label}>"


class _PlanView:
    """The (topo, routing) slice of SimNetwork that planners consult --
    enough to plan multicasts without building engine/fabric/hosts."""

    def __init__(self, ctx: ModelContext) -> None:
        self.topo = ctx.topo
        self.routing = ctx.routing


def context_from_topology(
    topo: NetworkTopology, params: SimParams, label: str
) -> ModelContext:
    """Build routing + reachability for a topology and wrap as a context."""
    routing = UpDownRouting.build(topo, orientation=params.routing_tree)
    return ModelContext(
        label=label,
        params=params,
        topo=topo,
        routing=routing,
        reach=ReachabilityTable.build(routing),
    )


def default_contexts(seeds: tuple[int, ...] = (1, 2, 3)) -> list[ModelContext]:
    """The shipped default: the paper's 32-node system at several seeds."""
    from repro.topology.irregular import generate_irregular_topology

    params = SimParams()
    return [
        context_from_topology(
            generate_irregular_topology(params, seed=s), params, f"seed{s}"
        )
        for s in seeds
    ]


def _model_finding(ctx: ModelContext, rule_id: str, message: str) -> Finding:
    return Finding(
        rule=rule_id,
        severity=Severity.ERROR,
        path=ctx.path,
        line=0,
        col=0,
        message=message,
    )


# ----------------------------------------------------------------------
# Extended CDG acyclicity
# ----------------------------------------------------------------------
@rule(
    "multicast-cdg-cycle",
    kind="model",
    description=(
        "the channel dependency graph extended with multicast replication "
        "and forking dependencies must be acyclic"
    ),
    rationale=(
        "Up*/down* unicast deadlock freedom does not automatically extend "
        "to worms that hold several branch channels at once; this check "
        "covers the replication dependencies tree and path worms add."
    ),
)
def check_multicast_cdg(ctx: ModelContext) -> list[Finding]:
    return [
        _model_finding(ctx, "multicast-cdg-cycle", problem)
        for problem in cdg_problems(ctx.topo, ctx.routing)
    ]


@rule(
    "cdg-negative-control",
    kind="model",
    description=(
        "the cycle detector must flag unrestricted minimal routing on "
        "cyclic topologies (checker self-test)"
    ),
    rationale=(
        "A deadlock checker that cannot reproduce the known-bad case "
        "proves nothing when it passes; the unrestricted relation is the "
        "deadlock the up*/down* rule exists to prevent."
    ),
)
def check_cdg_negative_control(ctx: ModelContext) -> list[Finding]:
    spanning_edges = ctx.topo.num_switches - 1
    if len(ctx.topo.links) <= spanning_edges:
        return []  # tree topology: no cycle to seed, control does not apply
    if find_cycle(build_unrestricted_cdg(ctx.topo)) is not None:
        return []
    return [_model_finding(
        ctx, "cdg-negative-control",
        "cycle detector failed to flag unrestricted minimal routing on a "
        "cyclic topology -- the deadlock check is not actually checking",
    )]


# ----------------------------------------------------------------------
# Reachability strings vs. the orientation's witness
# ----------------------------------------------------------------------
@rule(
    "reachability-superset",
    kind="model",
    description=(
        "reachability strings must agree with the orientation's witness: "
        "BFS-tree descendants, or DFS preorder labels"
    ),
    rationale=(
        "The tree scheme replicates a worm only onto down ports whose "
        "reachability string intersects the header; a string missing a "
        "descendant silently drops that destination (Section 3.2.3)."
    ),
)
def check_reachability_superset(ctx: ModelContext) -> list[Finding]:
    return [
        _model_finding(ctx, "reachability-superset", problem)
        for problem in reachability_problems(
            ctx.reach, ctx.params.routing_tree
        )
    ]


# ----------------------------------------------------------------------
# Path-worm plan legality
# ----------------------------------------------------------------------
@rule(
    "path-plan-legality",
    kind="model",
    description=(
        "MDP-LG multicast plans must decompose into legal up*/down* worms "
        "covering each destination exactly once"
    ),
    rationale=(
        "A path worm that goes up after down, or a phase schedule that "
        "skips or duplicates a destination, voids both the deadlock "
        "argument and the latency comparison of Figures 6-11."
    ),
)
def check_path_plan_legality(ctx: ModelContext) -> list[Finding]:
    from repro.multicast.pathworm import plan_path_worms, verify_plan

    findings: list[Finding] = []
    view = _PlanView(ctx)
    rng = random.Random(0xC0FFEE)
    n = ctx.topo.num_nodes
    sizes = [k for k in (4, 8, n // 2) if 0 < k < n]
    for source in (0, n // 2):
        for k in sizes:
            dests = rng.sample([d for d in range(n) if d != source], k)
            for strategy in ("lg", "greedy"):
                plan = plan_path_worms(view, source, dests, strategy=strategy)
                for problem in verify_plan(
                    ctx.topo, ctx.routing, source, dests, plan
                ):
                    findings.append(_model_finding(
                        ctx, "path-plan-legality",
                        f"plan(src={source}, |D|={k}, {strategy}): {problem}",
                    ))
    return findings


# ----------------------------------------------------------------------
# Header capacity
# ----------------------------------------------------------------------
@rule(
    "header-capacity",
    kind="model",
    description=(
        "the tree scheme's bit-string destination header must fit the "
        "configured packet"
    ),
    rationale=(
        "Section 3.3: the bit-string header carries one bit per node plus "
        "a source id; with 1-byte flits it must leave at least one payload "
        "flit in the packet, or the encoding the scheme assumes cannot "
        "exist in hardware."
    ),
)
def check_header_capacity(ctx: ModelContext) -> list[Finding]:
    return [
        _model_finding(ctx, "header-capacity", problem)
        for problem in header_problems(
            ctx.params.num_nodes, ctx.params.packet_flits
        )
    ]
