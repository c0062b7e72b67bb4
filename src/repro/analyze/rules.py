"""Lint-registry bridge: the whole-program analyzers as lint rules.

Importing this module registers three rules into the ``repro-lint``
registry, so they share its rule ids, severities, and suppressions:

* ``identity-in-sim`` (code) -- ``id()`` / ``os.environ`` inside simulation
  scopes;
* ``runtime-global-mutation`` (project) -- runner-reachable mutation of
  module-level state;
* ``cross-network-mutation`` (project) -- writes to ``SimNetwork`` /
  ``Engine`` state from outside the sim layer.

The two project rules share one :class:`ProjectIndex` + effects pass per
file set (cached on source content), so registering them adds a single
whole-program walk to a lint run, not two.  Each rule catches a planted
bug no dynamic CI check catches (the kill table in DESIGN.md §7).

The last two rules guard cell isolation.  The cell runner
(:mod:`repro.experiments.runner`) fans independent simulation cells over a
process pool, each cell building its own :class:`SimNetwork` +
:class:`Engine` pair, and promises output byte-identical at every
``--jobs`` count.  That holds only while the code a cell executes reaches
no state another cell can see: module-level objects, class variables, or
a network it does not own.
"""

from __future__ import annotations

import ast

from repro.analyze.effects import EffectSet, infer_effects
from repro.analyze.project import ProjectIndex, dotted_name
from repro.lint.findings import Finding, Severity
from repro.lint.registry import SIM_SCOPES, rule
from repro.lint.sources import ParsedFile

JUSTIFIED_RULES = frozenset({
    "identity-in-sim",
    "runtime-global-mutation",
    "cross-network-mutation",
})
"""Rule ids whose suppression requires a justification comment."""

ROOT_SUFFIXES = (
    "experiments.runner:run_cell",
    "traffic.single:average_single_multicast_latency",
    "traffic.load:run_load_experiment",
    "traffic.load:sweep_load",
    "traffic.background:multicast_under_background",
)
"""Call-graph roots that define "runner-cell-reachable".  Matched by
suffix so planted-violation fixture trees (whose modules are rooted at a
tmp dir, not at ``repro``) resolve the same way."""

ALLOWED_GLOBAL_WRITES = (
    "experiments.runner:_CONTEXT",
)
"""Sanctioned module-level writes: the ExecutionContext contextvar is the
one blessed cross-cell coordination channel."""

SIM_STATE_CLASSES = ("SimNetwork", "Engine")
"""Classes whose instances belong to exactly one cell."""

OBSERVER_SLOTS = {"trace", "worm_log"}
"""SimNetwork attributes documented as caller-assignable observer hooks
(a TraceLog / worm log is attached by the harness that owns the net)."""

_CACHE: dict[tuple, tuple[ProjectIndex, dict[str, EffectSet]]] = {}


def _analysis_for(
    files: dict[str, ParsedFile],
) -> tuple[ProjectIndex, dict[str, EffectSet]]:
    """One shared index/effects pass per distinct file set."""
    key = tuple(sorted(
        (pf.path, hash(pf.source)) for pf in files.values()
    ))
    hit = _CACHE.get(key)
    if hit is None:
        index = ProjectIndex.build(files)
        hit = (index, infer_effects(index))
        _CACHE.clear()  # keep exactly the latest file set
        _CACHE[key] = hit
    return hit


# ----------------------------------------------------------------------
# identity-in-sim (code rule)
# ----------------------------------------------------------------------
@rule(
    "identity-in-sim",
    kind="code",
    description=(
        "no id() or os.environ inside simulation scopes: object identity "
        "and environment state are not functions of the inputs"
    ),
    rationale=(
        "id() values are allocator addresses -- reused after GC and "
        "different across runs -- and os.environ varies by machine; either "
        "one reaching an event key, cache key, or seed breaks the "
        "byte-identical-trace contract (DESIGN.md §6)."
    ),
    scopes=SIM_SCOPES,
)
def check_identity_in_sim(
    tree: ast.Module, path: str, scope: str | None
) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(tree):
        message = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "id":
            message = (
                "id() is an allocator address: reused after GC within a "
                "run and unstable across runs; key on stable fields (link "
                "ids, node ids, routing_epoch) or a weak-keyed mapping"
            )
        elif isinstance(node, ast.Attribute) and node.attr == "environ" \
                and dotted_name(node) == "os.environ":
            message = (
                "os.environ read in simulation logic: results would vary "
                "by machine; thread configuration in through SimParams or "
                "the experiment profile"
            )
        if message is not None:
            findings.append(Finding(
                rule="identity-in-sim",
                severity=Severity.ERROR,
                path=path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            ))
    return findings


# ----------------------------------------------------------------------
# cell-isolation rules (project)
# ----------------------------------------------------------------------
@rule(
    "runtime-global-mutation",
    kind="project",
    description=(
        "no function reachable from a runner cell may mutate module-level "
        "state (outside the ExecutionContext API)"
    ),
    rationale=(
        "the cell runner fans cells over a process pool and promises "
        "output byte-identical at every --jobs count; cells never run in "
        "threads, but a worker process runs many cells in turn, so a "
        "runner-reachable write to a module global or class variable leaks "
        "state from one cell into the next cell of the same worker."
    ),
)
def check_runtime_global_mutation(
    files: dict[str, ParsedFile],
) -> list[Finding]:
    """Charged to the function whose *direct* effects perform the write
    (its callers would all repeat the finding at a less actionable line)."""
    index, effects = _analysis_for(files)
    roots = sorted(
        qual for qual in index.functions
        if any(qual.endswith(suffix) for suffix in ROOT_SUFFIXES)
    )
    reachable = index.reachable_from(roots)
    findings: list[Finding] = []
    for qual in sorted(reachable):
        # reachable_from can surface class quals (constructor calls on
        # classes without an __init__, e.g. dataclasses); only functions
        # have effects.
        fn = index.functions.get(qual)
        eff = effects.get(qual)
        if fn is None or eff is None:
            continue
        shared = dict(eff.global_writes)
        shared.update(eff.class_writes)
        for target in sorted(shared):
            if any(target.endswith(sfx) for sfx in ALLOWED_GLOBAL_WRITES):
                continue
            findings.append(Finding(
                rule="runtime-global-mutation",
                severity=Severity.ERROR,
                path=fn.path,
                line=shared[target],
                col=0,
                message=(
                    f"{qual.split(':')[-1]}() is reachable from "
                    f"{reachable[qual].split(':')[-1]}() and mutates "
                    f"module-level state {target}; the next cell in the "
                    "same worker process would see the write -- move it "
                    "onto an instance the cell owns or route it through "
                    "ExecutionContext"
                ),
            ))
    return findings


@rule(
    "cross-network-mutation",
    kind="project",
    description=(
        "only the sim/chaos layers may write SimNetwork or Engine state "
        "they are handed (observer slots trace/worm_log excepted)"
    ),
    rationale=(
        "a SimNetwork belongs to the one cell that built it, and its state "
        "is the sim layer's to change (chaos reconfigures the network it "
        "is handed); measurement and planning code writing it from outside "
        "breaks the isolation each cell's byte-identical output rests on."
    ),
)
def check_cross_network_mutation(
    files: dict[str, ParsedFile],
) -> list[Finding]:
    """Attribute stores on SimNetwork/Engine-typed parameters outside the
    sim and chaos scopes."""
    index, effects = _analysis_for(files)
    findings: list[Finding] = []
    for qual in sorted(index.functions):
        fn = index.functions[qual]
        entry = index.modules.get(fn.module)
        if entry is not None and entry.scope in ("sim", "chaos"):
            continue
        eff = effects.get(qual)
        if eff is None:
            continue
        for target in sorted(eff.param_writes):
            cls_qual, _, attr = target.rpartition(".")
            if cls_qual.split(":")[-1] not in SIM_STATE_CLASSES:
                continue
            if attr in OBSERVER_SLOTS:
                continue
            findings.append(Finding(
                rule="cross-network-mutation",
                severity=Severity.ERROR,
                path=fn.path,
                line=eff.param_writes[target],
                col=0,
                message=(
                    f"{qual.split(':')[-1]}() mutates {target} on a "
                    "parameter from outside the sim layer; only the sim "
                    "and chaos layers may write a SimNetwork/Engine"
                ),
            ))
    return findings
