"""Lint-registry bridge: the whole-program analyzers as lint rules.

Importing this module registers four rules into the ``repro-lint``
registry, so they share its rule ids, severities, and suppressions:

* ``identity-in-sim`` (code) -- ``id()`` / ``os.environ`` inside simulation
  scopes;
* ``unordered-into-sink`` (project) -- the determinism taint analysis;
* ``runtime-global-mutation`` (project) -- runner-reachable mutation of
  module-level state;
* ``cross-network-mutation`` (project) -- writes to ``SimNetwork`` /
  ``Engine`` state from outside the sim layer.

The three project rules share one :class:`ProjectIndex` + effects pass per
file set (cached on source content), so registering them adds a single
whole-program walk to a lint run, not three.  The same pass yields the
partition-safety manifest (:func:`manifest_for`).
"""

from __future__ import annotations

import ast

from repro.analyze.effects import EffectSet, infer_effects
from repro.analyze.partition import (
    PartitionReport,
    certify_partition_safety,
    manifest_dict,
)
from repro.analyze.project import ProjectIndex, dotted_name
from repro.analyze.taint import analyze_taint
from repro.lint.findings import Finding, Severity
from repro.lint.registry import SIM_SCOPES, rule
from repro.lint.sources import ParsedFile

JUSTIFIED_RULES = frozenset({
    "identity-in-sim",
    "unordered-into-sink",
    "runtime-global-mutation",
    "cross-network-mutation",
})
"""Rule ids whose suppression requires a justification comment."""

_CACHE: dict[
    tuple, tuple[ProjectIndex, dict[str, EffectSet], PartitionReport]
] = {}


def _analysis_for(
    files: dict[str, ParsedFile],
) -> tuple[ProjectIndex, dict[str, EffectSet], PartitionReport]:
    """One shared index/effects/partition pass per distinct file set."""
    key = tuple(sorted(
        (pf.path, hash(pf.source)) for pf in files.values()
    ))
    hit = _CACHE.get(key)
    if hit is None:
        index = ProjectIndex.build(files)
        effects = infer_effects(index)
        partition = certify_partition_safety(index, effects, SIM_SCOPES)
        hit = (index, effects, partition)
        _CACHE.clear()  # keep exactly the latest file set
        _CACHE[key] = hit
    return hit


def manifest_for(files: dict[str, ParsedFile]) -> dict:
    """Partition-safety manifest of ``files`` (analyze-manifest.json)."""
    _index, _effects, partition = _analysis_for(files)
    return manifest_dict(partition, SIM_SCOPES)


def _sim_modules(index: ProjectIndex) -> list[str]:
    """Modules the determinism rules apply to (sim scopes + fixtures)."""
    return sorted(
        name for name, entry in index.modules.items()
        if entry.scope is None or entry.scope in SIM_SCOPES
    )


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
# unordered-into-sink (project rule)
# ----------------------------------------------------------------------
@rule(
    "unordered-into-sink",
    kind="project",
    description=(
        "unordered-collection iteration order must not flow into event "
        "scheduling, trace records, arbitration heaps, or seed derivation"
    ),
    rationale=(
        "set/frozenset iteration order depends on insertion history and "
        "hash seeds; any flow into Engine.at/.after, TraceLog.emit, "
        "heappush, or derive_seed not laundered through sorted(...) makes "
        "the trace digest a function of memory layout instead of inputs."
    ),
)
def check_unordered_into_sink(files: dict[str, ParsedFile]) -> list[Finding]:
    index, _effects, _partition = _analysis_for(files)
    return [
        Finding(
            rule="unordered-into-sink",
            severity=Severity.ERROR,
            path=flow.path,
            line=flow.line,
            col=flow.col,
            message=flow.message(),
        )
        for flow in analyze_taint(index, modules=_sim_modules(index))
    ]


# ----------------------------------------------------------------------
# partition-safety rules (project)
# ----------------------------------------------------------------------
@rule(
    "runtime-global-mutation",
    kind="project",
    description=(
        "no function reachable from a runner cell may mutate module-level "
        "state (outside the ExecutionContext API)"
    ),
    rationale=(
        "the cell runner executes cells in parallel and promises output "
        "byte-identical at every --jobs count; module globals are "
        "process-shared, so a runner-reachable write is a data race the "
        "moment cells run in threads, and leaks state between cells that "
        "share a worker process."
    ),
)
def check_runtime_global_mutation(
    files: dict[str, ParsedFile],
) -> list[Finding]:
    _index, _effects, partition = _analysis_for(files)
    return [
        Finding(
            rule="runtime-global-mutation",
            severity=Severity.ERROR,
            path=v.path,
            line=v.line,
            col=0,
            message=v.message(),
        )
        for v in partition.violations
        if v.kind == "runtime-global-mutation"
    ]


@rule(
    "cross-network-mutation",
    kind="project",
    description=(
        "only the sim/chaos layers may write SimNetwork or Engine state "
        "they are handed (observer slots trace/worm_log excepted)"
    ),
    rationale=(
        "a SimNetwork belongs to exactly one partition; measurement and "
        "planning code writing it from outside the sim layer is a "
        "cross-partition write that breaks the isolation of parallel cells."
    ),
)
def check_cross_network_mutation(
    files: dict[str, ParsedFile],
) -> list[Finding]:
    _index, _effects, partition = _analysis_for(files)
    return [
        Finding(
            rule="cross-network-mutation",
            severity=Severity.ERROR,
            path=v.path,
            line=v.line,
            col=0,
            message=v.message(),
        )
        for v in partition.violations
        if v.kind == "cross-network-mutation"
    ]
