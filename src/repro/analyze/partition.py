"""Partition-safety certifier for parallel experiment cells.

The cell runner (:mod:`repro.experiments.runner`) fans independent
simulation cells out over a process pool, each cell building its own
:class:`SimNetwork` + :class:`Engine` pair, and promises output that is
byte-identical at every ``--jobs`` count.  That only holds if the code a
cell executes cannot reach *shared* mutable state: module-level
containers, class variables, or another cell's ``SimNetwork``.

This module classifies every simulation module (``SIM_SCOPES``) into one of
three partition-safety classes and certifies the classification as findings
plus a machine-readable manifest (``analyze-manifest.json``):

``shareable-immutable``
    No module-level mutable objects and no instance-mutating public API
    outside construction.  Instances (and the module itself) can be shared
    read-only across partitions -- topologies, routing tables, params.

``partition-local``
    Holds mutable state, but only *instance* state (or module registries
    frozen after import).  Each partition must own its own instances;
    sharing one across partitions is a race.

``cross-partition-mutating``
    A function reachable from a runner cell writes a module-level mutable
    object at runtime, or writes another component's ``SimNetwork``/
    ``Engine`` state from outside the sim layer.  This is the class the
    certifier *fails* on: such code cannot run in parallel cells without a
    lock or a refactor, so each occurrence must be fixed or carry a justified
    suppression.

Runner-cell reachability starts from the experiment entry points
(:func:`repro.experiments.runner.run_cell` and the traffic measurement
functions it dispatches to) and follows the resolved call graph.  Writes
through the sanctioned coordination API -- the ``ExecutionContext``
contextvar in ``experiments/runner.py`` -- are exempt: that is the one
blessed cross-cell channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analyze.effects import EffectSet, runtime_mutating_methods
from repro.analyze.project import ProjectIndex

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
"""Classes whose instances belong to exactly one partition."""

OBSERVER_SLOTS = {"trace", "worm_log"}
"""SimNetwork attributes documented as caller-assignable observer hooks
(a TraceLog / worm log is attached by the harness that owns the net)."""


def find_roots(index: ProjectIndex) -> list[str]:
    """The runner-cell entry points present in this index."""
    return sorted(
        qual for qual in index.functions
        if any(qual.endswith(suffix) for suffix in ROOT_SUFFIXES)
    )


def _write_allowed(target: str) -> bool:
    return any(target.endswith(sfx) for sfx in ALLOWED_GLOBAL_WRITES)


@dataclass(frozen=True)
class PartitionViolation:
    """One partition-unsafe write by a runner-reachable function."""

    kind: str
    """``runtime-global-mutation`` or ``cross-network-mutation``."""

    function: str
    target: str
    path: str
    line: int
    root: str
    """The runner entry point the function is reachable from."""

    def message(self) -> str:
        if self.kind == "runtime-global-mutation":
            return (
                f"{self.function.split(':')[-1]}() is reachable from "
                f"{self.root.split(':')[-1]}() and mutates module-level "
                f"state {self.target}; parallel cells would race on it -- "
                "move it onto an instance owned by the partition or route "
                "it through ExecutionContext"
            )
        return (
            f"{self.function.split(':')[-1]}() mutates {self.target} on a "
            "parameter from outside the sim layer; only the partition that "
            "owns a SimNetwork/Engine may write it"
        )


@dataclass
class ModuleClassification:
    """Partition-safety classification of one module."""

    module: str
    classification: str
    mutable_globals: list[str] = field(default_factory=list)
    runtime_mutating_classes: dict[str, list[str]] = field(
        default_factory=dict)
    """Class name -> public mutating entry points."""

    reachable_global_writers: list[str] = field(default_factory=list)
    """Functions (anywhere) reachable from a runner cell that write this
    module's globals -- what forces ``cross-partition-mutating``."""

    def to_json(self) -> dict:
        return {
            "classification": self.classification,
            "mutable_globals": sorted(self.mutable_globals),
            "runtime_mutating_classes": {
                cls: sorted(methods)
                for cls, methods in sorted(
                    self.runtime_mutating_classes.items())
            },
            "reachable_global_writers": sorted(
                self.reachable_global_writers),
        }


@dataclass
class PartitionReport:
    """Violations + per-module classification."""

    roots: list[str]
    violations: list[PartitionViolation]
    modules: dict[str, ModuleClassification]


def certify_partition_safety(
    index: ProjectIndex,
    effects: dict[str, EffectSet],
    scopes: frozenset[str] | set[str],
) -> PartitionReport:
    """Classify every module whose scope is in ``scopes``; collect violations.

    Violations are charged to the function whose *direct* effects perform
    the write (transitive callers would all repeat the same finding at a
    less actionable location).
    """
    roots = find_roots(index)
    reachable = index.reachable_from(roots)

    violations: list[PartitionViolation] = []
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
            if _write_allowed(target):
                continue
            violations.append(PartitionViolation(
                kind="runtime-global-mutation",
                function=qual,
                target=target,
                path=fn.path,
                line=shared[target],
                root=reachable[qual],
            ))

    # Cross-network mutation: attribute stores on SimNetwork/Engine-typed
    # parameters outside the layers that own that state (sim + chaos, whose
    # whole job is reconfiguring the network it is handed).
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
            violations.append(PartitionViolation(
                kind="cross-network-mutation",
                function=qual,
                target=target,
                path=fn.path,
                line=eff.param_writes[target],
                root=reachable.get(qual, "<unreachable>"),
            ))

    mutating_classes = runtime_mutating_methods(index, effects)
    modules: dict[str, ModuleClassification] = {}
    for mod_name in sorted(index.modules):
        entry = index.modules[mod_name]
        if entry.scope not in scopes:
            continue
        mutable_globals = sorted(
            g.name for g in entry.globals_.values()
            # Dunder metadata (__all__ and friends) is a frozen declaration,
            # not shared state -- it never pushes a module out of the
            # shareable class.
            if g.mutable and not g.name.startswith("__")
        )
        cls_methods = {
            cls_qual.split(":")[-1]: sorted(methods)
            for cls_qual, methods in mutating_classes.items()
            if cls_qual.startswith(f"{mod_name}:")
        }
        writers = sorted({
            v.function for v in violations
            if v.kind == "runtime-global-mutation"
            and v.target.startswith(f"{mod_name}:")
        })
        if writers:
            classification = "cross-partition-mutating"
        elif mutable_globals or cls_methods:
            classification = "partition-local"
        else:
            classification = "shareable-immutable"
        modules[mod_name] = ModuleClassification(
            module=mod_name,
            classification=classification,
            mutable_globals=mutable_globals,
            runtime_mutating_classes=cls_methods,
            reachable_global_writers=writers,
        )

    return PartitionReport(
        roots=roots,
        violations=violations,
        modules=modules,
    )


def manifest_dict(report: PartitionReport, scopes: frozenset[str] | set[str]) -> dict:
    """The committed ``analyze-manifest.json`` payload.

    Keys are sorted and values canonical so regeneration is byte-stable;
    CI diffs this against the committed file.
    """
    return {
        "format": 1,
        "scopes": sorted(scopes),
        "roots": [r for r in report.roots],
        "modules": {
            name: mc.to_json()
            for name, mc in sorted(report.modules.items())
        },
    }
