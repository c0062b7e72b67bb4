"""Lint engine: orchestrates rules over files, model contexts and corpora.

Importing this module registers every built-in rule (the rule modules
register themselves on import).  :func:`run_lint` is the single entry point
the CLI and the tests share.  One run

1. parses the target files and runs every code and project rule over them,
   the whole-program analyzers (:mod:`repro.analyze.rules`) included;
2. applies ``# lint: disable=`` suppressions with statement anchoring, and
   *requires a justification* (`` -- why``) on every suppression of a
   rule in ``JUSTIFIED_RULES``: a bare one is itself a finding;
3. in the model phase, checks the model rules on generated and saved
   topologies and statically verifies every corpus entry's fault schedule
   with the epoch-sequence verifier.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

# Importing the rule modules populates the registry.  The analyze bridge
# (repro.analyze.rules) also registers whole-program analyzers as lint
# rules, but is imported lazily in run_lint(): it imports this package
# itself, so an eager import here would be circular.
import repro.lint.code_rules  # noqa: F401
import repro.lint.project_rules  # noqa: F401
from repro.lint.findings import Finding, Severity
from repro.lint.registry import CODE_RULES, PROJECT_RULES, rule_applies
from repro.lint.sources import ParsedFile, collect_py_files, parse_file
from repro.lint.suppress import (
    find_suppression,
    parse_suppression_comments,
    statement_anchors,
)


class LintUsageError(Exception):
    """A bad input (e.g. an unloadable topology file), not a lint finding."""


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    contexts_checked: int = 0
    suppressed: int = 0
    epochs_verified: dict[str, int] = field(default_factory=dict)
    """Corpus entry path -> number of routing epochs proven safe."""

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0


def _apply_suppressions(
    files: dict[str, ParsedFile],
    findings: list[Finding],
    justified: frozenset[str],
    result: LintResult,
) -> None:
    """Drop suppressed findings; flag bare suppressions of ``justified``."""
    comments = {
        pf.path: parse_suppression_comments(pf.source)
        for pf in files.values()
    }
    anchors = {
        pf.path: statement_anchors(pf.tree) for pf in files.values()
    }
    unjustified: dict[tuple[str, int], Finding] = {}
    for finding in findings:
        matched = find_suppression(
            comments.get(finding.path, {}), finding.rule, finding.line,
            anchors.get(finding.path),
        )
        if matched is None:
            result.findings.append(finding)
            continue
        result.suppressed += 1
        line, supp = matched
        if finding.rule in justified and supp.justification is None:
            unjustified[(finding.path, line)] = Finding(
                rule="unjustified-suppression",
                severity=Severity.ERROR,
                path=finding.path,
                line=line,
                col=0,
                message=(
                    f"suppression of {finding.rule} has no justification; "
                    "append ' -- <why this is safe>' to the disable comment"
                ),
            )
    result.findings.extend(unjustified.values())


def _verify_corpora(
    corpus_dirs: list[pathlib.Path], result: LintResult
) -> None:
    from repro.analyze.epochs import verify_scenario_epochs
    from repro.fuzz.corpus import corpus_files, load_entry

    for directory in corpus_dirs:
        for path in corpus_files(directory):
            try:
                scenario = load_entry(path)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                result.findings.append(Finding(
                    rule="epoch-corpus-unreadable",
                    severity=Severity.ERROR,
                    path=str(path),
                    line=0,
                    col=0,
                    message=f"cannot load corpus entry: {exc}",
                ))
                continue
            problems = verify_scenario_epochs(scenario)
            for problem in problems:
                result.findings.append(Finding(
                    rule=f"epoch-{problem.kind}",
                    severity=Severity.ERROR,
                    path=str(path),
                    line=0,
                    col=0,
                    message=problem.message(),
                ))
            if not problems:
                result.epochs_verified[str(path)] = (
                    len(scenario.fault_schedule) + 1
                )


def run_lint(
    paths: list[pathlib.Path],
    *,
    run_model: bool = True,
    model_seeds: tuple[int, ...] = (1, 2, 3),
    topology_files: list[pathlib.Path] | None = None,
    corpus_dirs: list[pathlib.Path] | None = None,
) -> LintResult:
    """Run every applicable rule; returns findings sorted by location.

    ``paths`` are files/directories for the code and project rules.  Model
    rules run over irregular topologies generated at ``model_seeds`` under
    the default parameters, plus any explicitly supplied topology JSON
    files; ``corpus_dirs`` hold fuzz/chaos corpus entries whose fault
    schedules the epoch-sequence verifier replays.  Both belong to the
    model phase, which ``run_model=False`` skips.  Model imports stay lazy
    so source-only linting never pulls in the simulator.
    """
    # Registers the whole-program analyzer rules (taint, cell isolation)
    # so one lint invocation runs both passes; see the module docstring for
    # why this import cannot be top-level.
    from repro.analyze.rules import JUSTIFIED_RULES

    result = LintResult()
    files: dict[str, ParsedFile] = {}
    for path in collect_py_files(paths):
        try:
            pf = parse_file(path, roots=paths)
        except SyntaxError as exc:
            result.findings.append(Finding(
                rule="parse-error",
                severity=Severity.ERROR,
                path=str(path),
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}",
            ))
            continue
        files[pf.path] = pf
    result.files_scanned = len(files)

    raw: list[Finding] = []
    for pf in files.values():
        for r in CODE_RULES.values():
            if rule_applies(r, pf.scope):
                raw.extend(r.check(pf.tree, pf.path, pf.scope))
    for r in PROJECT_RULES.values():
        raw.extend(r.check(files))
    _apply_suppressions(files, raw, JUSTIFIED_RULES, result)

    if run_model:
        from repro.lint.model_rules import context_from_topology, default_contexts
        from repro.lint.registry import MODEL_RULES

        contexts = default_contexts(model_seeds) if model_seeds else []
        for tf in topology_files or []:
            from repro.params import SimParams
            from repro.topology.serialization import load_topology

            try:
                topo = load_topology(tf)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise LintUsageError(
                    f"cannot load topology {tf}: {exc}"
                ) from exc
            params = SimParams(
                num_nodes=topo.num_nodes,
                num_switches=topo.num_switches,
                ports_per_switch=topo.ports_per_switch,
            )
            contexts.append(context_from_topology(topo, params, tf.name))
        for ctx in contexts:
            for r in MODEL_RULES.values():
                result.findings.extend(r.check(ctx))
        result.contexts_checked = len(contexts)
        _verify_corpora(corpus_dirs or [], result)

    result.findings.sort(key=Finding.sort_key)
    return result
