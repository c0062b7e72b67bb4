"""Lint engine: orchestrates rules over source files.

Importing this module registers every built-in rule (the rule modules
register themselves on import).  :func:`run_lint` is the single entry point
the CLI and the tests share.  One run

1. parses the target files and runs every code and project rule over them,
   the whole-program analyzers (:mod:`repro.analyze.rules`) included;
2. applies ``# lint: disable=`` suppressions with statement anchoring, and
   *requires a justification* (`` -- why``) on every suppression of a
   rule in ``JUSTIFIED_RULES``: a bare one is itself a finding.
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


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0

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


def run_lint(paths: list[pathlib.Path]) -> LintResult:
    """Run every applicable rule over the files/directories in ``paths``;
    returns findings sorted by location."""
    # Registers the whole-program analyzer rules (cell isolation)
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

    result.findings.sort(key=Finding.sort_key)
    return result
