"""Rendering lint results for humans and for machines (``--json``)."""

from __future__ import annotations

import json

from repro.lint.engine import LintResult
from repro.lint.findings import Severity
from repro.lint.registry import all_rules

META_RULES: dict[str, str] = {
    "parse-error": "every scanned file must parse as python",
    "unjustified-suppression": (
        "every suppression of a whole-program analyzer rule must say *why* "
        "it is safe (append ' -- <reason>' to the disable comment)"
    ),
}
"""Findings the engine emits itself (no registry entry)."""


def render_text(result: LintResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [f.render() for f in result.findings]
    n_err = len(result.errors)
    n_warn = len(result.findings) - n_err
    summary = (
        f"{result.files_scanned} file(s): "
        f"{n_err} error(s), {n_warn} warning(s)"
    )
    if result.suppressed:
        summary += f", {result.suppressed} suppressed"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Stable machine-readable report for CI consumption."""
    payload = {
        "version": 1,
        "files_scanned": result.files_scanned,
        "suppressed": result.suppressed,
        "counts": {
            "error": len(result.errors),
            "warning": sum(
                1 for f in result.findings if f.severity is Severity.WARNING
            ),
        },
        "findings": [f.to_json() for f in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_list() -> str:
    """``--list-rules``: id, kind, scope, and the paper-tied rationale."""
    import repro.analyze.rules  # noqa: F401  (registers the analyzer rules)

    blocks = []
    for rule_id, r in sorted(all_rules().items()):
        scope = "all code" if r.scopes is None else "/".join(sorted(r.scopes))
        blocks.append(
            f"{rule_id} [{r.kind}, {r.severity.value}, scope: {scope}]\n"
            f"  {r.description}\n"
            f"  why: {r.rationale}"
        )
    for rule_id, description in sorted(META_RULES.items()):
        blocks.append(f"{rule_id} [engine, error]\n  {description}")
    return "\n\n".join(blocks)
