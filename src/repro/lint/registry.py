"""Rule registry: every lint rule declares itself here.

Two rule kinds exist, distinguished by what they inspect:

* ``code`` rules visit one file's AST at a time (the determinism rules);
* ``project`` rules see every scanned file at once (import cycles and the
  whole-program analyzers).

Registration happens at import time of the rule modules; the engine imports
them and iterates the registry, so adding a rule is one decorated function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.lint.findings import Severity

SIM_SCOPES = frozenset(
    {"sim", "routing", "multicast", "traffic", "fuzz", "chaos", "groups",
     "workloads"}
)
"""Sub-packages of ``repro`` that constitute simulation logic: the scope of
the determinism-critical rules (seeded randomness, no wall clock, no float
timestamp equality)."""


@dataclass(frozen=True)
class Rule:
    """Metadata + implementation of one lint rule."""

    rule_id: str
    kind: str
    """``code`` | ``project``."""

    severity: Severity
    description: str
    rationale: str
    """Why the rule exists, tied to the paper's invariants."""

    scopes: frozenset[str] | None
    """Sub-packages the rule applies to (None = everywhere).  A file whose
    scope cannot be determined (e.g. a loose fixture file) gets every rule."""

    check: Callable
    """code: (tree, path, scope) -> list[Finding];
    project: (files: dict[str, ParsedFile]) -> list[Finding]."""


CODE_RULES: dict[str, Rule] = {}
PROJECT_RULES: dict[str, Rule] = {}

_KIND_TABLE = {"code": CODE_RULES, "project": PROJECT_RULES}


def rule(
    rule_id: str,
    kind: str,
    description: str,
    rationale: str,
    severity: Severity = Severity.ERROR,
    scopes: frozenset[str] | None = None,
) -> Callable:
    """Decorator registering a check function as a lint rule."""
    table = _KIND_TABLE[kind]

    def wrap(fn: Callable) -> Callable:
        if rule_id in all_rules():
            raise ValueError(f"duplicate rule id {rule_id!r}")
        table[rule_id] = Rule(
            rule_id=rule_id,
            kind=kind,
            severity=severity,
            description=description,
            rationale=rationale,
            scopes=scopes,
            check=fn,
        )
        return fn

    return wrap


def all_rules() -> dict[str, Rule]:
    """Every registered rule by id (rule modules must be imported first)."""
    out: dict[str, Rule] = {}
    for table in _KIND_TABLE.values():
        out.update(table)
    return out


def rule_applies(r: Rule, scope: str | None) -> bool:
    """Scope filter: unknown scopes get every rule (fixtures, loose files)."""
    return r.scopes is None or scope is None or scope in r.scopes
