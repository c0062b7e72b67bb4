"""Per-line lint suppressions: ``# lint: disable=<rule>[,<rule>] [-- why]``.

A finding is suppressed when a disable comment naming its rule id (or
``all``) sits on the line the finding anchors to **or** on the first
physical line of the statement containing that line.  The second form is
what makes multi-line statements suppressible: a rule may anchor its
finding to the inner line holding the offending expression, while the
natural home for the comment is the statement's opening line.

Suppressions stay statement-scoped -- a file- or block-scoped escape hatch
would make it too easy to turn a rule off wholesale and lose the invariant
it guards.

An optional justification follows the rule list after `` -- ``::

    full_key = (id(net), epoch, key)  # lint: disable=identity-in-sim -- key dies with net

The whole-program analyzer rules (``JUSTIFIED_RULES`` in
:mod:`repro.analyze.rules`) *require* the justification; the engine reports
a bare suppression of one of them as ``unjustified-suppression``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

_DISABLE_RE = re.compile(r"#\s*lint:\s*disable=(.*)$")


@dataclass(frozen=True)
class Suppression:
    """One disable comment: the rules it silences and its justification."""

    rules: frozenset[str]
    justification: str | None


def _parse_payload(payload: str) -> Suppression | None:
    head, sep, why = payload.partition(" -- ")
    rules = frozenset(r.strip() for r in head.split(",") if r.strip())
    if not rules:
        return None
    return Suppression(
        rules=rules,
        justification=why.strip() if sep and why.strip() else None,
    )


def parse_suppression_comments(source: str) -> dict[int, Suppression]:
    """Map 1-based line numbers to the full suppression on that line."""
    out: dict[int, Suppression] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _DISABLE_RE.search(line)
        if m:
            supp = _parse_payload(m.group(1))
            if supp is not None:
                out[lineno] = supp
    return out


def statement_anchors(tree: ast.Module) -> dict[int, int]:
    """Map every physical line to the first line of its innermost statement.

    "Innermost" is the covering statement with the greatest first line, so a
    line inside a function body maps to its own statement, not to the whole
    ``def``.
    """
    anchors: dict[int, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        for line in range(node.lineno, end + 1):
            prev = anchors.get(line)
            if prev is None or node.lineno > prev:
                anchors[line] = node.lineno
    return anchors


def find_suppression(
    comments: dict[int, Suppression],
    rule_id: str,
    line: int,
    anchors: dict[int, int] | None = None,
) -> tuple[int, Suppression] | None:
    """The disable comment silencing ``rule_id`` at ``line``, with its line.

    With ``anchors`` (from :func:`statement_anchors`), a disable comment on
    the first line of the statement containing ``line`` also counts.
    Returns None when nothing suppresses the finding.
    """
    candidates = [line]
    if anchors is not None:
        first = anchors.get(line)
        if first is not None and first != line:
            candidates.append(first)
    for cand in candidates:
        supp = comments.get(cand)
        if supp is not None and (rule_id in supp.rules or "all" in supp.rules):
            return cand, supp
    return None
