"""The zero-findings gate: the shipped tree must pass its own linter.

Any regression that reintroduces a wall-clock read, unseeded draw, silent
except, import cycle, id() or os.environ in simulation code, a
runner-reachable global write, or a write to a handed-in network from
outside the sim layer fails here.  The model invariants are not
lint's: tests/test_lint_model_rules.py and tests/test_fuzz_corpus.py check
them.
"""

import pathlib

import pytest

from repro.analyze.rules import JUSTIFIED_RULES
from repro.lint import run_lint

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(scope="module")
def full_run():
    """The CI ``static`` job's invocation, run once for every gate here."""
    return run_lint([SRC])


def test_repo_tree_is_lint_clean(full_run):
    result = full_run
    # Floor proves the whole package, fuzz and analyzers included, is
    # inside the scanned scope.
    assert result.files_scanned > 100
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.findings == [], f"lint regressions:\n{rendered}"
    assert result.exit_code == 0


def test_repo_tree_is_analyze_clean(full_run):
    result = full_run
    analyzer_findings = [
        f.render() for f in result.findings if f.rule in JUSTIFIED_RULES
    ]
    assert analyzer_findings == [], "analyze regressions:\n" + "\n".join(
        analyzer_findings
    )
    assert result.exit_code == 0
    # The shipped tree needs no suppression; a new one needs a review here.
    assert result.suppressed == 0
