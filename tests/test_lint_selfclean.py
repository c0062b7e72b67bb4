"""The zero-findings gate: the shipped tree must pass its own linter.

This is the acceptance criterion that moves the paper's invariants from
"hoped for" to "enforced on every PR": any regression that reintroduces a
wall-clock read, unseeded draw, silent except, import cycle, unordered
iteration into a sink, a runner-reachable global write, or a routing /
reachability / plan violation on the shipped topologies fails here.  The
same run proves every committed corpus fault schedule safe at every
routing epoch.
"""

import pathlib

import pytest

from repro.analyze.rules import JUSTIFIED_RULES
from repro.lint import run_lint

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
CORPUS = REPO / "tests" / "fuzz_corpus"


@pytest.fixture(scope="module")
def full_run():
    """The CI ``static`` job's invocation, run once for every gate here."""
    return run_lint(
        [SRC], run_model=True, model_seeds=(1, 2, 3),
        corpus_dirs=[CORPUS],
    )


def test_repo_tree_is_lint_clean(full_run):
    result = full_run
    # Floor proves the whole package, fuzz and analyzers included, is
    # inside the scanned scope.
    assert result.files_scanned > 100
    assert result.contexts_checked == 3
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
    # The corpus schedules were replayed in the same invocation.
    assert result.epochs_verified
    assert result.exit_code == 0
    # The shipped tree needs no suppression; a new one needs a review here.
    assert result.suppressed == 0


def test_code_only_run_is_also_clean():
    result = run_lint([SRC], run_model=False, corpus_dirs=[CORPUS])
    assert result.findings == []
    assert result.contexts_checked == 0
    # Corpus epochs belong to the model phase.
    assert result.epochs_verified == {}


def test_every_corpus_epoch_is_verified(full_run):
    assert not [f for f in full_run.findings if f.rule.startswith("epoch-")]
    # Every committed entry must be proven, and the chaos entries must
    # contribute more than the trivial epoch 0.
    entries = sorted(CORPUS.glob("*.json"))
    assert len(full_run.epochs_verified) == len(entries) > 0
    assert sum(full_run.epochs_verified.values()) > len(entries)
