"""The zero-findings gate: the shipped tree must pass its own linter.

This is the acceptance criterion that moves the paper's invariants from
"hoped for" to "enforced on every PR": any regression that reintroduces a
wall-clock read, unseeded draw, silent except, import cycle, unordered
iteration into a sink, a runner-reachable global write, or a routing /
reachability / plan violation on the shipped topologies fails here.  The
same run pins the committed partition-safety manifest byte for byte and
proves every committed corpus fault schedule safe at every routing epoch.
"""

import pathlib

import pytest

from repro.analyze.rules import JUSTIFIED_RULES
from repro.lint import run_lint
from repro.lint.engine import render_manifest
from repro.lint.registry import SIM_SCOPES

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
MANIFEST = REPO / "analyze-manifest.json"
CORPUS = REPO / "tests" / "fuzz_corpus"


@pytest.fixture(scope="module")
def full_run():
    """The CI ``static`` job's invocation, run once for every gate here."""
    return run_lint(
        [SRC], run_model=True, model_seeds=(1, 2, 3),
        corpus_dirs=[CORPUS], manifest_path=MANIFEST,
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
    # The whole-program pass ran in the same invocation: the manifest was
    # built and the corpus schedules were replayed.
    assert result.manifest["modules"]
    assert result.epochs_verified
    assert result.exit_code == 0
    # The identity-in-sim suppressions in sim/worm.py carry justifications
    # and are the only expected ones; a new suppression needs a review here.
    assert result.suppressed == 3


def test_code_only_run_is_also_clean():
    result = run_lint([SRC], run_model=False, corpus_dirs=[CORPUS])
    assert result.findings == []
    assert result.contexts_checked == 0
    # Corpus epochs belong to the model phase.
    assert result.epochs_verified == {}


def test_manifest_matches_fresh_regeneration(full_run):
    assert MANIFEST.exists(), "analyze-manifest.json must be committed"
    committed = MANIFEST.read_text(encoding="utf-8")
    assert committed == render_manifest(full_run.manifest), (
        "committed manifest is stale; regenerate with "
        "repro-lint src/repro --manifest analyze-manifest.json "
        "--write-manifest"
    )


def test_manifest_classifies_every_sim_scope_module(full_run):
    modules = full_run.manifest["modules"]
    scoped = {
        name for name in modules
        if name.split(".")[1] in SIM_SCOPES
    }
    assert set(modules) == scoped and modules, "non-sim modules leaked in"
    for scope in SIM_SCOPES:
        assert any(name.split(".")[1] == scope for name in modules), (
            f"scope {scope} has no classified module"
        )
    valid = {"shareable-immutable", "partition-local",
             "cross-partition-mutating"}
    for name, entry in modules.items():
        assert entry["classification"] in valid, name
    # Spot anchors: the engine is per-partition state, routing tables are
    # read-shared, and nothing in the shipped tree mutates cross-partition.
    assert modules["repro.sim.engine"]["classification"] == "partition-local"
    assert modules["repro.routing.updown"]["classification"] == \
        "shareable-immutable"
    assert not any(
        e["classification"] == "cross-partition-mutating"
        for e in modules.values()
    )


def test_every_corpus_epoch_is_verified(full_run):
    assert not [f for f in full_run.findings if f.rule.startswith("epoch-")]
    # Every committed entry must be proven, and the chaos entries must
    # contribute more than the trivial epoch 0.
    entries = sorted(CORPUS.glob("*.json"))
    assert len(full_run.epochs_verified) == len(entries) > 0
    assert sum(full_run.epochs_verified.values()) > len(entries)
