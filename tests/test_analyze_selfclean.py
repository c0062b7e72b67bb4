"""The analyze gate: the shipped tree must pass its own whole-program pass.

Three acceptance criteria live here: ``repro-analyze`` exits 0 on the tree
with zero unsuppressed findings, the committed partition-safety manifest is
byte-identical to a fresh regeneration and classifies every SIM_SCOPES
module, and every committed corpus entry's fault schedule is statically
proven safe at every routing epoch.
"""

import pathlib

from repro.analyze import run_analysis
from repro.analyze.engine import render_manifest
from repro.lint.registry import SIM_SCOPES

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
MANIFEST = REPO / "analyze-manifest.json"
CORPUS = REPO / "tests" / "fuzz_corpus"


def test_repo_tree_is_analyze_clean():
    result = run_analysis(
        [SRC], corpus_dirs=[CORPUS], manifest_path=MANIFEST
    )
    assert result.files_scanned > 100
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.findings == [], f"analyze regressions:\n{rendered}"
    assert result.exit_code == 0
    # The id() suppressions in sim/worm.py carry justifications and are
    # the only expected ones; a new suppression needs a review here.
    assert result.suppressed == 3


def test_manifest_matches_fresh_regeneration():
    result = run_analysis([SRC])
    assert MANIFEST.exists(), "analyze-manifest.json must be committed"
    committed = MANIFEST.read_text(encoding="utf-8")
    assert committed == render_manifest(result.manifest), (
        "committed manifest is stale; regenerate with "
        "repro-analyze --write-manifest"
    )


def test_manifest_classifies_every_sim_scope_module():
    result = run_analysis([SRC])
    modules = result.manifest["modules"]
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


def test_every_corpus_epoch_is_verified():
    result = run_analysis([SRC], corpus_dirs=[CORPUS])
    assert not [f for f in result.findings if f.rule.startswith("epoch-")]
    # Every committed entry must be proven, and the chaos entries must
    # contribute more than the trivial epoch 0.
    entries = sorted(CORPUS.glob("*.json"))
    assert len(result.epochs_verified) == len(entries) > 0
    assert sum(result.epochs_verified.values()) > len(entries)
