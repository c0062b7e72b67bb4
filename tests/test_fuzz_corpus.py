"""Tier-1 replay of the committed fuzz regression corpus.

Every entry under ``tests/fuzz_corpus/`` is a minimized scenario the fuzzing
harness considered worth pinning (see docs/fuzzing.md for how nightly
failures get triaged into entries).  Replaying them through the full oracle
suite on every PR turns each one into a permanent regression test: a
reintroduced delivery/legality/conservation/differential bug fails here with
a minimal reproducer already attached.
"""

import pathlib

import pytest

from repro.fuzz import load_corpus, load_entry, run_oracles
from repro.fuzz.oracles import verify_scenario_epochs
from repro.fuzz.scenario import FuzzScenario
from repro.routing.invariants import cdg_problems
from repro.routing.updown import UpDownRouting

CORPUS_DIR = pathlib.Path(__file__).parent / "fuzz_corpus"
ENTRIES = load_corpus(CORPUS_DIR)


def test_corpus_is_seeded():
    assert len(ENTRIES) >= 6, "corpus must hold at least 6 scenarios"


def test_corpus_includes_a_degraded_topology():
    assert any(sc.degraded_links for _, sc in ENTRIES), (
        "at least one corpus entry must come from a link-degraded topology"
    )


def test_corpus_includes_chaos_scenarios():
    chaos = [sc for _, sc in ENTRIES if sc.fault_schedule]
    assert len(chaos) >= 2, (
        "corpus must hold at least 2 runtime-fault (chaos) scenarios"
    )
    assert any(len(sc.fault_schedule) >= 2 for sc in chaos), (
        "at least one chaos entry must arm multiple faults "
        "(sequential reconfigurations)"
    )


def test_corpus_includes_a_collectives_scenario():
    # At least one entry must drive the open-loop workload path, and it
    # must mix all three collective kinds so the oracle's per-kind
    # accounting (delivered counts, drain completeness) is pinned.
    mixes = [
        {kind for _t, kind, _r in sc.collective_ops}
        for _, sc in ENTRIES
        if sc.collective_ops
    ]
    assert mixes, "corpus must hold a collective-workload scenario"
    assert any(
        m >= {"broadcast", "allreduce", "barrier"} for m in mixes
    ), "a collectives entry must mix all three kinds"


def test_corpus_entries_are_minimized_small():
    for path, sc in ENTRIES:
        assert sc.topo.num_switches <= 8, path.name
        assert len(sc.dests) <= 4, path.name


@pytest.mark.parametrize(
    "path", [p for p, _ in ENTRIES], ids=[p.stem for p, _ in ENTRIES]
)
def test_corpus_entry_passes_every_oracle(path):
    report = run_oracles(load_entry(path))
    assert report.ok, report.render()


def test_corpus_includes_multilane_scenarios():
    lane_counts = {sc.params.vc_count for _, sc in ENTRIES}
    assert {2, 4} <= lane_counts, (
        "corpus must hold minimized virtual-channel scenarios at 2 and 4 "
        f"lanes; found lane counts {sorted(lane_counts)}"
    )


@pytest.mark.parametrize(
    "path", [p for p, _ in ENTRIES], ids=[p.stem for p, _ in ENTRIES]
)
def test_corpus_topology_escape_lane_cdg_is_acyclic(path):
    # Every corpus topology must admit escape-VC routing: lane 0's
    # restricted channel dependency graph -- which equals the multicast
    # CDG up to lane tags -- is acyclic (the Duato escape argument's
    # structural premise).
    sc = load_entry(path)
    rt = UpDownRouting.build(sc.topo, orientation=sc.params.routing_tree)
    assert cdg_problems(sc.topo, rt) == []


@pytest.mark.parametrize(
    "path", [p for p, _ in ENTRIES], ids=[p.stem for p, _ in ENTRIES]
)
def test_corpus_chaos_epochs_have_no_escape_cycles(path):
    # ... and the premise must survive every reconfiguration epoch of the
    # entry's fault schedule, not just the intact topology.
    problems = verify_scenario_epochs(load_entry(path))
    cycles = [p for p in problems if p.kind == "cdg-cycle"]
    assert not cycles, cycles


@pytest.mark.parametrize(
    "path", [p for p, _ in ENTRIES], ids=[p.stem for p, _ in ENTRIES]
)
def test_corpus_entry_roundtrips_and_matches_filename(path):
    scenario = load_entry(path)
    again = FuzzScenario.from_dict(scenario.to_dict())
    assert again.digest() == scenario.digest()
    assert scenario.digest()[:12] in path.name, (
        "corpus file name must carry the scenario's content digest"
    )
