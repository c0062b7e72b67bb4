"""Differential fuzzing harness with invariant oracles.

The dynamic counterpart to :mod:`repro.routing.invariants`: where those
checkers prove structural invariants statically on pinned configurations,
the fuzzer hunts for divergence continuously -- seeded random irregular systems (optionally
link-degraded), every multicast scheme and both simulator backends, a suite
of semantic oracles, automatic delta-debugging of failures, and a committed
corpus that replays every past reproducer as part of tier-1.

Entry points::

    python -m repro.fuzz run --seed 0 --iterations 100
    python -m repro.fuzz replay --dir tests/fuzz_corpus
    python -m repro.fuzz minimize failing.json -o minimal.json
    python -m repro.fuzz corpus --dir tests/fuzz_corpus

See ``docs/fuzzing.md`` for the generator/oracle/shrinker/corpus workflow.
"""

from repro.fuzz.corpus import (
    corpus_files,
    load_corpus,
    load_entry,
    save_entry,
)
from repro.fuzz.generator import generate_scenario
from repro.fuzz.oracles import (
    ORACLES,
    ScenarioReport,
    Violation,
    run_oracles,
    run_scheme,
)
from repro.fuzz.scenario import (
    FuzzScenario,
    derive_seed,
    scheme_spec,
    spec_label,
)
from repro.fuzz.shrink import minimize, oracle_predicate

__all__ = [
    "FuzzScenario",
    "ORACLES",
    "ScenarioReport",
    "Violation",
    "corpus_files",
    "derive_seed",
    "generate_scenario",
    "load_corpus",
    "load_entry",
    "minimize",
    "oracle_predicate",
    "run_oracles",
    "run_scheme",
    "save_entry",
    "scheme_spec",
    "spec_label",
]
