"""Static analysis for simulator determinism and up*/down* model invariants.

One engine, one front end, three rule kinds:

* **code rules** (AST): seeded-randomness, wall-clock, blanket-except,
  float-timestamp-equality, mutable-default, identity-in-sim checks over
  the simulation packages -- the hazards that silently break
  reproducibility of the paper's figures;
* **project rules** (whole tree): import cycles plus the whole-program
  analyzers of :mod:`repro.analyze` (determinism taint, cell isolation);
* **model rules** (semantic): extended channel-dependency-graph acyclicity,
  reachability-string consistency, path-plan up*/down* legality, and
  header-capacity checks over generated or saved topologies, plus the same
  invariants at every routing epoch of each corpus fault schedule -- the
  invariants the paper's correctness argument names.

Run ``python -m repro.lint src/repro`` (or the ``repro-lint`` script);
suppress a finding in place with ``# lint: disable=<rule-id>``, followed by
`` -- <why>`` for the whole-program analyzer rules.
"""

from repro.lint.engine import LintResult, run_lint
from repro.lint.findings import Finding, Severity
from repro.lint.registry import all_rules

__all__ = ["Finding", "LintResult", "Severity", "all_rules", "run_lint"]
