"""Static analysis of the simulator's source for determinism hazards.

One engine, one front end, two rule kinds:

* **code rules** (AST): seeded-randomness, wall-clock, blanket-except,
  float-timestamp-equality, mutable-default, identity-in-sim checks over
  the simulation packages -- the hazards that silently break
  reproducibility of the paper's figures;
* **project rules** (whole tree): import cycles plus the whole-program
  analyzers of :mod:`repro.analyze` (cell isolation).

The up*/down* model invariants (CDG acyclicity, reachability, header
capacity, per-epoch replay) are not lint rules: they live in
:mod:`repro.routing.invariants` and run in the tests and the fuzz
oracles.

Run ``python -m repro.lint src/repro`` (or the ``repro-lint`` script);
suppress a finding in place with ``# lint: disable=<rule-id>``, followed by
`` -- <why>`` for the whole-program analyzer rules.
"""

from repro.lint.engine import LintResult, run_lint
from repro.lint.findings import Finding, Severity
from repro.lint.registry import all_rules

__all__ = ["Finding", "LintResult", "Severity", "all_rules", "run_lint"]
