"""Whole-program static analysis: identity reads + cell isolation.

Where :mod:`repro.lint`'s code rules check one file at a time,
this package sees the *whole* ``repro`` package at once:

* :mod:`~repro.analyze.project` builds a project-wide symbol table and call
  graph;
* :mod:`~repro.analyze.effects` infers, per function, which class
  variables, module-level objects and parameter attributes it mutates
  directly.

Entry point: :mod:`~repro.analyze.rules` registers the analyzers into the
:mod:`repro.lint` registry, among them the two cell-isolation rules behind
the cell runner's promise that parallel cells stay byte-identical at every
``--jobs`` count.  ``repro-lint`` runs them alongside the code rules in one
pass under one suppression policy.  Determinism across hash seeds (set
iteration order) is checked dynamically instead (DESIGN.md §7).
"""
