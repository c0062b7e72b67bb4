"""Whole-program static analysis: determinism sanitizer + cell isolation.

Where :mod:`repro.lint` checks one file (or one loaded topology) at a time,
this package sees the *whole* ``repro`` package at once:

* :mod:`~repro.analyze.project` builds a project-wide symbol table and call
  graph;
* :mod:`~repro.analyze.effects` infers, per function, which class
  variables, module-level objects and parameter attributes it mutates
  directly;
* :mod:`~repro.analyze.taint` tracks unordered-iteration and
  object-identity taint from sources (``set`` iteration, ``id()``,
  ``os.environ``) to event-scheduling / trace / seed-derivation sinks;
* :mod:`~repro.analyze.epochs` statically replays chaos fault schedules
  (degrade -> rebuild up*/down* -> multicast CDG) and proves acyclicity and
  reachability at *every* routing epoch, not just epoch 0.

Entry point: :mod:`~repro.analyze.rules` registers the analyzers into the
:mod:`repro.lint` registry, among them the two cell-isolation rules behind
the cell runner's promise that parallel cells stay byte-identical at every
``--jobs`` count.  ``repro-lint`` (with ``--corpus``) runs them and replays
the corpus epochs in one pass under one suppression policy.
"""
