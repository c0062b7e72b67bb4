"""Command-line entry point: ``repro-lint`` / ``python -m repro.lint``.

Examples::

    repro-lint src/repro
    repro-lint src/repro --json
    repro-lint src/repro --no-model
    repro-lint src/repro --topology topo.json --model-seeds 1,2,3,4
    repro-lint src/repro --corpus tests/fuzz_corpus
    repro-lint --list-rules

Exit status: 0 when no error-severity findings, 1 when there are findings,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.lint.engine import LintUsageError, run_lint
from repro.lint.report import render_json, render_rule_list, render_text


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"seeds must be comma-separated integers: {text!r}"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis for simulator determinism, cell isolation, "
            "and up*/down* model invariants at every routing epoch."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report"
    )
    parser.add_argument(
        "--no-model",
        action="store_true",
        help=(
            "skip the model phase: topology/routing model rules and corpus "
            "epochs (code and project rules only)"
        ),
    )
    parser.add_argument(
        "--model-seeds",
        type=_parse_seeds,
        default=(1, 2, 3),
        metavar="S1,S2,...",
        help="topology seeds the model rules verify (default: 1,2,3)",
    )
    parser.add_argument(
        "--topology",
        action="append",
        default=[],
        metavar="FILE",
        help="also run model rules on a saved topology JSON (repeatable)",
    )
    parser.add_argument(
        "--corpus",
        action="append",
        default=[],
        metavar="DIR",
        help=(
            "verify every routing epoch of each fuzz/chaos corpus entry's "
            "fault schedule (model phase; repeatable)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every rule and its rationale, then exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rule_list())
        return 0

    paths = [pathlib.Path(p) for p in args.paths]
    if not paths:
        default = pathlib.Path("src/repro")
        if not default.is_dir():
            print(
                "no paths given and ./src/repro does not exist",
                file=sys.stderr,
            )
            return 2
        paths = [default]
    for p in paths:
        if not p.exists():
            print(f"no such file or directory: {p}", file=sys.stderr)
            return 2
    corpus_dirs = [pathlib.Path(c) for c in args.corpus]
    for c in corpus_dirs:
        if not c.is_dir():
            print(f"no such corpus directory: {c}", file=sys.stderr)
            return 2

    try:
        result = run_lint(
            paths,
            run_model=not args.no_model,
            model_seeds=args.model_seeds,
            topology_files=[pathlib.Path(t) for t in args.topology],
            corpus_dirs=corpus_dirs,
        )
    except (FileNotFoundError, LintUsageError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    print(render_json(result) if args.json else render_text(result))
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
