"""Command-line entry point: ``repro-lint`` / ``python -m repro.lint``.

Examples::

    repro-lint src/repro
    repro-lint src/repro --json
    repro-lint --list-rules

Exit status: 0 when no error-severity findings, 1 when there are findings,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.lint.engine import run_lint
from repro.lint.report import render_json, render_rule_list, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis of the simulator's source: determinism, "
            "cell isolation and import hygiene."
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
    try:
        result = run_lint(paths)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    print(render_json(result) if args.json else render_text(result))
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
