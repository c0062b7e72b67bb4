"""CLI behaviour of ``python -m repro.lint`` / ``repro-lint``."""

import json
import pathlib
import textwrap

from repro.lint.cli import build_parser, main


def plant_violation(tmp_path: pathlib.Path) -> pathlib.Path:
    d = tmp_path / "sim"
    d.mkdir()
    (d / "bad.py").write_text(textwrap.dedent("""
        import time

        def stamp():
            return time.time()
    """))
    return d


def test_violation_exits_nonzero_with_rule_and_location(tmp_path, capsys):
    d = plant_violation(tmp_path)
    code = main([str(d)])
    out = capsys.readouterr().out
    assert code == 1
    assert "wall-clock" in out
    assert "bad.py:5" in out


def test_json_report_is_parseable(tmp_path, capsys):
    d = plant_violation(tmp_path)
    code = main([str(d), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["version"] == 1
    assert payload["counts"]["error"] == 1
    [finding] = payload["findings"]
    assert finding["rule"] == "wall-clock"
    assert finding["line"] == 5


def test_clean_dir_exits_zero(tmp_path, capsys):
    d = tmp_path / "sim"
    d.mkdir()
    (d / "good.py").write_text("def f(x):\n    return x + 1\n")
    assert main([str(d)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_missing_path_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_list_rules_names_every_family(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    headers = {
        line.split(" [")[0] for line in out.splitlines()
        if line and not line.startswith(" ")
    }
    for rule_id in (
        "unseeded-random", "wall-clock", "blanket-except", "float-time-eq",
        "mutable-default", "import-cycle",
        # whole-program analyzers
        "identity-in-sim", "runtime-global-mutation",
        "cross-network-mutation",
        # findings the engine emits itself
        "parse-error", "unjustified-suppression",
    ):
        assert rule_id in headers


def test_lint_takes_only_paths_json_and_list_rules():
    # The linter reads source code only: no topology, seed or corpus input.
    parser = build_parser()
    dests = {a.dest for a in parser._actions} - {"help"}
    assert dests == {"paths", "json", "list_rules"}
