"""CLI behaviour of ``python -m repro.lint`` / ``repro-lint``."""

import json
import pathlib
import textwrap

from repro.lint.cli import main


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
    code = main([str(d), "--no-model"])
    out = capsys.readouterr().out
    assert code == 1
    assert "wall-clock" in out
    assert "bad.py:5" in out


def test_json_report_is_parseable(tmp_path, capsys):
    d = plant_violation(tmp_path)
    code = main([str(d), "--no-model", "--json"])
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
    assert main([str(d), "--no-model"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_model_rules_run_on_saved_topology(tmp_path, capsys):
    from repro.topology.irregular import generate_irregular_topology
    from repro.topology.serialization import save_topology
    from repro.params import SimParams

    topo = generate_irregular_topology(SimParams(), seed=5)
    tf = tmp_path / "topo.json"
    save_topology(topo, tf)
    d = tmp_path / "sim"
    d.mkdir()
    (d / "empty.py").write_text("")
    code = main([
        str(d), "--model-seeds", "1", "--topology", str(tf), "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["contexts_checked"] == 2  # seed 1 + the saved topology


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
        "mutable-default", "import-cycle", "multicast-cdg-cycle",
        "cdg-negative-control", "reachability-superset",
        "path-plan-legality", "header-capacity",
        # whole-program analyzers
        "identity-in-sim", "unordered-into-sink", "runtime-global-mutation",
        "cross-network-mutation",
        # findings the engine emits itself
        "parse-error", "unjustified-suppression", "epoch-cdg-cycle",
        "epoch-reachability", "epoch-disconnect", "epoch-corpus-unreadable",
    ):
        assert rule_id in headers


def test_missing_corpus_dir_usage_error(tmp_path, capsys):
    d = tmp_path / "sim"
    d.mkdir()
    code = main([str(d), "--corpus", str(tmp_path / "nope")])
    assert code == 2
    assert "no such corpus directory" in capsys.readouterr().err
