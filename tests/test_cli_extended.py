"""Tests for the analysis/validation CLI subcommands and new experiments."""

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.registry import EXPERIMENTS
from tests.test_experiments import TINY


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        assert cli_main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "FAIL" not in out.replace("PASS", "")


class TestRequirementsCommand:
    def test_table_printed(self, capsys):
        assert cli_main(["requirements"]) == 0
        out = capsys.readouterr().out
        assert "tree" in out and "header(bits)" in out

    def test_scaled_system(self, capsys):
        assert cli_main(["requirements", "--nodes", "64", "--switches", "16"]) == 0
        out = capsys.readouterr().out
        assert "64 nodes" in out
        # tree header = one bit per node
        assert " 64 " in out


class TestTornadoCommand:
    def test_tornado_runs(self, capsys):
        assert cli_main(["tornado", "--topologies", "1"]) == 0
        out = capsys.readouterr().out
        assert "o_host" in out and "#" in out


class TestReportCommand:
    def test_report_written(self, tmp_path, capsys):
        out_file = tmp_path / "rep.md"
        rc = cli_main(["report", "ablation-header", "--out", str(out_file)])
        assert rc == 0
        text = out_file.read_text()
        assert "# Reproduction report" in text
        assert "ablation-header" in text

    def test_report_unknown_experiment(self, tmp_path):
        rc = cli_main(
            ["report", "nope", "--out", str(tmp_path / "x.md")]
        )
        assert rc == 2


class TestNewExperiments:
    def test_patterns_experiment_registered_and_runs(self):
        res = EXPERIMENTS["extra-patterns"](TINY)
        assert res.exp_id == "extra-patterns"
        labels = {s.meta["pattern"] for s in res.series}
        assert {"uniform", "clustered", "hotspot", "single-switch"} <= labels

    def test_faults_experiment_runs(self):
        res = EXPERIMENTS["extra-faults"](TINY)
        # healthy point always measurable
        for s in res.series:
            assert s.y[0] is not None

    def test_background_experiment_runs(self):
        res = EXPERIMENTS["extra-background"](TINY)
        assert all(s.y[0] is not None for s in res.series)

    def test_background_experiment_does_not_hide_sim_errors(
        self, monkeypatch
    ):
        # A simulator invariant error (a double delivery, an idle-lane
        # release) is a RuntimeError too; it must fail the run rather than
        # become an unmeasured point.
        class Broken:
            def execute(self, *args, **kwargs):
                raise RuntimeError("planted")

        monkeypatch.setattr(
            "repro.traffic.background.make_scheme", lambda *a, **k: Broken()
        )
        with pytest.raises(RuntimeError, match="planted"):
            EXPERIMENTS["extra-background"](TINY)

    def test_orientation_ablation_runs(self):
        res = EXPERIMENTS["ablation-orientation"](TINY)
        assert res.curve("bfs/tree").y and res.curve("dfs/tree").y
