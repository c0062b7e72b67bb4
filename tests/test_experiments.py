"""Tests for the experiment harness (registry, sweeps, CLI, table output)."""

import pytest

from repro.experiments.base import ExperimentResult, Series, single_multicast_sweep
from repro.experiments.cli import main as cli_main
from repro.experiments.config import PROFILES, Profile
from repro.experiments.registry import EXPERIMENTS, PAPER_FIGURES, run_experiment
from repro.params import SimParams

TINY = Profile(
    name="tiny",
    n_topologies=1,
    trials_per_topology=1,
    group_sizes=(4, 8),
    loads=(0.02, 0.08),
    load_duration=20_000,
    load_warmup=2_000,
    load_degrees=(4,),
)


class TestRegistry:
    def test_all_paper_figures_registered(self):
        for fig in ("fig06", "fig07", "fig08", "fig09", "fig10", "fig11"):
            assert fig in EXPERIMENTS
            assert fig in PAPER_FIGURES

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            run_experiment("fig06", "mega")

    def test_profiles_exist(self):
        assert set(PROFILES) == {"quick", "full"}


class TestSweepEngines:
    def test_single_sweep_structure(self):
        res = single_multicast_sweep(
            "t", "t", {"base": SimParams()}, TINY, schemes=("tree",)
        )
        assert isinstance(res, ExperimentResult)
        assert len(res.series) == 1
        s = res.series[0]
        assert s.label == "base/tree"
        assert s.x == [4.0, 8.0]
        assert all(y is not None and y > 0 for y in s.y)

    def test_group_sizes_clamped_to_node_count(self):
        res = single_multicast_sweep(
            "t", "t",
            {"small": SimParams(num_nodes=6, num_switches=2)},
            TINY,
            schemes=("tree",),
        )
        assert res.series[0].x == [4.0]  # 8 >= 6 nodes dropped

    def test_curve_lookup(self):
        res = ExperimentResult(
            "e", "t", "x", "y", [Series("a", [1.0], [2.0])]
        )
        assert res.curve("a").y == [2.0]
        with pytest.raises(KeyError):
            res.curve("b")

    def test_table_renders_with_mixed_x(self):
        res = ExperimentResult(
            "e",
            "mixed",
            "x",
            "y",
            [
                Series("a", [1.0, 2.0], [10.0, None]),
                Series("b", [2.0, 3.0], [30.0, 40.0]),
            ],
        )
        table = res.to_table()
        assert "sat" in table  # None renders as saturated
        assert "-" in table  # missing x support renders as dash


class TestFigureRuns:
    """Each paper figure regenerates at tiny scale with sane shapes."""

    @pytest.mark.parametrize("fig", ["fig06", "fig07", "fig08"])
    def test_single_figures_produce_all_series(self, fig):
        res = EXPERIMENTS[fig](TINY)
        assert res.exp_id == fig
        assert len(res.series) >= 6  # >=2 variants x 3 schemes
        for s in res.series:
            assert all(y is not None and y > 0 for y in s.y)

    def test_fig06_r_trend(self):
        res = EXPERIMENTS["fig06"](TINY)
        # NI latency falls monotonically with R at every set size.
        ni_05 = res.curve("R=0.5/ni").y
        ni_4 = res.curve("R=4/ni").y
        assert all(a > b for a, b in zip(ni_05, ni_4))
        # Tree-based is best within every variant.
        for r in ("R=0.5", "R=1", "R=2", "R=4"):
            tree = res.curve(f"{r}/tree").y
            path = res.curve(f"{r}/path").y
            assert all(t <= p for t, p in zip(tree, path))

    def test_fig07_path_degrades_with_switches(self):
        res = EXPERIMENTS["fig07"](TINY)
        few = res.curve("8sw/path").y
        many = res.curve("32sw/path").y
        assert many[-1] > few[-1]

    def test_fig09_runs_and_orders(self):
        res = EXPERIMENTS["fig09"](TINY)
        # At the light-load point, tree <= path for the default R variant.
        tree = res.curve("R=2/4-way/tree").y[0]
        path = res.curve("R=2/4-way/path").y[0]
        assert tree is not None and path is not None
        assert tree <= path

    @pytest.mark.parametrize("fig", ["fig10", "fig11"])
    def test_load_figures_produce_points(self, fig):
        res = EXPERIMENTS[fig](TINY)
        assert res.series
        # light-load points must be measurable for every curve
        for s in res.series:
            assert s.y[0] is not None


class TestExtrasAndAblations:
    def test_fpfs_beats_store_and_forward(self):
        res = EXPERIMENTS["ablation-fpfs"](TINY)
        fpfs = res.curve("fpfs/ni").y
        saf = res.curve("store&fwd/ni").y
        assert all(f < s for f, s in zip(fpfs, saf))

    def test_auto_k_not_worse_than_fixed(self):
        res = EXPERIMENTS["ablation-fixedk"](TINY)
        auto = res.curve("ni/auto").y
        for fixed in ("ni/k=1", "ni/k=2"):
            ys = res.curve(fixed).y
            assert all(a <= y * 1.05 for a, y in zip(auto, ys))

    def test_host_overhead_scales_everything(self):
        res = EXPERIMENTS["extra-hostoverhead"](TINY)
        lo = res.curve("o_h=250/tree").y
        hi = res.curve("o_h=4000/tree").y
        assert all(h > l for h, l in zip(hi, lo))


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out and "ablation-buffer" in out

    def test_run_unknown(self, capsys):
        assert cli_main(["run", "nope"]) == 2

    def test_run_quick_figure(self, capsys):
        assert cli_main(["run", "ablation-fpfs"]) == 0
        out = capsys.readouterr().out
        assert "fpfs/ni" in out
        assert "cells:" in out  # execution summary line

    def test_run_with_jobs_and_cache(self, tmp_path, capsys):
        argv = [
            "run", "ablation-fpfs",
            "--jobs", "2",
            "--cache-dir", str(tmp_path),
            "--json", str(tmp_path / "out"),
        ]
        assert cli_main(argv) == 0
        cold = capsys.readouterr().out
        assert "cells:" in cold and "run, 0 cached" in cold
        cold_json = (tmp_path / "out" / "ablation-fpfs.json").read_bytes()
        assert cli_main(argv) == 0
        warm = capsys.readouterr().out
        assert "experiment cache hit" in warm
        assert (tmp_path / "out" / "ablation-fpfs.json").read_bytes() == cold_json

    def test_no_cache_flag_disables_caching(self, tmp_path, capsys):
        argv = [
            "run", "ablation-fpfs",
            "--cache-dir", str(tmp_path),
            "--no-cache",
        ]
        assert cli_main(argv) == 0
        assert not (tmp_path / "experiments").exists()
