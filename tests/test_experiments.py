"""Tests for the experiment harness (registry, sweeps, CLI, table output)."""

import functools
import json
import pathlib

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


@pytest.fixture(scope="module")
def quick():
    """``quick(exp_id)``: the experiment at the quick profile, run once.

    Every shape assertion below reads its result from here, so each
    experiment runs once however many tests check it.  The runner's
    output is byte-identical at any jobs count.
    """
    return functools.cache(
        lambda exp_id: run_experiment(exp_id, "quick", jobs=2)
    )


class TestFigureRuns:
    """Each paper figure regenerates at quick scale with the paper's shape."""

    @pytest.mark.parametrize("fig", ["fig06", "fig07", "fig08"])
    def test_single_figures_produce_all_series(self, quick, fig):
        res = quick(fig)
        assert res.exp_id == fig
        assert len(res.series) >= 6  # >=2 variants x 3 schemes
        for s in res.series:
            assert all(y is not None and y > 0 for y in s.y)

    def test_fig06_r_trend(self, quick):
        res = quick("fig06")
        # Tree-based is strictly best within every variant.
        for r in ("R=0.5", "R=1", "R=2", "R=4"):
            tree = res.curve(f"{r}/tree").y
            for scheme in ("ni", "path"):
                other = res.curve(f"{r}/{scheme}").y
                assert all(t < o for t, o in zip(tree, other))
        # NI latency falls with R at every set size.
        ni_05 = res.curve("R=0.5/ni").y
        ni_4 = res.curve("R=4/ni").y
        assert all(a > b for a, b in zip(ni_05, ni_4))
        # Low R favours path over NI; high R closes (or reverses) the gap.
        gap_low = ni_05[-1] / res.curve("R=0.5/path").y[-1]
        gap_high = ni_4[-1] / res.curve("R=4/path").y[-1]
        assert gap_high < gap_low

    def test_fig07_path_degrades_with_switches(self, quick):
        res = quick("fig07")
        few = res.curve("8sw/path").y
        many = res.curve("32sw/path").y
        assert many[-1] > few[-1]
        # NI- and tree-based stay near-flat as switches increase.
        for scheme in ("tree", "ni"):
            assert (
                res.curve(f"32sw/{scheme}").y[-1]
                < res.curve(f"8sw/{scheme}").y[-1] * 1.5
            )

    def test_fig08_long_messages_narrow_ni_gap(self, quick):
        res = quick("fig08")
        for v in ("128f", "256f", "512f", "1024f"):
            tree = res.curve(f"{v}/tree").y
            for scheme in ("ni", "path"):
                other = res.curve(f"{v}/{scheme}").y
                assert all(t < o for t, o in zip(tree, other))
        # FPFS pipelining shrinks NI's disadvantage as messages grow.
        ratio_short = res.curve("128f/ni").y[-1] / res.curve("128f/path").y[-1]
        ratio_long = res.curve("512f/ni").y[-1] / res.curve("512f/path").y[-1]
        assert ratio_long < ratio_short

    def test_fig09_runs_and_orders(self, quick):
        res = quick("fig09")
        # At the light-load point tree leads for every R and degree.
        for r in ("R=0.5", "R=2", "R=4"):
            for d in (4, 16):
                tree = res.curve(f"{r}/{d}-way/tree").y[0]
                for scheme in ("ni", "path"):
                    other = res.curve(f"{r}/{d}-way/{scheme}").y[0]
                    if other is not None:
                        assert tree <= other * 1.05
        # ... and strictly so against path at the default R.
        assert (
            res.curve("R=2/4-way/tree").y[0]
            <= res.curve("R=2/4-way/path").y[0]
        )
        # Low R: NI clearly worse than path at light load; high R: the
        # gap shrinks.
        lo = (res.curve("R=0.5/4-way/ni").y[0]
              / res.curve("R=0.5/4-way/path").y[0])
        hi = res.curve("R=4/4-way/ni").y[0] / res.curve("R=4/4-way/path").y[0]
        assert hi < lo

    def test_fig10_path_degrades_tree_uniform(self, quick):
        res = quick("fig10")
        p8 = res.curve("8sw/16-way/path").y[0]
        p32 = res.curve("32sw/16-way/path").y[0]
        assert p32 > p8
        t8 = res.curve("8sw/16-way/tree").y[0]
        t32 = res.curve("32sw/16-way/tree").y[0]
        assert t32 < t8 * 1.5

    def test_fig11_long_messages_keep_ni_behind_path(self, quick):
        res = quick("fig11")
        for v in ("128f", "512f"):
            for d in (4, 16):
                tree = res.curve(f"{v}/{d}-way/tree").y[0]
                for scheme in ("ni", "path"):
                    other = res.curve(f"{v}/{d}-way/{scheme}").y[0]
                    if other is not None:
                        assert tree <= other * 1.05
        # Section 4.3.3: NI's extra traffic keeps it at or behind path
        # for long messages at high degree.
        ni = res.curve("512f/16-way/ni").y[0]
        path = res.curve("512f/16-way/path").y[0]
        assert ni >= path * 0.95

    @pytest.mark.parametrize("fig", ["fig09", "fig10", "fig11"])
    def test_load_figures_produce_points(self, quick, fig):
        res = quick(fig)
        assert res.series
        # light-load points must be measurable for every curve
        for s in res.series:
            assert s.y[0] is not None


class TestExtrasAndAblations:
    @pytest.mark.parametrize("exp_id", [
        "extra-hostoverhead", "extra-systemsize", "extra-packetlen",
        "ablation-buffer", "ablation-fpfs", "ablation-routing",
        "ablation-pathstrategy", "ablation-fixedk",
    ])
    def test_every_point_measured(self, quick, exp_id):
        res = quick(exp_id)
        assert res.exp_id == exp_id
        assert res.series
        for s in res.series:
            assert all(y is not None and y > 0 for y in s.y)

    def test_fpfs_beats_store_and_forward(self, quick):
        res = quick("ablation-fpfs")
        fpfs = res.curve("fpfs/ni").y
        saf = res.curve("store&fwd/ni").y
        assert all(f < s for f, s in zip(fpfs, saf))

    def test_auto_k_not_worse_than_fixed(self, quick):
        res = quick("ablation-fixedk")
        auto = res.curve("ni/auto").y
        for fixed in ("ni/k=1", "ni/k=2"):
            ys = res.curve(fixed).y
            assert all(a <= y * 1.05 for a, y in zip(auto, ys))
        # A unicast chain (k=1) is strictly worse everywhere.
        chain = res.curve("ni/k=1").y
        assert all(a < c for a, c in zip(auto, chain))

    def test_host_overhead_scales_everything(self, quick):
        res = quick("extra-hostoverhead")
        for scheme in ("ni", "path", "tree"):
            lo = res.curve(f"o_h=250/{scheme}").y
            hi = res.curve(f"o_h=4000/{scheme}").y
            assert all(h > l for h, l in zip(hi, lo))

    def test_system_size_keeps_tree_flat(self, quick):
        # Tree-based is a single phase however large the system grows.
        res = quick("extra-systemsize")
        small = res.curve("16n/4sw/tree").y[0]
        large = res.curve("64n/16sw/tree").y[0]
        assert large < small * 1.5

    def test_isolated_multicast_insensitive_to_buffer_size(self, quick):
        # No contention to absorb, so the sweep documents a non-result.
        res = quick("ablation-buffer")
        for scheme in ("tree", "path"):
            small = res.curve(f"buf=8/{scheme}").y
            big = res.curve(f"buf=256/{scheme}").y
            assert all(abs(a - b) / b < 0.25 for a, b in zip(small, big))


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


class TestCommittedResults:
    def test_every_result_is_rebuildable(self):
        # CI rebuilds each results/<stem>.json with ``run <stem> --profile
        # quick`` and diffs it; a file that loop cannot name is unpinned.
        results = pathlib.Path(__file__).parent.parent / "results"
        paths = sorted(results.glob("*.json"))
        assert paths
        for path in paths:
            assert path.stem in EXPERIMENTS, path.name
            assert json.loads(path.read_text())["exp_id"] == path.stem
