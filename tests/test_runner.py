"""Tests for the parallel, cached, resumable experiment runner.

The load-bearing contracts: per-cell seeds are deterministic and
platform-stable; parallel execution is byte-identical to serial; a warm
cache serves results without executing a single simulation cell; corrupt
cache entries are recomputed, not trusted; an edit to the code misses the
cache.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.experiments.base import load_cells, load_sweep, single_multicast_cells
from repro.experiments.config import Profile
from repro.experiments.io import result_to_dict
from repro.experiments.registry import run_experiment_with_stats
from repro.experiments.runner import (
    Cell,
    CellCache,
    derive_seed,
    execute_cells,
    execution_context,
    parallel_map,
    run_cell,
)
from repro.params import SimParams

MICRO = Profile(
    name="micro",
    n_topologies=1,
    trials_per_topology=1,
    group_sizes=(4,),
    loads=(0.02,),
    load_duration=15_000,
    load_warmup=1_500,
    load_degrees=(4,),
)


def result_bytes(result) -> str:
    return json.dumps(result_to_dict(result), indent=2)


def square(x: int) -> int:
    return x * x


def fail(_x: int) -> int:
    raise ZeroDivisionError("worker failure must surface")


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(2024, "fig06", "R=2", 16) == derive_seed(
            2024, "fig06", "R=2", 16
        )

    def test_distinct_across_coordinates(self):
        seeds = {
            derive_seed(2024, "fig06", "R=2", 16),
            derive_seed(2024, "fig06", "R=2", 8),
            derive_seed(2024, "fig06", "R=4", 16),
            derive_seed(2024, "fig07", "R=2", 16),
            derive_seed(7, "fig06", "R=2", 16),
        }
        assert len(seeds) == 5

    def test_seed_range(self):
        for i in range(100):
            assert 0 <= derive_seed(1, "e", i) < 2**31

    def test_schemes_share_a_cell_seed(self):
        # Paired comparison: every scheme of one grid point draws the same
        # topologies and destination sets.
        cells = single_multicast_cells(
            "e", {"base": SimParams()}, MICRO, schemes=("ni", "path", "tree")
        )
        assert len({c.seed for c in cells}) == 1
        assert len({c.scheme for c in cells}) == 3


class TestCellIdentity:
    def make(self, **over):
        base = dict(
            kind="single",
            exp_id="e",
            params=SimParams(),
            scheme="tree",
            coords=(("variant", "base"), ("size", 4)),
            knobs=(("n_topologies", 1), ("trials_per_topology", 1)),
            seed=11,
        )
        base.update(over)
        return Cell(**base)

    def test_digest_stable(self):
        assert self.make().digest() == self.make().digest()

    def test_digest_distinguishes_scheme_params_knobs_seed(self):
        base = self.make()
        assert base.digest() != self.make(scheme="path").digest()
        assert base.digest() != self.make(params=SimParams(ratio_r=4.0)).digest()
        assert (
            base.digest()
            != self.make(
                knobs=(("n_topologies", 2), ("trials_per_topology", 1))
            ).digest()
        )
        assert base.digest() != self.make(seed=12).digest()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown cell kind"):
            run_cell(self.make(kind="bogus"))


class TestParallelMap:
    def test_serial_and_parallel_agree(self):
        items = list(range(20))
        assert parallel_map(square, items, 1) == parallel_map(square, items, 3)

    def test_worker_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            parallel_map(fail, [1, 2], 2)

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            with execution_context(jobs=0):
                pass


class TestParallelEqualsSerial:
    def test_single_experiment_byte_identical(self):
        serial, s1 = run_experiment_with_stats("fig06", MICRO, jobs=1)
        parallel, s2 = run_experiment_with_stats("fig06", MICRO, jobs=3)
        assert result_bytes(serial) == result_bytes(parallel)
        assert s1.cells_executed == s2.cells_executed > 0

    def test_load_sweep_byte_identical(self):
        variants = {"base": SimParams()}
        serial = load_sweep("t", "t", variants, MICRO, schemes=("tree", "path"))
        with execution_context(jobs=3):
            parallel = load_sweep(
                "t", "t", variants, MICRO, schemes=("tree", "path")
            )
        assert result_bytes(serial) == result_bytes(parallel)


class TestCellCache:
    def run_cells(self, tmp_path, jobs=1):
        cells = single_multicast_cells(
            "e", {"base": SimParams()}, MICRO, schemes=("tree",)
        )
        cache = CellCache(tmp_path / "cells")
        with execution_context(jobs=jobs, cache=cache) as ctx:
            values = execute_cells(cells)
        return cells, values, cache, ctx.stats

    def test_cold_then_warm(self, tmp_path):
        cells, values, _cache, stats = self.run_cells(tmp_path)
        assert stats.cells_executed == len(cells)
        assert stats.cells_cached == 0
        _cells, warm_values, cache, warm_stats = self.run_cells(tmp_path)
        assert warm_stats.cells_executed == 0
        assert warm_stats.cells_cached == len(cells)
        assert warm_values == values

    def test_cache_round_trips_exactly(self, tmp_path):
        # Values pass through JSON on the cache path; floats must survive
        # bit-exactly for the byte-identity contract.
        _cells, cold, _c, _s = self.run_cells(tmp_path)
        _cells, warm, _c, _s = self.run_cells(tmp_path)
        assert json.dumps(cold) == json.dumps(warm)

    def test_corrupt_entry_recomputed(self, tmp_path, capsys):
        cells, values, cache, _stats = self.run_cells(tmp_path)
        victim = cache._path(cells[0].digest())
        victim.write_text("{ not json")
        _cells, again, cache2, stats = self.run_cells(tmp_path)
        assert again == values
        assert stats.cells_executed == 1  # only the corrupted cell reran
        assert "discarding unreadable" in capsys.readouterr().out

    def test_parameter_change_invalidates_only_its_cells(self, tmp_path):
        self.run_cells(tmp_path)
        cells = single_multicast_cells(
            "e", {"base": SimParams(ratio_r=4.0)}, MICRO, schemes=("tree",)
        )
        cache = CellCache(tmp_path / "cells")
        with execution_context(cache=cache) as ctx:
            execute_cells(cells)
        assert ctx.stats.cells_executed == len(cells)  # no false hits

    def test_load_cells_cache_none_and_saturation(self, tmp_path):
        # A saturating load point round-trips through the cache with its
        # None latency intact.
        heavy = Profile(
            name="heavy",
            n_topologies=1,
            trials_per_topology=1,
            group_sizes=(4,),
            loads=(2.0,),
            load_duration=8_000,
            load_warmup=800,
            load_degrees=(16,),
        )
        cells = load_cells("t", {"base": SimParams()}, heavy, schemes=("binomial",))
        cache = CellCache(tmp_path / "cells")
        with execution_context(cache=cache):
            cold = execute_cells(cells)
        with execution_context(cache=cache) as ctx:
            warm = execute_cells(cells)
        assert ctx.stats.cells_executed == 0
        assert warm == cold


class TestExperimentLevelCache:
    """Whole experiments through ``run_experiment_with_stats``, whose one
    cache tier is the cell cache."""

    def test_warm_rerun_executes_zero_cells(self, tmp_path):
        result, cold = run_experiment_with_stats(
            "fig06", MICRO, jobs=2, cache_dir=tmp_path
        )
        assert cold.cells_executed > 0
        warm_result, warm = run_experiment_with_stats(
            "fig06", MICRO, jobs=2, cache_dir=tmp_path
        )
        assert warm.cells_executed == 0
        assert warm.cells_cached == cold.cells_executed
        assert result_bytes(warm_result) == result_bytes(result)

    def test_resume_from_cell_cache(self, tmp_path):
        result, cold = run_experiment_with_stats(
            "fig06", MICRO, cache_dir=tmp_path
        )
        # A crash mid-run leaves only some cells stored: drop half of them.
        entries = sorted((tmp_path / "cells").glob("**/*.json"))
        assert len(entries) == cold.cells_executed > 1
        lost = entries[::2]
        for p in lost:
            p.unlink()
        resumed, stats = run_experiment_with_stats(
            "fig06", MICRO, cache_dir=tmp_path
        )
        assert stats.cells_executed == len(lost)
        assert stats.cells_cached == len(entries) - len(lost)
        assert sorted((tmp_path / "cells").glob("**/*.json")) == entries
        assert result_bytes(resumed) == result_bytes(result)

    def test_profile_change_misses(self, tmp_path):
        run_experiment_with_stats("fig06", MICRO, cache_dir=tmp_path)
        other = Profile(
            name="micro2",
            n_topologies=1,
            trials_per_topology=1,
            group_sizes=(4, 8),
            loads=(0.02,),
            load_duration=15_000,
            load_warmup=1_500,
            load_degrees=(4,),
        )
        _result, stats = run_experiment_with_stats(
            "fig06", other, cache_dir=tmp_path
        )
        assert stats.cells_executed > 0


class TestEveryExperimentIsCells:
    """The studies that once ran as plain loops now run as cells: they
    honour ``--jobs``, fill the cache, and a warm run executes nothing."""

    @pytest.mark.parametrize(
        "exp_id",
        [
            "extra-background",
            "extra-patterns",
            "extra-faults",
            "extra-regular",
            "ablation-pathstrategy",
            "ablation-header",
            "ablation-fixedk",
        ],
    )
    def test_cold_warm_and_serial_agree(self, exp_id, tmp_path):
        result, cold = run_experiment_with_stats(
            exp_id, MICRO, jobs=2, cache_dir=tmp_path
        )
        assert cold.cells_executed > 0
        warm_result, warm = run_experiment_with_stats(
            exp_id, MICRO, jobs=2, cache_dir=tmp_path
        )
        assert warm.cells_executed == 0
        assert warm.cells_cached == cold.cells_executed
        assert result_bytes(warm_result) == result_bytes(result)
        serial, _stats = run_experiment_with_stats(exp_id, MICRO, jobs=1)
        assert result_bytes(serial) == result_bytes(result)


class TestCacheKeyedByCode:
    """The cache key covers the code: after a model edit, a warm run
    re-executes and reproduces a fresh run of the edited code."""

    DECODE = "hop.h + self.params.routing_delay,"

    def run_cli(self, src, *args) -> str:
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("REPRO_CACHE_DIR", None)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", "run", "fig06",
             "--profile", "quick", *args],
            env=env, capture_output=True, text=True, check=True,
        )
        return proc.stdout

    def test_model_edit_misses_the_cache(self, tmp_path):
        import repro

        src = tmp_path / "src"
        shutil.copytree(
            pathlib.Path(repro.__file__).parent, src / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        cache = tmp_path / "cache"
        self.run_cli(src, "--cache-dir", cache, "--json", tmp_path / "o1")

        worm = src / "repro" / "sim" / "worm.py"
        text = worm.read_text()
        assert text.count(self.DECODE) == 1
        worm.write_text(
            text.replace(self.DECODE, "hop.h + self.params.routing_delay + 7,")
        )
        warm = self.run_cli(
            src, "--cache-dir", cache, "--json", tmp_path / "o2"
        )
        self.run_cli(src, "--no-cache", "--json", tmp_path / "fresh")

        assert "cells: 0 run" not in warm
        assert "cells:" in warm
        o1, o2, fresh = (
            (tmp_path / d / "fig06.json").read_bytes()
            for d in ("o1", "o2", "fresh")
        )
        assert o2 == fresh
        assert o2 != o1
