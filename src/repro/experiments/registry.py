"""Experiment registry: id -> runner, consumed by the CLI and benchmarks.

:func:`run_experiment` is the one entry point that applies the execution
policy: ``jobs`` fans the experiment's cells out over worker processes and
``cache_dir`` roots the :class:`repro.experiments.runner.CellCache`, one
content-addressed entry per cell keyed by the cell descriptor and a
fingerprint of the code.  Every experiment is a list of cells, so a warm
re-run serves all of it from the cache and an interrupted run resumes at
simulation-call granularity.

Results are byte-identical across jobs counts and cache states: cells are
independently seeded and merged canonically, and cached JSON round-trips
floats exactly.
"""

from __future__ import annotations

import pathlib
from typing import Callable

from repro.experiments import (
    ablation,
    collective_load,
    extra_omitted,
    fig06_ratio,
    fig07_switches,
    fig08_msglen,
    fig09_load_ratio,
    fig10_load_switches,
    fig11_load_msglen,
    group_churn,
    vc_ablation,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.config import PROFILES, Profile
from repro.experiments.runner import (
    CellCache,
    ExecutionStats,
    execution_context,
)

EXPERIMENTS: dict[str, Callable[[Profile], ExperimentResult]] = {
    "fig06": fig06_ratio.run,
    "fig07": fig07_switches.run,
    "fig08": fig08_msglen.run,
    "fig09": fig09_load_ratio.run,
    "fig10": fig10_load_switches.run,
    "fig11": fig11_load_msglen.run,
    "extra-hostoverhead": extra_omitted.run_host_overhead,
    "extra-systemsize": extra_omitted.run_system_size,
    "extra-packetlen": extra_omitted.run_packet_length,
    "extra-background": extra_omitted.run_background_traffic,
    "extra-regular": extra_omitted.run_regular_comparison,
    "extra-faults": extra_omitted.run_fault_tolerance,
    "extra-patterns": extra_omitted.run_traffic_patterns,
    "ablation-buffer": ablation.run_buffer_size,
    "ablation-buffer-load": ablation.run_buffer_size_under_load,
    "ablation-fpfs": ablation.run_ni_policies,
    "ablation-routing": ablation.run_routing_policy,
    "ablation-orientation": ablation.run_tree_orientation,
    "ablation-pathstrategy": ablation.run_path_strategy,
    "ablation-header": ablation.run_header_capacity,
    "ablation-fixedk": ablation.run_fixed_k,
    "group-churn": group_churn.run,
    "vc-ablation": vc_ablation.run,
    "collective-load": collective_load.run,
}

PAPER_FIGURES = ("fig06", "fig07", "fig08", "fig09", "fig10", "fig11")


def _resolve_profile(profile: Profile | str) -> Profile:
    if isinstance(profile, str):
        try:
            return PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
            ) from None
    return profile


def run_experiment_with_stats(
    exp_id: str,
    profile: Profile | str = "quick",
    *,
    jobs: int = 1,
    cache_dir: str | pathlib.Path | None = None,
) -> tuple[ExperimentResult, ExecutionStats]:
    """Run one experiment and report what was executed vs cache-served.

    ``jobs`` sets the worker-process count for the experiment's cells;
    ``cache_dir`` (None disables caching) roots the cell cache.
    """
    profile = _resolve_profile(profile)
    try:
        runner = EXPERIMENTS[exp_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {exp_id!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None

    cache = None
    if cache_dir is not None:
        cache = CellCache(pathlib.Path(cache_dir) / "cells")
    with execution_context(jobs=jobs, cache=cache) as ctx:
        return runner(profile), ctx.stats


def run_experiment(
    exp_id: str,
    profile: Profile | str = "quick",
    *,
    jobs: int = 1,
    cache_dir: str | pathlib.Path | None = None,
) -> ExperimentResult:
    """Run one experiment by id; profile may be a name or a Profile."""
    result, _stats = run_experiment_with_stats(
        exp_id, profile, jobs=jobs, cache_dir=cache_dir
    )
    return result
