"""E8: ablations of the design choices DESIGN.md calls out.

* input buffer size (wormhole <-> virtual cut-through regimes),
* FPFS vs store-and-forward forwarding at the smart NI,
* adaptive vs deterministic up*/down* routing,
* MDP-LG vs plain greedy worm selection,
* fixed vs auto-selected k for the k-binomial tree.
"""

from __future__ import annotations

from repro.experiments.base import (
    ExperimentResult,
    Series,
    single_multicast_sweep,
)
from repro.experiments.config import Profile
from repro.experiments.runner import Cell, execute_cells
from repro.params import SimParams

BUFFER_SIZES = (8, 64, 256)


def run_buffer_size(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Input-buffer size sweep (all schemes)."""
    base = base or SimParams()
    variants = {
        f"buf={b}": base.replace(input_buffer_flits=b) for b in BUFFER_SIZES
    }
    return single_multicast_sweep(
        "ablation-buffer",
        "Effect of switch input-buffer size on single multicast latency",
        variants,
        profile,
    )


def run_buffer_size_under_load(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Input-buffer size under multicast load -- where VCT vs wormhole shows.

    Isolated multicasts see no buffer effect (ablation-buffer); with
    contention, large buffers absorb blocked packets (virtual cut-through)
    and free upstream channels, while small buffers chain-block.
    """
    from repro.experiments.base import load_sweep

    base = base or SimParams()
    variants = {
        f"buf={b}": base.replace(input_buffer_flits=b) for b in BUFFER_SIZES
    }
    return load_sweep(
        "ablation-buffer-load",
        "Input-buffer size under multicast load (VCT vs wormhole)",
        variants,
        profile,
        schemes=("tree",),
        degrees=(16,),
    )


def run_ni_policies(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """FPFS vs store-and-forward NI forwarding, multi-packet messages."""
    base = (base or SimParams()).replace(message_packets=4)
    variants = {
        "fpfs": base,
        "store&fwd": base.replace(ni_store_and_forward=True),
    }
    return single_multicast_sweep(
        "ablation-fpfs",
        "FPFS vs store-and-forward smart-NI forwarding (512-flit messages)",
        variants,
        profile,
        schemes=("ni",),
    )


def run_routing_policy(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Adaptive vs deterministic minimal up*/down* routing."""
    base = base or SimParams()
    variants = {
        "adaptive": base,
        "deterministic": base.replace(adaptive_routing=False),
    }
    return single_multicast_sweep(
        "ablation-routing",
        "Adaptive vs deterministic routing, single multicast latency",
        variants,
        profile,
    )


def run_tree_orientation(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """BFS (Autonet) vs DFS-preorder link orientation."""
    base = base or SimParams()
    variants = {
        "bfs": base,
        "dfs": base.replace(routing_tree="dfs"),
    }
    return single_multicast_sweep(
        "ablation-orientation",
        "BFS vs DFS up*/down* link orientation, single multicast latency",
        variants,
        profile,
    )


def _scheme_variant_sweep(
    exp_id: str,
    title: str,
    profile: Profile,
    base: SimParams,
    scheme: str,
    variants: tuple[tuple[str, dict], ...],
) -> ExperimentResult:
    """Latency vs set size for one scheme, one curve per keyword variant.

    Each ``(label, scheme keywords)`` variant becomes a row of ``single``
    cells.  Every cell is seeded with the flat ``profile.seed`` rather than
    :func:`~repro.experiments.runner.derive_seed`, so all variants replay
    the same topologies and draws and the published numbers stand.
    """
    sizes = [s for s in profile.group_sizes if s < base.num_nodes]
    knobs = (
        ("n_topologies", profile.n_topologies),
        ("trials_per_topology", profile.trials_per_topology),
    )
    cells = [
        Cell(
            kind="single",
            exp_id=exp_id,
            params=base,
            scheme=scheme,
            coords=(("variant", label), ("size", size)),
            knobs=knobs,
            seed=profile.seed,
            scheme_kw=tuple(kw.items()),
        )
        for label, kw in variants
        for size in sizes
    ]
    values = iter(execute_cells(cells))
    series = [
        Series(
            label=f"{scheme}/{label}",
            x=[float(s) for s in sizes],
            y=[next(values)["mean"] for _ in sizes],
        )
        for label, _kw in variants
    ]
    return ExperimentResult(
        exp_id=exp_id,
        title=title,
        x_label="multicast set size",
        y_label="single multicast latency (cycles)",
        series=series,
    )


def run_path_strategy(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """MDP-LG vs plain greedy path-worm selection."""
    return _scheme_variant_sweep(
        "ablation-pathstrategy",
        "MDP-LG vs greedy path-worm selection",
        profile,
        base or SimParams(),
        "path",
        (("lg", {"strategy": "lg"}), ("greedy", {"strategy": "greedy"})),
    )


def run_header_capacity(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Header-capacity-limited tree worms (Section 3.3 cost concern)."""
    return _scheme_variant_sweep(
        "ablation-header",
        "Tree-worm header capacity: unlimited vs chunked headers",
        profile,
        base or SimParams(),
        "tree",
        (
            ("unlimited", {"max_header_dests": None}),
            ("cap=8", {"max_header_dests": 8}),
            ("cap=4", {"max_header_dests": 4}),
        ),
    )


def run_fixed_k(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Forcing the k-binomial fan-out vs the analytic auto-selection."""
    return _scheme_variant_sweep(
        "ablation-fixedk",
        "k-binomial fan-out: auto-selected vs fixed k",
        profile,
        base or SimParams(),
        "ni",
        (
            ("auto", {}),
            ("k=1", {"fixed_k": 1}),
            ("k=2", {"fixed_k": 2}),
            ("k=4", {"fixed_k": 4}),
            ("k=8", {"fixed_k": 8}),
        ),
    )
