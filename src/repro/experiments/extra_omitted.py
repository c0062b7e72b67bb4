"""E7: the experiments the paper ran but omitted for space (Section 4.2.3).

"We also performed a number of experiments to study the effect of startup
overhead at the host, system size, and packet length.  However, due to lack
of space, these results are not presented."  We regenerate all three, plus
four extensions: unicast background traffic, destination patterns, link
faults and regular topologies.  Every sweep runs as cells.
"""

from __future__ import annotations

import random

from repro.experiments.base import (
    ENHANCED_SCHEMES,
    ExperimentResult,
    Series,
    single_multicast_sweep,
)
from repro.experiments.config import Profile
from repro.experiments.runner import Cell, execute_cells
from repro.params import SimParams

HOST_OVERHEADS = (250, 1000, 4000)
SYSTEM_SIZES = ((16, 4), (32, 8), (64, 16))  # (nodes, switches)
PACKET_SIZES = (32, 128, 512)


BACKGROUND_LOADS = (0.01, 0.05, 0.1, 0.2)
FAULT_COUNTS = (0, 1, 2, 4)
REGULAR_TOPOLOGIES = ("irregular", "mesh4x4", "torus4x4", "hcube4")
FOREGROUND_SIZE = 16
"""Multicast degree of ``extra-background``, ``extra-faults`` (both send
their one multicast from node 0) and ``extra-patterns``."""

# The four sweeps below seed every cell with the flat ``profile.seed`` (the
# fault draw with ``profile.seed + k``) instead of ``derive_seed``: that is
# how their published numbers were drawn, so the numbers stand.


def run_background_traffic(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Extension: multicast latency amid unicast background traffic.

    The paper's load study is multicast-only; this sweep answers how each
    scheme's 16-way multicast degrades when the network also carries
    point-to-point traffic.  One ``background`` cell per (scheme, load).
    """
    base = base or SimParams()
    cells = [
        Cell(
            kind="background",
            exp_id="extra-background",
            params=base,
            scheme=scheme,
            coords=(("load", load),),
            knobs=(("warmup", profile.load_warmup),),
            seed=profile.seed,
        )
        for scheme in ENHANCED_SCHEMES
        for load in BACKGROUND_LOADS
    ]
    values = iter(execute_cells(cells))
    series = [
        Series(
            label=f"bg/{scheme}",
            x=list(BACKGROUND_LOADS),
            y=[next(values)["latency"] for _ in BACKGROUND_LOADS],
            meta={"scheme": scheme},
        )
        for scheme in ENHANCED_SCHEMES
    ]
    return ExperimentResult(
        exp_id="extra-background",
        title="16-way multicast latency under unicast background traffic",
        x_label="background unicast load (flits/cycle/node)",
        y_label="multicast latency (cycles)",
        series=series,
    )


def background_point(
    params: SimParams, scheme: str, load: float, *, warmup: int, seed: int
) -> dict:
    """One ``background`` cell: the foreground multicast's latency."""
    from repro.topology.irregular import generate_topology_family
    from repro.traffic.background import multicast_under_background

    others = [n for n in range(params.num_nodes) if n != 0]
    dests = random.Random(seed).sample(others, FOREGROUND_SIZE)
    result = multicast_under_background(
        generate_topology_family(params, 1)[0], params, scheme, 0, dests,
        load, warmup=warmup, seed=seed,
    )
    return {"latency": result.multicast_latency}


def run_traffic_patterns(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Extension: does destination locality change the NI-vs-switch answer?

    Compares loaded latency (16-way, the first three load points) under
    uniform, clustered, hotspot, and single-switch destination draws.  One
    ``load`` cell per (pattern, scheme, load), the pattern passed to the
    load driver as a scheme keyword.
    """
    from repro.traffic.patterns import PATTERNS

    base = base or SimParams()
    loads = list(profile.loads[:3])
    grid = [
        (pattern, scheme) for pattern in sorted(PATTERNS)
        for scheme in ENHANCED_SCHEMES
    ]
    cells = [
        Cell(
            kind="load",
            exp_id="extra-patterns",
            params=base,
            scheme=scheme,
            coords=(
                ("pattern", pattern),
                ("degree", FOREGROUND_SIZE),
                ("load", load),
            ),
            knobs=(
                ("duration", profile.load_duration),
                ("warmup", profile.load_warmup),
            ),
            seed=profile.seed,
            scheme_kw=(("pattern", pattern),),
        )
        for pattern, scheme in grid
        for load in loads
    ]
    values = iter(execute_cells(cells))
    series = []
    for pattern, scheme in grid:
        points = [next(values) for _ in loads]
        series.append(
            Series(
                label=f"{pattern}/{scheme}",
                x=loads,
                y=[None if p["saturated"] else p["mean_latency"] for p in points],
                meta={"pattern": pattern, "scheme": scheme},
            )
        )
    return ExperimentResult(
        exp_id="extra-patterns",
        title="Destination locality patterns under 16-way multicast load",
        x_label="effective applied load (flits/cycle/node)",
        y_label="mean multicast latency (cycles)",
        series=series,
    )


def run_fault_tolerance(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Extension: multicast latency after link failures + reconfiguration.

    Fails k random links (network kept connected), rebuilds the routing per
    Autonet reconfiguration, and measures 16-way isolated multicast latency
    -- quantifying the paper's "resistant to faults" motivation.  One
    ``fault`` cell per (scheme, k).
    """
    base = base or SimParams()
    cells = [
        Cell(
            kind="fault",
            exp_id="extra-faults",
            params=base,
            scheme=scheme,
            coords=(("failures", k),),
            knobs=(),
            seed=profile.seed,
        )
        for scheme in ENHANCED_SCHEMES
        for k in FAULT_COUNTS
    ]
    values = iter(execute_cells(cells))
    series = [
        Series(
            label=f"faults/{scheme}",
            x=[float(k) for k in FAULT_COUNTS],
            y=[next(values)["latency"] for _ in FAULT_COUNTS],
            meta={"scheme": scheme},
        )
        for scheme in ENHANCED_SCHEMES
    ]
    return ExperimentResult(
        exp_id="extra-faults",
        title="16-way multicast latency after link failures (reconfigured)",
        x_label="failed links",
        y_label="single multicast latency (cycles)",
        series=series,
    )


def fault_point(params: SimParams, scheme: str, failures: int, *, seed: int) -> dict:
    """One ``fault`` cell: latency on the degraded network, or None.

    ``None`` marks a topology that cannot lose ``failures`` links and stay
    connected.
    """
    from repro.topology.faults import degrade
    from repro.topology.irregular import generate_topology_family
    from repro.traffic.single import measure_single_multicast

    dests = random.Random(seed).sample(range(1, params.num_nodes), FOREGROUND_SIZE)
    topo0 = generate_topology_family(params, 1)[0]
    try:
        topo, _failed = degrade(topo0, failures, random.Random(seed + failures))
    except ValueError:
        return {"latency": None}
    result = measure_single_multicast(topo, params, scheme, 0, dests)
    return {"latency": result.latency}


def run_regular_comparison(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Extension: how much does topological irregularity cost each scheme?

    Compares single-multicast latency on the default random irregular
    network against regular substrates of comparable size (16 switches, 2
    hosts each: 4x4 mesh, 4x4 torus, 4-cube).  One ``regular`` cell per
    (topology, scheme, set size).
    """
    base = base or SimParams()
    p32 = base.replace(num_nodes=32, num_switches=16)
    sizes = [s for s in profile.group_sizes if s < p32.num_nodes]
    grid = [
        (tlabel, scheme) for tlabel in REGULAR_TOPOLOGIES
        for scheme in ENHANCED_SCHEMES
    ]
    cells = [
        Cell(
            kind="regular",
            exp_id="extra-regular",
            params=p32,
            scheme=scheme,
            coords=(("topology", tlabel), ("size", size)),
            knobs=(("trials", profile.trials_per_topology * 2),),
            seed=profile.seed,
        )
        for tlabel, scheme in grid
        for size in sizes
    ]
    values = iter(execute_cells(cells))
    series = [
        Series(
            label=f"{tlabel}/{scheme}",
            x=[float(s) for s in sizes],
            y=[next(values)["mean"] for _ in sizes],
            meta={"topology": tlabel, "scheme": scheme},
        )
        for tlabel, scheme in grid
    ]
    return ExperimentResult(
        exp_id="extra-regular",
        title="Irregular vs regular topologies, single multicast latency",
        x_label="multicast set size",
        y_label="single multicast latency (cycles)",
        series=series,
    )


def regular_point(
    params: SimParams,
    scheme: str,
    topology: str,
    size: int,
    *,
    trials: int,
    seed: int,
) -> dict:
    """One ``regular`` cell: mean latency of ``trials`` seeded draws.

    ``params`` is the 32-node, 16-switch system; ``topology`` names one of
    :data:`REGULAR_TOPOLOGIES`.
    """
    from repro.topology.irregular import generate_irregular_topology
    from repro.topology.regular import hypercube, mesh_2d, torus_2d
    from repro.traffic.single import draw_multicast, measure_single_multicast

    if topology == "irregular":
        topo = generate_irregular_topology(params, seed=params.topology_seed)
    elif topology == "mesh4x4":
        topo = mesh_2d(4, 4, hosts_per_switch=2)
    elif topology == "torus4x4":
        topo = torus_2d(4, 4, hosts_per_switch=2)
    elif topology == "hcube4":
        topo = hypercube(4, hosts_per_switch=2, ports_per_switch=8)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    params = params.replace(ports_per_switch=topo.ports_per_switch)
    rng = random.Random(seed)
    lats = []
    for _ in range(trials):
        src, dests = draw_multicast(rng, params.num_nodes, size)
        lats.append(measure_single_multicast(topo, params, scheme, src, dests).latency)
    return {"mean": sum(lats) / len(lats)}


def run_host_overhead(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Effect of the host software overhead magnitude (R held at default)."""
    base = base or SimParams()
    variants = {
        f"o_h={o}": base.replace(o_host=o) for o in HOST_OVERHEADS
    }
    return single_multicast_sweep(
        "extra-hostoverhead",
        "Effect of host software overhead on single multicast latency",
        variants,
        profile,
    )


def run_system_size(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Effect of system size, scaling switches with nodes."""
    base = base or SimParams()
    variants = {
        f"{n}n/{s}sw": base.replace(num_nodes=n, num_switches=s)
        for n, s in SYSTEM_SIZES
    }
    return single_multicast_sweep(
        "extra-systemsize",
        "Effect of system size on single multicast latency",
        variants,
        profile,
    )


def run_packet_length(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Effect of packet size at a fixed 1024-flit message length."""
    base = base or SimParams()
    variants = {
        f"pkt={p}f": base.replace(packet_flits=p, message_packets=1024 // p)
        for p in PACKET_SIZES
    }
    return single_multicast_sweep(
        "extra-packetlen",
        "Effect of packet length (1024-flit messages) on multicast latency",
        variants,
        profile,
    )
