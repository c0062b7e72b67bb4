"""E7: the experiments the paper ran but omitted for space (Section 4.2.3).

"We also performed a number of experiments to study the effect of startup
overhead at the host, system size, and packet length.  However, due to lack
of space, these results are not presented."  We regenerate all three.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, single_multicast_sweep
from repro.experiments.config import Profile
from repro.params import SimParams

HOST_OVERHEADS = (250, 1000, 4000)
SYSTEM_SIZES = ((16, 4), (32, 8), (64, 16))  # (nodes, switches)
PACKET_SIZES = (32, 128, 512)


BACKGROUND_LOADS = (0.01, 0.05, 0.1, 0.2)


def run_background_traffic(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Extension: multicast latency amid unicast background traffic.

    The paper's load study is multicast-only; this sweep answers how each
    scheme's 16-way multicast degrades when the network also carries
    point-to-point traffic.
    """
    import random as _random

    from repro.experiments.base import ENHANCED_SCHEMES, Series
    from repro.topology.irregular import generate_topology_family
    from repro.traffic.background import multicast_under_background

    base = base or SimParams()
    topo = generate_topology_family(base, 1)[0]
    rng = _random.Random(profile.seed)
    source = 0
    dests = rng.sample([n for n in range(base.num_nodes) if n != source], 16)
    series = []
    for scheme in ENHANCED_SCHEMES:
        ys: list[float] = []
        for load in BACKGROUND_LOADS:
            r = multicast_under_background(
                topo, base, scheme, source, dests, load,
                warmup=profile.load_warmup, seed=profile.seed,
            )
            ys.append(r.multicast_latency)
        series.append(
            Series(
                label=f"bg/{scheme}",
                x=list(BACKGROUND_LOADS),
                y=ys,
                meta={"scheme": scheme},
            )
        )
    return ExperimentResult(
        exp_id="extra-background",
        title="16-way multicast latency under unicast background traffic",
        x_label="background unicast load (flits/cycle/node)",
        y_label="multicast latency (cycles)",
        series=series,
    )


def run_traffic_patterns(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Extension: does destination locality change the NI-vs-switch answer?

    Compares loaded latency (16-way, one mid load point per pattern) under
    uniform, clustered, hotspot, and single-switch destination draws.
    """
    from repro.experiments.base import ENHANCED_SCHEMES, Series
    from repro.topology.irregular import generate_topology_family
    from repro.traffic.load import run_load_experiment
    from repro.traffic.patterns import PATTERNS

    base = base or SimParams()
    topo = generate_topology_family(base, 1)[0]
    loads = list(profile.loads[:3])
    series = []
    for pattern in sorted(PATTERNS):
        for scheme in ENHANCED_SCHEMES:
            ys: list[float | None] = []
            for load in loads:
                point = run_load_experiment(
                    topo, base, scheme, degree=16, effective_load=load,
                    duration=profile.load_duration,
                    warmup=profile.load_warmup,
                    seed=profile.seed, pattern=pattern,
                )
                ys.append(None if point.saturated else point.mean_latency)
            series.append(
                Series(
                    label=f"{pattern}/{scheme}",
                    x=loads,
                    y=ys,
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


FAULT_COUNTS = (0, 1, 2, 4)


def run_fault_tolerance(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Extension: multicast latency after link failures + reconfiguration.

    Fails k random links (network kept connected), rebuilds the routing per
    Autonet reconfiguration, and measures 16-way isolated multicast latency
    -- quantifying the paper's "resistant to faults" motivation.
    """
    import random as _random

    from repro.experiments.base import ENHANCED_SCHEMES, Series
    from repro.multicast import make_scheme
    from repro.sim.network import SimNetwork
    from repro.topology.faults import degrade
    from repro.topology.irregular import generate_topology_family

    base = base or SimParams()
    topo0 = generate_topology_family(base, 1)[0]
    rng = _random.Random(profile.seed)
    dests = rng.sample(range(1, base.num_nodes), 16)
    series = []
    for scheme in ENHANCED_SCHEMES:
        ys: list[float | None] = []
        for k in FAULT_COUNTS:
            trial_rng = _random.Random(profile.seed + k)
            try:
                topo, _failed = degrade(topo0, k, trial_rng)
            except ValueError:
                ys.append(None)
                continue
            net = SimNetwork(topo, base)
            res = make_scheme(scheme).execute(net, 0, dests)
            net.run()
            ys.append(res.latency)
        series.append(
            Series(
                label=f"faults/{scheme}",
                x=[float(k) for k in FAULT_COUNTS],
                y=ys,
                meta={"scheme": scheme},
            )
        )
    return ExperimentResult(
        exp_id="extra-faults",
        title="16-way multicast latency after link failures (reconfigured)",
        x_label="failed links",
        y_label="single multicast latency (cycles)",
        series=series,
    )


def run_regular_comparison(profile: Profile, base: SimParams | None = None) -> ExperimentResult:
    """Extension: how much does topological irregularity cost each scheme?

    Compares single-multicast latency on the default random irregular
    network against regular substrates of comparable size (16 switches, 2
    hosts each: 4x4 mesh, 4x4 torus, 4-cube).
    """
    import random as _random

    from repro.experiments.base import ENHANCED_SCHEMES, Series
    from repro.sim.network import SimNetwork
    from repro.topology.irregular import generate_irregular_topology
    from repro.topology.regular import hypercube, mesh_2d, torus_2d

    base = base or SimParams()
    p32 = base.replace(num_nodes=32, num_switches=16)
    topologies = {
        "irregular": generate_irregular_topology(p32, seed=base.topology_seed),
        "mesh4x4": mesh_2d(4, 4, hosts_per_switch=2),
        "torus4x4": torus_2d(4, 4, hosts_per_switch=2),
        "hcube4": hypercube(4, hosts_per_switch=2, ports_per_switch=8),
    }
    sizes = [s for s in profile.group_sizes if s < 32]
    series = []
    for tlabel, topo in topologies.items():
        params = p32.replace(ports_per_switch=topo.ports_per_switch)
        for scheme in ENHANCED_SCHEMES:
            from repro.multicast import make_scheme

            ys = []
            for size in sizes:
                rng = _random.Random(profile.seed)
                lats = []
                for _ in range(profile.trials_per_topology * 2):
                    src = rng.randrange(32)
                    dests = rng.sample(
                        [n for n in range(32) if n != src], size
                    )
                    net = SimNetwork(topo, params)
                    res = make_scheme(scheme).execute(net, src, dests)
                    net.run()
                    lats.append(res.latency)
                ys.append(sum(lats) / len(lats))
            series.append(
                Series(
                    label=f"{tlabel}/{scheme}",
                    x=[float(s) for s in sizes],
                    y=ys,
                    meta={"topology": tlabel, "scheme": scheme},
                )
            )
    return ExperimentResult(
        exp_id="extra-regular",
        title="Irregular vs regular topologies, single multicast latency",
        x_label="multicast set size",
        y_label="single multicast latency (cycles)",
        series=series,
    )


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
