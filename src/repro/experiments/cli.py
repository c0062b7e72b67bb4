"""Command-line entry point: ``repro-experiments``.

Examples::

    repro-experiments list
    repro-experiments run fig06
    repro-experiments run fig09 --profile full --json out/ --csv out/
    repro-experiments run all --profile quick
    repro-experiments run figures --jobs 4 --cache-dir .repro-cache
    repro-experiments topology --seed 7 --save topo.json

``--jobs N`` runs an experiment's independent cells on N worker processes;
``--cache-dir DIR`` caches each cell's value, keyed by the cell and a
fingerprint of the code, so runs are resumable (crash mid-``run all``,
rerun the same command, and only missing cells execute) and any code edit
invalidates the cache.  The ``REPRO_CACHE_DIR`` environment variable
provides the default cache directory; ``--no-cache`` forces caching off.
Output is byte-identical across jobs counts and cache states.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

from repro.experiments.config import PROFILES
from repro.experiments.registry import (
    EXPERIMENTS,
    PAPER_FIGURES,
    run_experiment_with_stats,
)


def _jobs(text: str) -> int:
    """``--jobs`` value: a worker count of at least 1, else a usage error."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}"
        )
    return jobs


def _cmd_list() -> int:
    for exp_id in EXPERIMENTS:
        marker = "*" if exp_id in PAPER_FIGURES else " "
        print(f" {marker} {exp_id}")
    print("(* = figure of the paper; others are extensions/ablations)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment == "all":
        ids = list(EXPERIMENTS)
    elif args.experiment == "figures":
        ids = list(PAPER_FIGURES)
    elif args.experiment in EXPERIMENTS:
        ids = [args.experiment]
    else:
        print(f"unknown experiment {args.experiment!r}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    cache_dir = None if args.no_cache else (args.cache_dir or None)
    for exp_id in ids:
        t0 = time.perf_counter()
        result, stats = run_experiment_with_stats(
            exp_id,
            args.profile,
            jobs=args.jobs,
            cache_dir=cache_dir,
        )
        print(result.to_table())
        print(
            f"[{exp_id} took {time.perf_counter() - t0:.1f}s; cells: "
            f"{stats.cells_executed} run, {stats.cells_cached} cached]\n"
        )
        if args.json:
            from repro.experiments.io import save_result_json

            out = pathlib.Path(args.json)
            out.mkdir(parents=True, exist_ok=True)
            save_result_json(result, out / f"{exp_id}.json")
        if args.csv:
            from repro.experiments.io import save_result_csv

            out = pathlib.Path(args.csv)
            out.mkdir(parents=True, exist_ok=True)
            save_result_csv(result, out / f"{exp_id}.csv")
    return 0


def _cmd_validate(_args: argparse.Namespace) -> int:
    """Quick model-validation pass: closed form + cross-backend agreement."""
    import random

    from repro.analysis.closedform import (
        tree_worm_latency,
        unicast_message_latency,
    )
    from repro.multicast import make_scheme
    from repro.params import SimParams
    from repro.routing.invariants import cdg_problems
    from repro.routing.updown import UpDownRouting
    from repro.sim.flitsim import FlitLevelFabric, unicast_route
    from repro.sim.network import SimNetwork
    from repro.sim.worm import Worm
    from repro.topology.irregular import generate_irregular_topology

    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
        if not ok:
            failures += 1

    params = SimParams(adaptive_routing=False)
    for seed in range(3):
        topo = generate_irregular_topology(params, seed=seed)
        rt = UpDownRouting.build(topo)
        problems = cdg_problems(topo, rt)
        for problem in problems:
            print(f"seed {seed}: {problem}", file=sys.stderr)
        check(f"seed {seed}: up*/down* CDG acyclic", not problems)

        rng = random.Random(seed)
        src = rng.randrange(32)
        dst = rng.choice([n for n in range(32) if n != src])
        net = SimNetwork(topo, params)
        res = make_scheme("binomial").execute(net, src, [dst])
        net.run()
        hops = rt.distance(topo.switch_of_node(src), topo.switch_of_node(dst))
        check(
            f"seed {seed}: unicast matches closed form",
            abs(res.latency - unicast_message_latency(params, hops)) < 1e-6,
        )

        dests = rng.sample([n for n in range(32) if n != src], 8)
        tnet = SimNetwork(topo, params)
        tres = make_scheme("tree").execute(tnet, src, dests)
        tnet.run()
        check(
            f"seed {seed}: tree worm matches closed form",
            abs(tres.latency - tree_worm_latency(tnet, src, dests)) <= 2.0,
        )

        # Cross-backend: one contended pair in both simulators.
        enet = SimNetwork(topo, params)
        times: list[float] = []
        for s in (src, (src + 1) % 32):
            if s == dst:
                continue
            w = Worm(enet.engine, enet.params, enet.unicast_steer(dst),
                     on_delivered=lambda _n, t: times.append(t), rng=enet.rng)
            w.start(enet.fabric.inject[s], None)
        enet.run()
        fab = FlitLevelFabric(topo, params)
        for s in (src, (src + 1) % 32):
            if s == dst:
                continue
            fab.inject(0, unicast_route(topo, rt, s, dst))
        fab.run()
        flit_times = sorted(float(v) for v in fab.deliveries.values())
        check(
            f"seed {seed}: event and flit backends agree",
            sorted(times) == flit_times,
        )
    print(f"{'ALL CHECKS PASSED' if failures == 0 else f'{failures} FAILURES'}")
    return 0 if failures == 0 else 1


def _cmd_requirements(args: argparse.Namespace) -> int:
    from repro.analysis.requirements import render_requirements, requirements_table
    from repro.params import SimParams
    from repro.sim.network import SimNetwork
    from repro.topology.irregular import generate_irregular_topology

    params = SimParams(num_nodes=args.nodes, num_switches=args.switches)
    topo = generate_irregular_topology(params, seed=args.seed)
    net = SimNetwork(topo, params)
    print(f"architectural requirements, {args.nodes} nodes / "
          f"{args.switches} switches (paper section 3.3):")
    print(render_requirements(requirements_table(net)))
    return 0


def _cmd_tornado(args: argparse.Namespace) -> int:
    from repro.experiments.calibration import render_tornado, tornado_analysis

    bars = tornado_analysis(
        n_topologies=args.topologies, trials=2, group_size=16
    )
    print(render_tornado(bars))
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.params import SimParams
    from repro.topology.analysis import analyze
    from repro.topology.irregular import generate_irregular_topology

    params = SimParams(
        num_nodes=args.nodes,
        num_switches=args.switches,
        ports_per_switch=args.ports,
    )
    topo = generate_irregular_topology(params, seed=args.seed)
    stats = analyze(topo)
    print(f"topology seed={args.seed}: {stats.num_nodes} nodes, "
          f"{stats.num_switches} switches, {stats.num_links} links")
    print(f"  diameter {stats.diameter}, mean switch distance "
          f"{stats.mean_switch_distance:.2f}")
    print(f"  switch degree {stats.min_degree}..{stats.max_degree} "
          f"(mean {stats.mean_degree:.1f}); hosts/switch "
          f"{stats.nodes_per_switch_min}..{stats.nodes_per_switch_max}; "
          f"{stats.multi_link_pairs} multi-link pair(s)")
    if args.save:
        from repro.topology.serialization import save_topology

        save_topology(topo, args.save)
        print(f"  saved to {args.save}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation of 'Where to Provide Support for "
            "Efficient Multicasting in Irregular Networks' (ICPP'98)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    runp = sub.add_parser("run", help="run one experiment (or 'all'/'figures')")
    runp.add_argument("experiment", help="experiment id, 'figures', or 'all'")
    runp.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="quick",
        help="execution scale (default: quick)",
    )
    runp.add_argument("--json", metavar="DIR", help="also write <DIR>/<exp>.json")
    runp.add_argument("--csv", metavar="DIR", help="also write <DIR>/<exp>.csv")
    runp.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        metavar="N",
        help="worker processes for independent simulation cells (default: 1)",
    )
    runp.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=os.environ.get("REPRO_CACHE_DIR"),
        help=(
            "cache cell results under DIR, keyed by the code, so runs are "
            "resumable (default: $REPRO_CACHE_DIR, else no caching)"
        ),
    )
    runp.add_argument(
        "--no-cache",
        action="store_true",
        help="disable result caching even if a cache dir is configured",
    )

    repp = sub.add_parser("report", help="run experiments, write a markdown report")
    repp.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (default: the paper's figures)",
    )
    repp.add_argument("--profile", choices=sorted(PROFILES), default="quick")
    repp.add_argument("--out", default="report.md", help="output path")

    topop = sub.add_parser("topology", help="generate & inspect a topology")
    topop.add_argument("--seed", type=int, default=1)
    topop.add_argument("--nodes", type=int, default=32)
    topop.add_argument("--switches", type=int, default=8)
    topop.add_argument("--ports", type=int, default=8)
    topop.add_argument("--save", metavar="FILE", help="write topology JSON")

    sub.add_parser("validate", help="closed-form + cross-backend validation pass")

    reqp = sub.add_parser("requirements", help="section 3.3 hardware-cost table")
    reqp.add_argument("--seed", type=int, default=1)
    reqp.add_argument("--nodes", type=int, default=32)
    reqp.add_argument("--switches", type=int, default=8)

    torp = sub.add_parser("tornado", help="parameter-sensitivity analysis")
    torp.add_argument("--topologies", type=int, default=2)

    sub.add_parser(
        "conclusions",
        help="measure and judge the paper's four conclusions",
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "requirements":
        return _cmd_requirements(args)
    if args.command == "tornado":
        return _cmd_tornado(args)
    if args.command == "conclusions":
        from repro.experiments.conclusions import (
            check_conclusions,
            render_conclusions,
        )

        checks = check_conclusions()
        print(render_conclusions(checks))
        return 0 if all(c.holds for c in checks) else 1
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        from repro.experiments.report import write_report

        try:
            out = write_report(
                args.out, args.experiments or None, args.profile
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(f"wrote {out}")
        return 0
    if args.command == "topology":
        return _cmd_topology(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
