"""End-to-end benchmark of the simulator's host time: four workloads.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--check] [--update]

Runs each selected workload (all four by default) in a fresh child process
(``worker.py``), one at a time, and prints every metric by name with its
unit, then one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
Untraced, the metrics are the end-to-end ones; with ``--trace`` they are the
per-layer ones from the ledger (``ledger.py``).  Every run is also saved as
JSON under ``--out`` (default ``benchmarks/e2e/runs/``), which ``compare.py``
reads.

Correctness: every call's output is checked structurally at every seed, the
output digests of pass 0 are printed, and at the default seed they must
equal the pins in ``expected.json``.  A failed check counts in ``failed``
and makes the command exit 1.

``--check`` runs pass 0 of each workload untraced and traced at the default
seed, and fails unless the two give the same digests, the digests equal the
pins, and the deterministic per-layer counts equal ``counters.json`` byte for
byte.  ``--update`` rewrites the pins and counts instead.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
COUNTERS = HERE / "counters.json"

DEFAULT_SEED = 1
WORKLOADS = ("isolated-256", "load-paper", "collective-mix", "faulted-128")
SETUP_RUNS = 5
"""Set-ups timed per run (one is the measuring worker's own); the median is
``setup_s``."""

CHILD_TIMEOUT = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "ops/s"),
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(RuntimeError):
    pass


def spawn(cfg: dict) -> tuple[float, dict | None]:
    """Run one worker; returns (seconds to ``ready``, its result or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerError(
            f"{cfg['workload']} worker exited with code {proc.returncode}"
        )
    lines = rest.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def load_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def render(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def end_to_end(setups: list[float], res: dict) -> dict[str, float]:
    """The end-to-end metrics, from each call's fastest repeat."""
    best: dict[int, list[float]] = {}
    ops: dict[int, int] = {}
    for run in res["passes"]:
        times = [c["s"] for c in run["calls"]]
        seen = best.setdefault(run["p"], times)
        best[run["p"]] = [min(a, b) for a, b in zip(seen, times)]
        ops[run["p"]] = sum(c["ops"] for c in run["calls"])
    walls = [sum(times) for times in best.values()]
    calls = [t for times in best.values() for t in times]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(walls),
        "ops_per_s": sum(ops.values()) / sum(walls),
        "call_ms_p50": 1000 * statistics.median(calls),
        "call_ms_p90": 1000 * statistics.quantiles(
            calls, n=10, method="inclusive"
        )[8],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def mark_digests(res: dict, pins: dict | None) -> dict[str, str]:
    """Fail calls whose outputs do not reproduce: every repeat of an input
    pass, traced or not, must give the digests of its first run, and pass 0
    must give the pins.  Returns pass 0's digests."""
    first: dict[int, dict] = {}
    for run in res["passes"] + res.get("traced_passes", []):
        ref = first.setdefault(run["p"], run["digests"])
        for c in run["calls"]:
            if run["digests"].get(c["scheme"]) != ref.get(c["scheme"]):
                c["problems"].append(
                    f"pass {run['p']} output differs from its first run"
                )
    for c in res["passes"][0]["calls"]:
        digest = first[0].get(c["scheme"])
        if pins is not None and pins.get(c["scheme"]) != digest:
            c["problems"].append(f"digest {str(digest)[:12]} != pin")
    return first[0]


def run_one(name: str, args, pins: dict | None) -> dict:
    """Measure one workload; returns its run record."""
    cfg = {
        "workload": name, "seed": args.seed, "profile": args.profile,
        "seconds": args.seconds, "trace": bool(args.trace),
        "setup_only": False, "trace_file": None,
    }
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(spawn(dict(cfg, setup_only=True))[0])
    else:
        cfg["trace_file"] = str(args.out / f"{name}-seed{args.seed}.chrome.json")
    ready, res = spawn(cfg)
    setups.append(ready)
    digests = mark_digests(res, pins)
    calls = [c for p in res["passes"] for c in p["calls"]]
    calls += [c for p in res.get("traced_passes", ()) for c in p["calls"]]
    failed = [c for c in calls if c["problems"]]
    if args.trace:
        metrics = res["layers"]
        units = {n: u for n, u, _ in ledger.LAYER_METRICS}
        line = [n for n, _, on_line in ledger.LAYER_METRICS if on_line]
    else:
        metrics = end_to_end(setups, res)
        units = dict(END_TO_END)
        line = list(units)
    return {
        "workload": name, "seed": args.seed, "profile": args.profile,
        "seconds": args.seconds, "trace": bool(args.trace),
        "metrics": metrics, "units": units, "line": line,
        "attempted": len(calls), "failed": len(failed),
        "fail_frac": len(failed) / len(calls),
        "problems": [
            f"{c['scheme']} {c['label']}: {p}" for c in failed
            for p in c["problems"]
        ],
        "digests": digests,
        "setup_samples": setups,
        "pass_walls": [p["wall_s"] for p in res["passes"]],
    }


def report(rec: dict) -> None:
    mode = "traced" if rec["trace"] else "untraced"
    print(f"== {rec['workload']}  seed {rec['seed']}  {rec['profile']}  "
          f"{rec['seconds']:g} s  {mode}  {len(rec['pass_walls'])} passes")
    for name, value in rec["metrics"].items():
        print(f"  {name:<34} {value:>14.6g} {rec['units'][name]}")
    print(f"  {'fail_frac':<34} {rec['fail_frac']:>14.6g} ratio "
          f"({rec['failed']}/{rec['attempted']} calls)")
    for scheme, digest in sorted(rec["digests"].items()):
        print(f"  digest {scheme:<5} {digest}")
    for problem in rec["problems"][:20]:
        print(f"  FAIL {problem}")


def counts_of(rec: dict) -> dict:
    """The deterministic per-layer counts of a traced run record."""
    return {
        n: rec["metrics"][n] for n, u, _ in ledger.LAYER_METRICS
        if u in ledger.DETERMINISTIC_UNITS
    }


def update_pins(records: list[dict], profile: str) -> None:
    counters, expected = load_json(COUNTERS), load_json(EXPECTED)
    for rec in records:
        counters.setdefault(profile, {})[rec["workload"]] = counts_of(rec)
        expected.setdefault(profile, {})[rec["workload"]] = rec["digests"]
    counters["seed"] = expected["seed"] = DEFAULT_SEED
    COUNTERS.write_text(render(counters))
    EXPECTED.write_text(render(expected))
    print(f"wrote {COUNTERS.name} and {EXPECTED.name}")


def check_counters(records: list[dict], profile: str) -> bool:
    """Regenerate counters.json's sections for these runs; diff the bytes."""
    counters = load_json(COUNTERS)
    for rec in records:
        counters.setdefault(profile, {})[rec["workload"]] = counts_of(rec)
    fresh = render(counters)
    committed = COUNTERS.read_text() if COUNTERS.exists() else ""
    if fresh == committed:
        print(f"{COUNTERS.name}: deterministic counts match")
        return True
    sys.stdout.writelines(difflib.unified_diff(
        committed.splitlines(True), fresh.splitlines(True),
        f"{COUNTERS.name} (committed)", f"{COUNTERS.name} (this run)",
    ))
    print(f"{COUNTERS.name}: deterministic counts differ")
    return False


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="measuring time per workload; 0 runs a single pass",
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="the same runs at sizes that take about a second")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--update", action="store_true")
    parser.add_argument("--out", type=Path, default=HERE / "runs")
    args = parser.parse_args(argv)
    if (args.check or args.update) and args.seed != DEFAULT_SEED:
        parser.error("--check and --update use the default seed")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if args.check or args.update:
        args.trace, args.seconds = 1, 0.0
    args.profile = "smoke" if args.smoke else "full"
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    pins = load_json(EXPECTED).get(args.profile, {})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        use_pins = args.seed == DEFAULT_SEED and not args.update
        try:
            rec = run_one(name, args, pins.get(name) if use_pins else None)
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        records.append(rec)
        report(rec)
        suffix = "-trace" if args.trace else ""
        (args.out / f"{name}-seed{args.seed}{suffix}.json").write_text(
            render(rec)
        )
    ok = all(rec["failed"] == 0 for rec in records)
    if args.update and ok:
        update_pins(records, args.profile)
    elif args.check:
        ok = check_counters(records, args.profile) and ok
    prefix = len(records) > 1
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{n}" if prefix else n):
                {"value": r["metrics"][n], "unit": r["units"][n]}
            for r in records for n in r["line"]
        },
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
