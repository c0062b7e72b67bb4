"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 benchmarks/e2e/compare.py A/ B/

``A`` and ``B`` are directories of run records written by ``run.py --out``
(``A`` the parent commit, ``B`` the change), each holding several seeds per
workload.  For every metric and workload it prints each side's median and
quartiles, the ratio B/A with its base, and a verdict:

* ``regression``: B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``unresolved``: either side's spread (quartile distance over median) is
  wider than the bound, so "no change" cannot be claimed;
* ``gain``: at least ten runs pair up by seed, B wins at least 9 in 10 of
  the pairs (ties count for neither) and the medians differ by more than
  A's quartile distance;
* ``same``: none of the above.

Host speed drifts over minutes, so collect the two sides alternately (seed
by seed), not one batch after the other.

Metrics without a bound (the per-layer ones of traced runs) get ``info``.
Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
"""Seed-paired runs needed before a gain can be claimed."""


def load_runs(directory: Path) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value} over the run records in a dir."""
    out: dict[tuple[str, str], dict[int, float]] = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if "workload" not in rec or "metrics" not in rec:
            continue  # e.g. a Chrome trace export
        for name, value in rec["metrics"].items():
            out.setdefault((rec["workload"], name), {})[rec["seed"]] = value
    return out


def quartiles(runs: dict[int, float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of the runs' values."""
    values = list(runs.values())
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: dict[int, float], b: dict[int, float], bound: float | None,
            higher_better: bool) -> str:
    """The verdict on one metric x workload (see the module docstring)."""
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    if bound is None:
        return "info"
    sign = -1 if higher_better else 1
    if am and sign * (bm - am) / abs(am) > bound:
        return "regression"
    if max(_spread(a1, am, a3), _spread(b1, bm, b3)) > bound:
        return "unresolved"
    pairs = [(a[s], b[s]) for s in a.keys() & b.keys()]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and abs(bm - am) > a3 - a1):
        return "gain"
    return "same"


def _spread(q1: float, med: float, q3: float) -> float:
    return (q3 - q1) / abs(med) if med else 0.0


def _fmt(q1: float, med: float, q3: float) -> str:
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("a", type=Path, help="runs of the parent commit")
    parser.add_argument("b", type=Path, help="runs of the change")
    args = parser.parse_args(argv)
    for d in (args.a, args.b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    better.update({n: m["better"] for n, m in bounds.items()})
    a, b = load_runs(args.a), load_runs(args.b)
    regressions = 0
    print(f"{'workload':<15} {'metric':<32} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B/A':>7}  verdict")
    for key in sorted(a.keys() & b.keys()):
        workload, name = key
        bound = bounds[name]["bound"] if name in bounds else None
        v = verdict(a[key], b[key], bound, better.get(name) == "higher")
        regressions += v == "regression"
        (a1, am, a3), (b1, bm, b3) = quartiles(a[key]), quartiles(b[key])
        ratio = f"{bm / am:7.3f}" if am else "    n/a"
        print(f"{workload:<15} {name:<32} {_fmt(a1, am, a3):>34} "
              f"{_fmt(b1, bm, b3):>34} {ratio}  {v}  "
              f"(base: A median {am:.5g}; runs {len(a[key])}/{len(b[key])})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
