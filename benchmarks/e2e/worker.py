"""Child process of the end-to-end benchmark: set up one workload, run passes.

``run.py`` starts ``python3 worker.py CONFIG_JSON`` in a fresh process per
workload.  The worker imports the program, generates the workload's inputs
(``PASSES`` input passes) and prints ``ready`` (``run.py`` times set-up from
process start to that line).  It then runs the input passes round-robin
until the time budget would be exceeded, and prints one JSON line with the
raw results.  With ``"setup_only"`` it stops after ``ready``.

Round-robin repeats spread the repeats of each input across the run, so a
burst of host noise rarely covers all of them: ``run.py`` keeps each call's
fastest repeat.  Every repeat must reproduce the first one's output digests.

Untraced, every pass runs the program as shipped.  Traced, passes come in
pairs on identical inputs, one untraced and one with the ledger's wrappers
installed, in alternating order; the pair gives the tracing overhead and
shows that the wrappers leave every output digest unchanged.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
from time import perf_counter

import ledger as ledgers
from workloads import TOPOLOGIES, WORKLOADS

PASSES = TOPOLOGIES
"""Distinct input passes per run: one per topology of the set-up pool."""


class NetworkCapture:
    """Holds the networks a call builds, so the worker can check that each
    one ended quiescent.  The wrapper on ``SimNetwork.__init__`` stays on for
    the whole run, traced or not; it costs one call per network built."""

    def __init__(self) -> None:
        from repro.sim.network import SimNetwork

        self.nets: list = []
        self.restore = ledgers.patch(SimNetwork, "__init__", self._wrap)

    def _wrap(self, init):
        nets = self.nets

        def capture(net, *args, **kwargs):
            init(net, *args, **kwargs)
            nets.append(net)

        return capture

    def problems(self) -> list[str]:
        out = []
        for net in self.nets:
            try:
                net.assert_quiescent()
            except AssertionError as exc:
                out.append(str(exc))
        self.nets.clear()
        return out


def run_pass(wl, calls, capture: NetworkCapture,
             ledger: ledgers.Ledger | None = None) -> dict:
    """Time each call of one pass; check and digest its outputs."""
    results = []
    records: dict[str, list[str]] = {}
    for call in calls:
        out, error = None, None
        t0 = perf_counter()
        if ledger is not None:
            ledger.enter(ledgers.ROOT)
        try:
            out = call.fn()
        except Exception as exc:  # a failed call is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if ledger is not None:
                ledger.exit()
        seconds = perf_counter() - t0
        if error is None:
            problems = wl.check(call, out) + capture.problems()
            records.setdefault(call.scheme, []).append(wl.record(out))
        else:
            problems = [error]
            capture.nets.clear()
        results.append({
            "scheme": call.scheme,
            "label": call.label,
            "s": seconds,
            "ops": 0 if out is None else wl.ops(out),
            "problems": problems,
        })
    return {
        "wall_s": sum(c["s"] for c in results),
        "calls": results,
        "digests": {
            scheme: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for scheme, lines in records.items()
        },
    }


def traced_pass(wl, calls, capture: NetworkCapture,
                keep_spans: int) -> tuple[dict, ledgers.Ledger]:
    ledger = ledgers.Ledger(keep_spans)
    uninstall = ledgers.install(ledger)
    try:
        result = run_pass(wl, calls, capture, ledger)
    finally:
        uninstall()
    return result, ledger


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[1])
    wl = WORKLOADS[cfg["workload"]](cfg["profile"])
    trace, seconds = cfg["trace"], cfg["seconds"]

    setup_ledger = ledgers.Ledger()
    uninstall = ledgers.install(setup_ledger) if trace else None
    try:
        state = wl.setup(cfg["seed"])
    finally:
        if uninstall:
            uninstall()
    inputs = [wl.calls(state, p) for p in range(PASSES)]
    print("ready", flush=True)
    if cfg["setup_only"]:
        return 0

    capture = NetworkCapture()
    passes: list[dict] = []
    traced: list[dict] = []
    layer_passes: list[dict] = []
    first_ledger = None
    start = perf_counter()
    spent: list[float] = []
    k = 0
    while True:
        t0 = perf_counter()
        p = k % PASSES
        if trace:
            # Alternate which half of the pair runs first, so neither side
            # always inherits the other's warm caches.
            for traced_half in ((True, False) if k % 2 else (False, True)):
                if traced_half:
                    result, ledger = traced_pass(
                        wl, inputs[p], capture,
                        ledgers.SPAN_CAP if k == 0 else 0,
                    )
                    traced.append(dict(result, p=p))
                    layer_passes.append(ledger.metrics())
                    if k == 0:
                        first_ledger = ledger
                else:
                    passes.append(dict(run_pass(wl, inputs[p], capture), p=p))
        else:
            passes.append(dict(run_pass(wl, inputs[p], capture), p=p))
        spent.append(perf_counter() - t0)
        k += 1
        if perf_counter() - start + statistics.median(spent) > seconds:
            break
    capture.restore()

    out = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if trace:
        out["traced_passes"] = traced
        out["layers"] = summarize_layers(
            setup_ledger, layer_passes, passes, traced
        )
        if cfg.get("trace_file"):
            first_ledger.write_chrome_trace(cfg["trace_file"], start)
    print(json.dumps(out), flush=True)
    return 0


def summarize_layers(setup_ledger, layer_passes, passes, traced) -> dict:
    """Per-layer metrics of a traced run.

    Counts come from pass 0, so they are a pure function of the seed; times
    are medians over the traced passes.  Topology generation happens in
    set-up, which is traced once, so ``topology.generate_s`` comes from there.
    """
    out = {}
    for name, unit, _line in ledgers.LAYER_METRICS:
        if unit in ledgers.DETERMINISTIC_UNITS:
            out[name] = layer_passes[0][name]
        elif name in layer_passes[0]:
            out[name] = statistics.median(m[name] for m in layer_passes)
    out["topology.generate_s"] = setup_ledger.incl_s["topology.generate"]
    out["trace.overhead_frac"] = statistics.median(
        t["wall_s"] / u["wall_s"] for t, u in zip(traced, passes)
    ) - 1
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv))
