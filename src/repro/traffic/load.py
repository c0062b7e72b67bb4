"""Open-loop multicast load experiments (Section 4.3 of the paper).

Every node generates multicast operations as a Poisson process; each
operation targets a uniform random destination set of fixed degree ``d``.
The paper's stimulus measure is the *effective applied load*: for a
per-multicast generation load of ``l`` (flits/cycle/node of raw message
data), the effective load is ``l * d`` -- each multicast moves ``d`` copies.

Latency is measured on operations issued after a cold-start window; a point
is *saturated* when the system cannot keep up with the offered load, which we
detect by completion shortfall (operations issued in the measurement window
that never complete by the end of a generous drain period).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.metrics.stats import summarize
from repro.multicast import make_scheme
from repro.multicast.base import MulticastResult
from repro.params import SimParams
from repro.sim.network import SimNetwork
from repro.topology.graph import NetworkTopology


@dataclass(frozen=True)
class LoadPoint:
    """One point on a latency-vs-applied-load curve."""

    effective_load: float
    """Offered load x degree, in flits/cycle/node (the paper's x-axis)."""

    degree: int
    mean_latency: float | None
    """Mean multicast latency of measured completed ops; None if nothing
    completed (deeply saturated)."""

    p95_latency: float | None
    issued: int
    """Operations issued in the measurement window (at or after ``warmup``);
    the statistics population and the saturation denominator."""

    completed: int
    saturated: bool
    """True when the offered load exceeded what the system drained."""

    warmup_ops: int = 0
    """Operations generated before ``warmup`` -- they load the network but
    are excluded from latency statistics and the saturation check."""

    measured_window: float = 0.0
    """Length in cycles of the measurement window (generation end minus
    warmup, after any ``min_measured_ops`` extension).  Zero when warmup
    consumed the whole generation window -- such a point has no measured
    population and must report unsaturated, not divide by zero."""

    @property
    def completion_ratio(self) -> float:
        return self.completed / self.issued if self.issued else 1.0

    @property
    def throughput(self) -> float:
        """Measured completions per cycle; 0.0 on a zero-duration window."""
        if self.measured_window <= 0:
            return 0.0
        return self.completed / self.measured_window


def saturated_by_shortfall(
    issued: int, completed: int, threshold: float
) -> bool:
    """The completion-shortfall saturation rule.

    A load point saturates when strictly fewer than ``threshold * issued``
    of the measured operations completed within the drain window; a point
    sitting exactly on the threshold (or with nothing measured) does not.
    """
    return issued > 0 and completed < threshold * issued


def run_load_experiment(
    topo: NetworkTopology,
    params: SimParams,
    scheme_name: str,
    degree: int,
    effective_load: float,
    duration: int = 200_000,
    warmup: int = 20_000,
    drain_factor: float = 1.0,
    seed: int = 99,
    saturation_threshold: float = 0.9,
    min_measured_ops: int = 30,
    pattern: "str | None" = None,
    **scheme_kw,
) -> LoadPoint:
    """Apply Poisson multicast traffic at one load point and measure latency.

    Args:
        degree: destinations per multicast (the paper's "d-way").
        effective_load: ``l * d`` in flits/cycle/node.
        duration: generation window in cycles.
        warmup: ops issued before this time are excluded from statistics
            (the paper's cold-start of the first measurement interval).
        drain_factor: after generation stops, the simulation runs a further
            ``drain_factor * duration`` cycles so in-flight ops can finish.
        saturation_threshold: a point is saturated when fewer than this
            fraction of measured ops completed within the drain window.
        min_measured_ops: the generation window is extended (never shortened)
            so the whole system is expected to issue at least this many
            measured operations -- very light loads with long messages would
            otherwise produce empty samples in short runs.
        pattern: destination-set distribution -- a name from
            :data:`repro.traffic.patterns.PATTERNS` or a callable; default
            uniform (the paper's draw).
    """
    if degree < 1 or degree >= topo.num_nodes:
        raise ValueError("degree must be in [1, num_nodes)")
    if not 0 < effective_load < math.inf:
        raise ValueError(
            f"effective_load must be finite and positive, got {effective_load}"
        )
    if not 0 <= drain_factor < math.inf:
        raise ValueError(
            f"drain_factor must be finite and >= 0, got {drain_factor}"
        )
    from repro.traffic.patterns import resolve_pattern

    draw_dests = resolve_pattern(pattern)
    net = SimNetwork(topo, params)
    scheme = make_scheme(scheme_name, **scheme_kw)
    scheme.enable_plan_cache()  # deterministic plans; pure speed-up
    rng = random.Random(seed)
    # ops per cycle per node: raw load l = effective / d, in flits/cyc/node;
    # one op injects message_flits flits.
    rate = effective_load / (degree * params.message_flits)
    if min_measured_ops > 0:
        needed = warmup + min_measured_ops / (rate * topo.num_nodes)
        duration = max(duration, int(needed))

    measured: list[MulticastResult] = []
    warmup_ops = 0

    def issue(node: int) -> None:
        nonlocal warmup_ops
        t = net.engine.now
        dests = draw_dests(rng, topo, node, degree)
        res = scheme.execute(net, node, dests)
        if t >= warmup:
            measured.append(res)
        else:
            warmup_ops += 1
        # next arrival for this node
        gap = rng.expovariate(rate)
        if t + gap < duration:
            net.engine.at(t + gap, lambda: issue(node))

    for node in range(topo.num_nodes):
        first = rng.expovariate(rate)
        if first < duration:
            net.engine.at(first, lambda n=node: issue(n))

    net.run(until=duration + drain_factor * duration)
    # A saturated point stops at the drain horizon with work queued, whose
    # callbacks close over the network; abandon it.
    net.discard_pending()
    # ``issue`` reaches itself through its closure cell, a cycle that would
    # hold the network until the cycle collector runs; emptying the cell
    # lets it die by reference counting.
    del issue
    # Drop anything still outstanding past the drain horizon.
    completed = [r for r in measured if r.complete]
    lat = [r.latency for r in completed]
    summary = summarize(lat) if lat else None
    # A warmup at or past the generation end leaves a zero-duration
    # measurement window: nothing is measured, so the saturation rule sees
    # issued == 0 and reports False (the shortfall rule's vacuous case),
    # and the throughput property guards the division.
    return LoadPoint(
        effective_load=effective_load,
        degree=degree,
        mean_latency=summary.mean if summary else None,
        p95_latency=summary.p95 if summary else None,
        issued=len(measured),
        completed=len(completed),
        saturated=saturated_by_shortfall(
            len(measured), len(completed), saturation_threshold
        ),
        warmup_ops=warmup_ops,
        measured_window=float(max(0, duration - warmup)),
    )


def sweep_load(
    topo: NetworkTopology,
    params: SimParams,
    scheme_name: str,
    degree: int,
    loads: list[float],
    **kw,
) -> list[LoadPoint]:
    """Latency-vs-load curve: one :func:`run_load_experiment` per point."""
    return [
        run_load_experiment(topo, params, scheme_name, degree, load, **kw)
        for load in loads
    ]
