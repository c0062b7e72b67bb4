"""The open-loop collective workload engine.

:func:`drive_admissions` is the low-level loop: given a materialised
arrival schedule (:mod:`repro.workloads.arrivals`), it admits every
operation at its scheduled time -- *never* waiting for earlier operations
to finish -- and records completion times as the collectives fire their
callbacks.  The fuzz collectives oracle drives scenarios through this same
function, so the tested admission path and the fuzzed one are one path.

:func:`run_workload` is the full experiment cell: calibrate per-kind
deadlines against an isolated baseline, admit the schedule, drain, and
fold completions into a :class:`~repro.metrics.QuantileDigest` tail
summary (p50/p99/p999, deadline-miss fraction, saturation throughput).

The open-loop contract, concretely: the number of admitted operations is a
pure function of ``(seed, rate, duration, kinds, process)`` -- the same for
a fast scheme and a slow one -- so comparing schemes at one load point
compares them under identical offered traffic.  A closed loop (admit on
completion) would let the slow scheme throttle its own stimulus and hide
exactly the congestion collapse the tail percentiles exist to show.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.collectives import ops as collectives
from repro.metrics.quantiles import QuantileDigest
from repro.params import SimParams
from repro.sim.network import SimNetwork
from repro.topology.graph import NetworkTopology
from repro.traffic.load import saturated_by_shortfall
from repro.workloads.arrivals import (
    COLLECTIVE_KINDS,
    OpArrival,
    arrival_schedule,
    derive_seed,
    schedule_digest,
)

DEFAULT_DEADLINE_FACTOR = 4.0
"""Deadline budget per op = factor x the kind's isolated baseline latency."""

DEFAULT_DRAIN_FACTOR = 2.0
"""Post-admission drain window = factor x the admission duration."""

SATURATION_THRESHOLD = 0.9
"""Same completion-shortfall rule as :mod:`repro.traffic.load`."""

_MAX_EVENTS = 5_000_000
"""Engine safety valve per workload run (a saturated mix must terminate)."""


@dataclass
class OpRecord:
    """One admitted collective operation's lifecycle."""

    index: int
    kind: str
    root: int
    admit_time: float
    deadline: float | None
    """Absolute completion deadline, or None when deadlines are off."""

    complete_time: float | None = None
    gave_up: bool = False
    """Reliable delivery exhausted its retries (faulted runs only)."""

    delivered: int = 0
    """Distinct per-node completion notifications -- the exactly-once
    audit surface (each participant must appear exactly once)."""

    @property
    def complete(self) -> bool:
        return self.complete_time is not None

    @property
    def latency(self) -> float:
        if self.complete_time is None:
            raise RuntimeError(f"op {self.index} ({self.kind}) not complete")
        return self.complete_time - self.admit_time

    @property
    def met_deadline(self) -> bool:
        """Deadline verdict; completion *exactly at* the deadline is met.

        The boundary is a contract, not an accident: latencies are sums of
        integer-cycle overheads, so an op tuned to land on its budget must
        count as on-time on every platform.
        """
        if self.deadline is None:
            return self.complete
        return (
            self.complete_time is not None
            and self.complete_time <= self.deadline
        )


def collective_baselines(
    topo: NetworkTopology,
    params: SimParams,
    scheme_name: str,
    kinds: Sequence[str] = COLLECTIVE_KINDS,
    **scheme_kw,
) -> dict[str, float]:
    """Isolated (zero-contention) latency of each collective kind.

    Each kind runs alone, from root 0, on a fresh network -- the deadline
    calibration reference.  Deterministic: no random draws anywhere.
    """
    out: dict[str, float] = {}
    for kind in kinds:
        net = SimNetwork(topo, params)
        rec = _admit(net, scheme_name, kind, 0, scheme_kw, None, None)
        net.run(max_events=_MAX_EVENTS)
        if not rec.complete:
            raise RuntimeError(
                f"isolated {kind} baseline did not complete on an idle "
                f"network ({scheme_name})"
            )
        out[kind] = rec.latency
    return out


def _admit(
    net: SimNetwork,
    scheme_name: str,
    kind: str,
    root: int,
    scheme_kw: Mapping[str, object],
    record: "OpRecord | None",
    reliable,
) -> OpRecord:
    """Launch one collective now; return its (live) record."""
    rec = record or OpRecord(0, kind, root, net.engine.now, None)

    def done(res) -> None:
        rec.complete_time = net.engine.now
        rec.delivered = len(getattr(res, "node_times", getattr(res, "acked", ())))

    if kind == "broadcast":
        if reliable is not None:
            dests = [n for n in range(net.topo.num_nodes) if n != root]

            def rel_done(res) -> None:
                rec.complete_time = net.engine.now
                rec.delivered = len(res.acked)

            res = reliable.send(root, dests, rel_done)
            # A send that exhausts retries never calls back; the gave_up
            # flag is read off the result after the drain (see run_workload).
            rec._reliable = res  # type: ignore[attr-defined]
        else:
            collectives.broadcast(net, root, scheme_name, done, **scheme_kw)
    elif kind == "allreduce":
        collectives.allreduce(net, root, scheme_name, done, **scheme_kw)
    elif kind == "barrier":
        collectives.barrier(net, root, scheme_name, done, **scheme_kw)
    else:
        raise ValueError(f"unknown collective kind {kind!r}")
    return rec


def drive_admissions(
    net: SimNetwork,
    scheme_name: str,
    schedule: Sequence[OpArrival],
    *,
    deadline_budget: Mapping[str, float] | None = None,
    scheme_kw: Mapping[str, object] | None = None,
    reliable=None,
) -> list[OpRecord]:
    """Arm the whole schedule on the engine; open-loop by construction.

    Every op is scheduled *before* the run starts, purely from its arrival
    time -- no admission consults any completion state, so the offered
    sequence cannot depend on how the network is coping.  Run the engine
    afterwards; records fill in as collectives complete.

    Args:
        deadline_budget: per-kind relative budgets (cycles); an op's
            absolute deadline is ``admit_time + budget[kind]``.  None
            disables deadline accounting.
        reliable: a :class:`~repro.chaos.ReliableMulticast` to route
            broadcast ops through (faulted runs); other kinds reject it
            since their control planes have no retry path.
    """
    kw = dict(scheme_kw or {})
    if reliable is not None:
        bad = sorted({op.kind for op in schedule} - {"broadcast"})
        if bad:
            raise ValueError(
                f"reliable delivery only covers broadcast workloads; "
                f"schedule contains {bad}"
            )
    records: list[OpRecord] = []
    for op in schedule:
        budget = None
        if deadline_budget is not None:
            budget = float(deadline_budget[op.kind])
        rec = OpRecord(
            index=op.index,
            kind=op.kind,
            root=op.root,
            admit_time=op.time,
            deadline=None if budget is None else op.time + budget,
        )
        records.append(rec)
        net.engine.at(
            op.time,
            lambda rec=rec: _admit(
                net, scheme_name, rec.kind, rec.root, kw, rec, reliable
            ),
        )
    return records


@dataclass
class WorkloadReport:
    """Everything one workload cell reports (JSON-able via to_value)."""

    scheme: str
    kinds: tuple[str, ...]
    process: str
    rate: float
    duration: float
    warmup: float
    deadline_factor: float
    baselines: dict[str, float]
    schedule_sha: str
    records: list[OpRecord] = field(default_factory=list)
    faults_fired: int = 0
    gave_up: int = 0
    events: int = 0
    """Engine events fired by the run -- the deterministic work measure the
    raw-speed benchmark trajectory tracks (wall clock is not committed)."""

    # ------------------------------------------------------------------
    # Derived accounting (measured = admitted at or after warmup)
    # ------------------------------------------------------------------
    @property
    def admitted(self) -> int:
        return len(self.records)

    def _measured(self) -> list[OpRecord]:
        return [r for r in self.records if r.admit_time >= self.warmup]

    @property
    def measured(self) -> int:
        return len(self._measured())

    @property
    def completed(self) -> int:
        return sum(1 for r in self._measured() if r.complete)

    @property
    def missed(self) -> int:
        """Measured ops that blew their deadline *or* never completed."""
        return sum(1 for r in self._measured() if not r.met_deadline)

    @property
    def miss_fraction(self) -> float:
        n = self.measured
        return self.missed / n if n else 0.0

    @property
    def measured_window(self) -> float:
        return max(0.0, self.duration - self.warmup)

    @property
    def throughput(self) -> float:
        """Measured completions per cycle (0.0 on a zero-length window)."""
        w = self.measured_window
        return self.completed / w if w > 0 else 0.0

    @property
    def saturated(self) -> bool:
        return saturated_by_shortfall(
            self.measured, self.completed, SATURATION_THRESHOLD
        )

    def latency_digest(self) -> QuantileDigest:
        """Tail digest over measured *completed* op latencies."""
        digest = QuantileDigest()
        for r in self._measured():
            if r.complete:
                digest.add(r.latency)
        return digest

    def digest(self) -> str:
        """sha256 replay fingerprint over every op's full lifecycle."""
        h = hashlib.sha256()
        h.update(self.schedule_sha.encode())
        for r in self.records:
            line = (
                f"{r.index}:{r.kind}:{r.root}:{r.admit_time!r}:"
                f"{r.complete_time!r}:{int(r.met_deadline)}:"
                f"{int(r.gave_up)}:{r.delivered}\n"
            )
            h.update(line.encode())
        return h.hexdigest()

    def to_value(self) -> dict:
        """Plain-data cell value (what the cell cache stores)."""
        per_kind: dict[str, dict] = {}
        for kind in self.kinds:
            recs = [r for r in self._measured() if r.kind == kind]
            digest = QuantileDigest()
            for r in recs:
                if r.complete:
                    digest.add(r.latency)
            per_kind[kind] = {
                "measured": len(recs),
                "completed": sum(1 for r in recs if r.complete),
                "missed": sum(1 for r in recs if not r.met_deadline),
                "latency": digest.summary(),
            }
        return {
            "scheme": self.scheme,
            "kinds": list(self.kinds),
            "process": self.process,
            "rate": self.rate,
            "admitted": self.admitted,
            "measured": self.measured,
            "completed": self.completed,
            "missed": self.missed,
            "miss_fraction": self.miss_fraction,
            "throughput": self.throughput,
            "saturated": self.saturated,
            "latency": self.latency_digest().summary(),
            "per_kind": per_kind,
            "baselines": dict(self.baselines),
            "deadline_factor": self.deadline_factor,
            "faults_fired": self.faults_fired,
            "gave_up": self.gave_up,
            "events": self.events,
            "schedule_digest": self.schedule_sha,
        }


def run_workload(
    topo: NetworkTopology,
    params: SimParams,
    scheme_name: str,
    *,
    seed: int,
    rate: float,
    duration: float,
    warmup: float = 0.0,
    kinds: Sequence[str] = COLLECTIVE_KINDS,
    process: str = "poisson",
    deadline_factor: float = DEFAULT_DEADLINE_FACTOR,
    drain_factor: float = DEFAULT_DRAIN_FACTOR,
    fault_count: int = 0,
    reconfig_latency: float = 500.0,
    **scheme_kw,
) -> WorkloadReport:
    """One complete workload cell: calibrate, admit, drain, account.

    Args:
        rate: offered load in collective operations per cycle (whole
            machine) -- the workload sweep's x-axis.
        duration: admission horizon (cycles); warmup ops load the network
            but are excluded from the statistics, as in the load driver.
        deadline_factor: per-op deadline = this x the kind's isolated
            baseline latency (measured fresh per cell, so deadlines track
            the topology and parameter set automatically).
        fault_count: runtime link failures to inject (broadcast-only
            workloads; ops then go through reliable retried delivery).
        **scheme_kw: forwarded to the multicast scheme (e.g. NI variants).
    """
    if not 0 <= warmup < duration:
        raise ValueError(
            f"warmup must be finite, >= 0 and smaller than duration "
            f"{duration}, got {warmup}"
        )
    if not 0 < deadline_factor < math.inf:
        raise ValueError(
            f"deadline_factor must be finite and > 0, got {deadline_factor}"
        )
    if not 0 <= drain_factor < math.inf:
        raise ValueError(
            f"drain_factor must be finite and >= 0, got {drain_factor}"
        )
    kinds = tuple(kinds)
    schedule = arrival_schedule(
        seed,
        rate=rate,
        duration=duration,
        num_nodes=topo.num_nodes,
        kinds=kinds,
        process=process,
    )
    baselines = collective_baselines(
        topo, params, scheme_name, kinds, **scheme_kw
    )
    budget = {k: deadline_factor * v for k, v in baselines.items()}

    net = SimNetwork(topo, params)
    reliable = None
    if fault_count > 0:
        if kinds != ("broadcast",):
            raise ValueError(
                "faulted workloads are broadcast-only (allreduce/barrier "
                "control planes have no retry path)"
            )
        import random

        from repro.chaos import FaultInjector, FaultSchedule, ReliableMulticast
        from repro.multicast import make_scheme

        fault_rng = random.Random(derive_seed(seed, "workload-faults"))
        fault_sched = FaultSchedule.random(
            topo, fault_count, fault_rng, window=(warmup, duration)
        )
        FaultInjector(net, fault_sched, reconfig_latency).arm()
        reliable = ReliableMulticast(net, make_scheme(scheme_name, **scheme_kw))

    records = drive_admissions(
        net,
        scheme_name,
        schedule,
        deadline_budget=budget,
        scheme_kw=scheme_kw,
        reliable=reliable,
    )
    net.run(
        until=duration + drain_factor * duration, max_events=_MAX_EVENTS
    )
    events = net.engine.events_fired
    # Work still queued at the bound, and the reliable layer's listener,
    # close cycles through the network; dropping them lets it die by
    # reference counting.
    net.discard_pending()
    net.fault_listeners.clear()

    gave_up = 0
    for rec in records:
        res = getattr(rec, "_reliable", None)
        if res is not None and res.gave_up:
            rec.gave_up = True
            gave_up += 1
    return WorkloadReport(
        scheme=scheme_name,
        kinds=kinds,
        process=process,
        rate=rate,
        duration=float(duration),
        warmup=float(warmup),
        deadline_factor=deadline_factor,
        baselines=baselines,
        schedule_sha=schedule_digest(schedule),
        records=records,
        faults_fired=net.chaos.faults_fired,
        gave_up=gave_up,
        events=events,
    )


def run_workload_cell(
    params: SimParams,
    scheme: str,
    *,
    seed: int,
    collective: str,
    rate: float,
    duration: float,
    warmup: float,
    process: str,
    deadline_factor: float,
    fault_count: int = 0,
    scheme_kw: Mapping[str, object] | None = None,
) -> dict:
    """Cell-runner entry point: topology from params, report as plain data.

    ``collective`` is one kind name or a ``"+"``-joined mix (canonical
    order), e.g. ``"broadcast+allreduce"``.
    """
    from repro.topology.irregular import generate_topology_family

    topo = generate_topology_family(params, 1)[0]
    report = run_workload(
        topo,
        params,
        scheme,
        seed=seed,
        rate=rate,
        duration=duration,
        warmup=warmup,
        kinds=tuple(collective.split("+")),
        process=process,
        deadline_factor=deadline_factor,
        fault_count=fault_count,
        **dict(scheme_kw or {}),
    )
    value = report.to_value()
    value["digest"] = report.digest()
    return value
