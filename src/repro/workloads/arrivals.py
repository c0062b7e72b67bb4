"""Seeded open-loop arrival schedules for collective workloads.

The schedule is materialised *before* the simulation starts and is the sole
source of admissions: the driver admits op ``i`` at ``time_i`` no matter
what is still in flight, which is exactly the open-loop contract -- a slow
scheme cannot throttle its own offered load.

Rate independence is built in rather than tested for: the arrival process
(:mod:`repro.traffic.patterns`) emits a *unit-rate* clock, and only the
scaled ``time = unit_time / rate`` depends on the offered rate.  Per-op
attributes (kind, root) come from a second RNG stream derived from the same
seed, so two schedules at different rates share a byte-identical
``(index, unit_time, kind, root)`` prefix for as long as both are still
admitting.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Sequence

from repro.traffic.patterns import ArrivalProcess, resolve_arrival_process

COLLECTIVE_KINDS = ("broadcast", "allreduce", "barrier")
"""The collectives the workload engine can drive, in canonical order."""


def derive_seed(base_seed: int, *key: object) -> int:
    """Deterministic sub-seed from ``(base_seed, key...)``.

    sha256 over canonical JSON (never :func:`hash`, which is salted per
    process), so arrival schedules, churn streams and fuzz scenarios
    reproduce across platforms and invocations.  The experiment runner's
    cell seeds hash a different payload (:func:`repro.experiments.runner
    .derive_seed`).
    """
    payload = json.dumps([base_seed, list(key)], sort_keys=True,
                         separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (1 << 62)


@dataclass(frozen=True)
class OpArrival:
    """One scheduled collective admission."""

    index: int
    time: float
    """Admission time in cycles (``unit_time / rate``)."""

    unit_time: float
    """Rate-independent arrival clock -- the prefix-sharing invariant lives
    here, not in ``time`` (dividing by different rates is not exact)."""

    kind: str
    root: int

    def key(self) -> tuple[int, float, str, int]:
        """The rate-independent identity used by prefix/digest checks."""
        return (self.index, self.unit_time, self.kind, self.root)


def arrival_schedule(
    seed: int,
    *,
    rate: float,
    duration: float,
    num_nodes: int,
    kinds: Sequence[str] = COLLECTIVE_KINDS,
    process: "str | ArrivalProcess" = "poisson",
) -> list[OpArrival]:
    """Materialise the admission schedule for one workload run.

    Args:
        seed: workload seed; the gap and attribute streams are derived from
            it, so the schedule is a pure function of the arguments.
        rate: offered load in operations per cycle (whole machine).
        duration: admission horizon in cycles; ops whose scaled time lands
            at or past it are not admitted (the run then drains).
        num_nodes: root draw range.
        kinds: collective kinds to mix, drawn uniformly per op.  Order
            matters for determinism; pass a subset of
            :data:`COLLECTIVE_KINDS` for single-collective cells.
        process: temporal arrival process name or callable
            (:data:`repro.traffic.patterns.ARRIVAL_PROCESSES`).
    """
    if not 0 < rate < math.inf:
        raise ValueError(f"rate must be finite and positive, got {rate}")
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be finite and positive, got {duration}")
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if not kinds:
        raise ValueError("at least one collective kind required")
    for k in kinds:
        if k not in COLLECTIVE_KINDS:
            raise ValueError(
                f"unknown collective kind {k!r}; "
                f"choose from {list(COLLECTIVE_KINDS)}"
            )
    gap_rng = random.Random(derive_seed(seed, "workload-gaps"))
    attr_rng = random.Random(derive_seed(seed, "workload-attrs"))
    clock = resolve_arrival_process(process)(gap_rng)

    kinds = tuple(kinds)
    ops: list[OpArrival] = []
    for unit_time in clock:
        time = unit_time / rate
        if time >= duration:
            break
        # Attribute draws happen for every *emitted* clock tick in order,
        # so the attribute stream position only depends on the op index --
        # never on the rate.
        kind = kinds[attr_rng.randrange(len(kinds))]
        root = attr_rng.randrange(num_nodes)
        ops.append(OpArrival(len(ops), time, unit_time, kind, root))
    return ops


def schedule_digest(ops: Sequence[OpArrival]) -> str:
    """sha256 over the rate-independent schedule identity.

    Uses ``repr`` of the float unit times (shortest round-trip repr), so
    equal digests mean byte-identical schedules.
    """
    h = hashlib.sha256()
    for op in ops:
        h.update(
            f"{op.index}:{op.unit_time!r}:{op.kind}:{op.root}\n".encode()
        )
    return h.hexdigest()
