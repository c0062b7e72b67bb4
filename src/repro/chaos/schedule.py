"""Deterministic runtime fault schedules.

A schedule is data, not behaviour: an ordered tuple of
``FaultEvent(time, link_id)`` records.  Arming it on a network (and all the
messy consequences -- aborts, nacks, reconfiguration) is
:class:`~repro.chaos.injector.FaultInjector`'s job, which keeps schedules
trivially serializable for the fuzz corpus.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.topology.faults import schedule_faults
from repro.topology.graph import NetworkTopology


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One runtime link failure: ``link_id`` dies at simulated ``time``."""

    time: float
    link_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.time < math.inf:
            raise ValueError(
                f"fault time must be finite and non-negative, got {self.time}"
            )
        if self.link_id < 0:
            raise ValueError("link_id must be non-negative")


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-ordered sequence of runtime link faults."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        times = [ev.time for ev in self.events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("fault events must be ordered by time")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @classmethod
    def from_pairs(cls, pairs: "list[tuple[float, int]] | tuple") -> "FaultSchedule":
        """Build from ``(time, link_id)`` pairs (sorted here for you)."""
        events = sorted(FaultEvent(t, lk) for t, lk in pairs)
        return cls(events=tuple(events))

    @classmethod
    def random(
        cls,
        topo: NetworkTopology,
        n_failures: int,
        rng: random.Random | None = None,
        window: tuple[float, float] = (0.0, 1000.0),
    ) -> "FaultSchedule":
        """Seeded random schedule whose links fail sequentially-removably
        (see :func:`repro.topology.faults.schedule_faults`)."""
        return cls.from_pairs(schedule_faults(topo, n_failures, rng, window))

    def to_pairs(self) -> list[tuple[float, int]]:
        """Plain ``(time, link_id)`` pairs (fuzz-corpus serialization)."""
        return [(ev.time, ev.link_id) for ev in self.events]
