"""A minimal deterministic discrete-event engine.

Callback-based (no coroutine machinery): events are ``(time, seq, fn)``
triples in a binary heap.  Ties in time fire in schedule order, which makes
every simulation a pure function of its inputs -- a property the test-suite
and the paper-style topology averaging both rely on.

Times are integers (cycles) by convention, though the engine itself accepts
floats (the I/O-bus DMA model produces fractional completion times).

The clock only moves forward: scheduling in the past (``at``/``after``) and
running "until" a time before ``now`` both raise ``ValueError`` (NaN
included: each guard is written ``not x >= bound``), and the
``max_events`` safety valve stops after firing exactly that many events.
"""

from __future__ import annotations

import heapq
from typing import Callable


class Engine:
    """Event queue with a current virtual time."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._events_fired = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to fire at absolute virtual time ``time``.

        Scheduling in the past raises ``ValueError`` -- it always indicates a
        modelling bug and silently clamping would corrupt causality.
        """
        if not time >= self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn))

    def after(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to fire ``delay`` cycles from now."""
        if not delay >= 0:
            raise ValueError(f"negative delay {delay}")
        self.at(self.now + delay, fn)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event queue.

        Args:
            until: stop once the next event would fire after this time (the
                clock is left at ``until``).  Must not lie before ``now``:
                like :meth:`at`, running "until" the past raises
                ``ValueError`` rather than silently rewinding the clock.
            max_events: safety valve against runaway simulations; fires at
                most ``max_events`` events and raises ``RuntimeError`` if
                more remain.  This guards infinite event loops such as
                zero-delay retry cycles.
        """
        if until is not None and not until >= self.now:
            raise ValueError(f"cannot run until {until} < now {self.now}")
        fired = 0
        while self._heap:
            time, _seq, fn = self._heap[0]
            if until is not None and time > until:
                self.now = until
                return
            if max_events is not None and fired >= max_events:
                raise RuntimeError(f"exceeded max_events={max_events}")
            heapq.heappop(self._heap)
            self.now = time
            fn()
            fired += 1
            self._events_fired += 1
        if until is not None:
            self.now = until

    def step(self, until: float | None = None) -> bool:
        """Fire exactly one event; returns False when the queue is empty.

        ``step`` honours the same contract as :meth:`run`: passing an
        ``until`` before ``now`` raises ``ValueError`` (the clock never
        rewinds), and when the next event lies beyond ``until`` nothing
        fires -- the clock advances to ``until`` and ``False`` is returned,
        exactly as a bounded :meth:`run` would leave it, so a caller
        stepping toward a time bound neither rewinds nor overshoots it.
        """
        if until is not None and not until >= self.now:
            raise ValueError(f"cannot step until {until} < now {self.now}")
        if not self._heap:
            if until is not None:
                self.now = until
            return False
        time, _seq, fn = self._heap[0]
        if until is not None and time > until:
            self.now = until
            return False
        heapq.heappop(self._heap)
        self.now = time
        fn()
        self._events_fired += 1
        return True

    def clear(self) -> None:
        """Drop every scheduled event; ``now`` and ``events_fired`` stay."""
        self._heap.clear()

    def next_event_time(self) -> float | None:
        """Time of the earliest scheduled event (``None`` when idle)."""
        return self._heap[0][0] if self._heap else None

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-fired events."""
        return len(self._heap)

    @property
    def events_fired(self) -> int:
        """Total events executed since construction (for perf accounting)."""
        return self._events_fired
