"""Contention resources: unit-capacity FIFO grants and rate-limited pipes.

Three resource shapes cover everything in the modelled system:

* :class:`MultiLaneResource` -- ``lanes`` independent grant slots with
  deterministic lane allocation.  Every physical channel in the fabric is
  one (:class:`~repro.sim.fabric.Channel` subclasses it); with one lane it
  behaves exactly like a :class:`FifoResource`.
* :class:`FifoResource` -- one owner at a time, FIFO grant order.  Models
  host CPUs and NI processors.
* :class:`ThroughputResource` -- a serial pipe moving ``rate`` flits/cycle;
  models the host I/O bus shared by inbound and outbound DMA.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.sim.engine import Engine

GrantFn = Callable[[], None]
LaneGrantFn = Callable[[int], None]

_NO_WAITERS: tuple = ()
"""A resource's wait queue until its first requester has to wait.

Most channels, host CPUs and NIs of a run never queue anyone, and an empty
``deque`` costs 760 bytes, so each resource swaps this shared empty tuple
for a ``deque`` on its first wait (``len``, truth and iteration work on
both)."""


class MultiLaneResource:
    """A ``lanes``-capacity resource with deterministic lane allocation.

    Models a physical channel carved into virtual channels: each of the
    ``lanes`` grant slots is an independent full-rate lane of the channel
    (the multi-lane MIN interpretation -- lanes do not time-share bandwidth,
    so worm timing is unchanged by which lane carries it).

    Allocation is deterministic: a request scans for a free lane starting at
    a rotating pointer seeded by ``lane_seed`` (creation-order, i.e.
    lane-index, tie-break within the scan) and the pointer advances past each
    granted lane -- round-robin arbitration across lanes.  ``request(fn)``
    invokes ``fn(lane)`` synchronously when a lane is free, else queues FIFO;
    a release grants the first admissible waiter on the freed lane via a
    fresh zero-delay engine event.  With ``lanes=1`` the event sequence is
    byte-identical to the historical single-lane :class:`FifoResource`
    protocol (synchronous grant when idle, ``engine.after(0, ...)`` grant on
    release-with-queue).

    ``adaptive_only=True`` requests refuse lane 0 (the escape lane); they are
    issued by escape-mode routing only when a higher lane is known free, so
    in practice they always grant synchronously and never block on lane 0.
    A one-lane resource has no lane such a request accepts, so it raises
    ``ValueError`` instead of queueing a requester that is never granted.
    """

    __slots__ = (
        "engine",
        "name",
        "lanes",
        "_owned",
        "_queue",
        "_next_lane",
        "grants",
        "releases",
        "peak_owned",
        "release_hook",
        "busy_time",
        "_granted_at",
    )

    def __init__(
        self,
        engine: Engine,
        lanes: int = 1,
        name: str = "",
        lane_seed: int = 0,
    ) -> None:
        if lanes < 1:
            raise ValueError("a channel needs at least one lane")
        self.engine = engine
        self.name = name
        self.lanes = lanes
        self._owned = [False] * lanes
        self._queue: deque[tuple[LaneGrantFn, bool]] | tuple = _NO_WAITERS
        self._next_lane = lane_seed % lanes
        self.grants = 0
        self.releases = 0
        self.peak_owned = 0
        """High-water mark of concurrently owned lanes (oracle food)."""
        self.release_hook: Callable[[float], None] | None = None
        """Observability: called with the release time on every release."""
        self.busy_time = 0.0
        """Accumulated lane-owned time (grant to release), summed over lanes."""
        self._granted_at = [0.0] * lanes

    def _find_free_lane(self, adaptive_only: bool) -> int | None:
        """First free admissible lane scanning from the rotating pointer."""
        for off in range(self.lanes):
            lane = (self._next_lane + off) % self.lanes
            if not self._owned[lane] and not (adaptive_only and lane == 0):
                return lane
        return None

    def _grant(self, lane: int) -> None:
        self._owned[lane] = True
        self.grants += 1
        self._granted_at[lane] = self.engine.now
        self._next_lane = (lane + 1) % self.lanes
        owned = sum(self._owned)
        if owned > self.peak_owned:
            self.peak_owned = owned

    def request(self, fn: LaneGrantFn, adaptive_only: bool = False) -> None:
        """Queue for a lane; ``fn(lane)`` fires on grant.

        Raises:
            ValueError: for an ``adaptive_only`` request on a one-lane
                resource, which no release could ever grant.
        """
        if adaptive_only and self.lanes == 1:
            raise ValueError(
                f"adaptive_only request on {self.name!r}, which has one "
                "lane: it refuses lane 0 and could never be granted"
            )
        lane = self._find_free_lane(adaptive_only)
        if lane is not None:
            self._grant(lane)
            fn(lane)
        else:
            if self._queue is _NO_WAITERS:
                self._queue = deque()
            self._queue.append((fn, adaptive_only))

    def release(self, lane: int = 0) -> None:
        """Give ``lane`` up; the first admissible waiter is granted now."""
        if not self._owned[lane]:
            raise RuntimeError(f"release of idle lane {lane} of {self.name!r}")
        self.busy_time += self.engine.now - self._granted_at[lane]
        self.releases += 1
        if self.release_hook is not None:
            self.release_hook(self.engine.now)
        for i, (fn, adaptive_only) in enumerate(self._queue):
            if adaptive_only and lane == 0:
                continue
            del self._queue[i]
            self._grant(lane)
            # Fire through the engine so a grant is always a fresh event at
            # the current time (keeps callback stacks shallow/deterministic).
            self.engine.after(0, lambda fn=fn, lane=lane: fn(lane))
            return
        self._owned[lane] = False

    @property
    def busy(self) -> bool:
        """Whether any lane is currently owned."""
        return any(self._owned)

    @property
    def owned_lanes(self) -> int:
        """Number of lanes currently owned."""
        return sum(self._owned)

    @property
    def has_free_lane(self) -> bool:
        """Whether a request right now would be granted synchronously."""
        return not all(self._owned)

    @property
    def has_free_adaptive_lane(self) -> bool:
        """Whether an ``adaptive_only`` request would grant synchronously."""
        return any(not o for o in self._owned[1:])

    @property
    def queue_length(self) -> int:
        """Requesters waiting (excludes current lane owners)."""
        return len(self._queue)

    def drop_waiters(self) -> None:
        """Forget every queued requester; their grants never fire."""
        self._queue = _NO_WAITERS


class FifoResource:
    """A unit-capacity resource granted in strict request order.

    ``request(fn)`` queues ``fn``; it is invoked (at the engine's current
    time) the moment the resource becomes this requester's.  The grantee must
    eventually call :meth:`release` exactly once.
    """

    __slots__ = (
        "engine",
        "name",
        "_busy",
        "_queue",
        "grants",
        "release_hook",
        "busy_time",
        "_granted_at",
    )

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._busy = False
        self._queue: deque[GrantFn] | tuple = _NO_WAITERS
        self.grants = 0
        self.release_hook: Callable[[float], None] | None = None
        """Observability: called with the release time on every release."""
        self.busy_time = 0.0
        """Accumulated owned time (grant to release), for utilization."""
        self._granted_at = 0.0

    def request(self, fn: GrantFn) -> None:
        """Queue for the resource; ``fn`` fires on grant."""
        if not self._busy:
            self._busy = True
            self.grants += 1
            self._granted_at = self.engine.now
            fn()
        else:
            if self._queue is _NO_WAITERS:
                self._queue = deque()
            self._queue.append(fn)

    def release(self) -> None:
        """Give the resource up; the next queued requester is granted now."""
        if not self._busy:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        self.busy_time += self.engine.now - self._granted_at
        if self.release_hook is not None:
            self.release_hook(self.engine.now)
        if self._queue:
            fn = self._queue.popleft()
            self.grants += 1
            self._granted_at = self.engine.now
            # Fire through the engine so a grant is always a fresh event at
            # the current time (keeps callback stacks shallow/deterministic).
            self.engine.after(0, fn)
        else:
            self._busy = False

    @property
    def busy(self) -> bool:
        """Whether the resource is currently owned."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Requesters waiting (excludes the current owner)."""
        return len(self._queue)

    def drop_waiters(self) -> None:
        """Forget every queued requester; their grants never fire."""
        self._queue = _NO_WAITERS

    def hold_for(self, duration: float, then: GrantFn | None = None) -> None:
        """Convenience: request, hold ``duration`` cycles, release.

        ``then`` fires at the moment of release (after it).  Models a CPU
        executing a software overhead block.
        """

        def on_grant() -> None:
            def done() -> None:
                self.release()
                if then is not None:
                    then()

            self.engine.after(duration, done)

        self.request(on_grant)


class ThroughputResource:
    """A serial pipe with finite bandwidth (flits/cycle).

    Transfers are serviced strictly in request order, back to back: a
    transfer of ``n`` flits completes ``n / rate`` cycles after the pipe gets
    to it.  This models DMA engines on the host I/O bus, where send and
    receive transfers of one node share the same bus.
    """

    __slots__ = ("engine", "rate", "name", "_free_at", "transfers", "flits_moved")

    def __init__(self, engine: Engine, rate: float, name: str = "") -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.engine = engine
        self.rate = rate
        self.name = name
        self._free_at = 0.0
        self.transfers = 0
        self.flits_moved = 0

    def transfer(self, flits: int, fn: GrantFn) -> float:
        """Enqueue a transfer; ``fn`` fires at completion.

        Returns the completion time (also the time ``fn`` fires).
        """
        if flits < 0:
            raise ValueError("negative transfer size")
        start = max(self.engine.now, self._free_at)
        end = start + flits / self.rate
        self._free_at = end
        self.transfers += 1
        self.flits_moved += flits
        self.engine.at(end, fn)
        return end
