"""Common interface and result record for multicast schemes."""

from __future__ import annotations

import abc
import weakref
from dataclasses import dataclass, field
from typing import Callable

from repro.sim.network import SimNetwork


@dataclass
class MulticastResult:
    """Outcome of one multicast operation.

    ``delivery_times[d]`` is the time destination ``d``'s *host* received the
    complete message (after its receive software overhead) -- the paper's
    completion criterion.  ``latency`` is the multicast latency: last host
    delivery minus operation start.
    """

    source: int
    dests: tuple[int, ...]
    start_time: float
    delivery_times: dict[int, float] = field(default_factory=dict)
    complete_time: float | None = None
    dest_hook: "Callable[[int, float], None] | None" = None
    """Optional observer fired on every per-destination host delivery
    (used e.g. by ack-collecting collectives)."""

    @property
    def complete(self) -> bool:
        """All destinations have received the message at the host."""
        return self.complete_time is not None

    @property
    def latency(self) -> float:
        """Multicast latency (raises if the operation has not finished)."""
        if self.complete_time is None:
            raise RuntimeError("multicast not complete")
        return self.complete_time - self.start_time

    def dest_latency(self, dest: int) -> float:
        """Latency to one destination."""
        return self.delivery_times[dest] - self.start_time

    def _record(self, dest: int, time: float,
                on_complete: Callable[["MulticastResult"], None] | None) -> None:
        if dest in self.delivery_times:
            raise RuntimeError(f"destination {dest} delivered twice")
        if dest not in self.dests:
            raise RuntimeError(f"{dest} is not a destination of this multicast")
        self.delivery_times[dest] = time
        if self.dest_hook is not None:
            self.dest_hook(dest, time)
        if len(self.delivery_times) == len(self.dests):
            self.complete_time = time
            if on_complete is not None:
                on_complete(self)


class MulticastScheme(abc.ABC):
    """A multicast implementation: plans statically, executes on a network.

    Subclasses keep no per-operation state; many concurrent operations can
    run through one scheme instance (the load experiments do exactly that).

    Plan caching: every scheme's static planning (trees, worm routes, phase
    schedules) is a pure function of (network, source, destination set).
    :meth:`enable_plan_cache` memoises those computations per network --
    semantically invisible (plans are deterministic) but a large speed-up
    for load experiments that re-issue the same groups.
    """

    name: str = "abstract"

    def enable_plan_cache(self) -> None:
        """Turn on plan memoisation for this scheme instance."""
        self._plan_cache: "weakref.WeakKeyDictionary[SimNetwork, dict]" = (
            weakref.WeakKeyDictionary()
        )

    def _cached_plan(self, net: SimNetwork, key: tuple, compute):
        """Memoise ``compute()`` under (network, epoch, key) if caching is on.

        Plans live in a per-network dict inside a weak-keyed mapping: the
        network object itself is the outer key (never ``id(net)``, whose
        integer can be reused by a later allocation once a network is
        collected), and dropping a network drops its plans.  The routing
        epoch is part of the inner key so an Autonet-style runtime
        reconfiguration (see :meth:`SimNetwork.reconfigure`) invalidates
        every plan cached on the pre-fault orientation.
        """
        cache = getattr(self, "_plan_cache", None)
        if cache is None:
            return compute()
        per_net = cache.get(net)
        if per_net is None:
            per_net = cache[net] = {}
        full_key = (net.routing_epoch, key)
        if full_key not in per_net:
            per_net[full_key] = compute()
        return per_net[full_key]

    def install_plan(self, net: SimNetwork, key: tuple, value) -> bool:
        """Seed the plan cache with an externally computed plan entry.

        The entry is stored under the network's *current* routing epoch, so
        a later reconfiguration invalidates it exactly like a computed plan.
        Used by the group layer to make :meth:`execute` pick up an
        incrementally repaired plan instead of replanning from scratch.
        Returns False (and stores nothing) when caching is disabled.
        """
        cache = getattr(self, "_plan_cache", None)
        if cache is None:
            return False
        per_net = cache.get(net)
        if per_net is None:
            per_net = cache[net] = {}
        per_net[(net.routing_epoch, key)] = value
        return True

    def discard_group_plans(self, net: SimNetwork, source: int,
                            dests: tuple[int, ...]) -> int:
        """Drop cached plans belonging to one (source, destination-set) group.

        Every scheme in this library keys its per-operation plans as
        ``(tag, source, ...)`` with any further tuple components drawn from
        the destination set (``("mdp", src, dests)``, ``("tree", src,
        dests)``, ``("worm", src, chunk)`` with ``chunk`` a subset of
        ``dests``, ...).  Matching on that structure -- across every
        epoch -- lets a group invalidate exactly its own entries without
        wiping other groups' plans.  A key whose dest components are a
        *subset* of ``dests`` is also dropped (chunked plans); that can
        touch a same-source group with a nested destination set, which
        costs that group one replan but is never unsound.  Returns the
        number of entries dropped.
        """
        cache = getattr(self, "_plan_cache", None)
        if cache is None:
            return 0
        per_net = cache.get(net)
        if not per_net:
            return 0
        dset = frozenset(dests)
        doomed = []
        for full_key in per_net:
            _epoch, key = full_key
            if key[1] != source:
                continue
            if all(
                frozenset(part) <= dset
                for part in key[2:]
                if isinstance(part, tuple)
            ):
                doomed.append(full_key)
        for full_key in doomed:
            del per_net[full_key]
        return len(doomed)

    @abc.abstractmethod
    def execute(
        self,
        net: SimNetwork,
        source: int,
        dests: list[int],
        on_complete: Callable[[MulticastResult], None] | None = None,
    ) -> MulticastResult:
        """Begin one multicast at the engine's current time.

        Returns the (initially incomplete) result record; the simulation must
        be run for it to fill in.
        """

    def _new_result(self, net: SimNetwork, source: int,
                    dests: list[int]) -> MulticastResult:
        dset = tuple(dict.fromkeys(dests))
        if source in dset:
            raise ValueError("source must not be one of the destinations")
        if len(dset) != len(dests):
            raise ValueError("duplicate destinations")
        if not dset:
            raise ValueError("multicast needs at least one destination")
        for d in (source, *dset):
            if not 0 <= d < net.topo.num_nodes:
                raise ValueError(f"node {d} out of range")
        return MulticastResult(source, dset, net.engine.now)
