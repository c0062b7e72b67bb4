"""MPI-flavoured facade over the simulated collectives.

The paper motivates multicast by "the inclusion of several primitives for
collective communication in the Message Passing Interface (MPI) standard";
this module closes the loop by exposing the simulated system through
MPI-style names, so a user can ask directly "what does MPI_Bcast cost on
this network with NI-based vs switch-based multicast support?".

All calls *start* the collective and return its
:class:`~repro.collectives.CollectiveResult`; run the network
(``comm.run()``) to completion to read latencies.  One communicator spans
every node of the network (sub-communicators are just
:class:`~repro.groups.membership.MulticastGroup` instances).
"""

from __future__ import annotations

from repro.collectives import (
    CollectiveResult,
    allreduce,
    barrier,
    broadcast,
    gather_to_root,
    reduce_to_root,
    scatter_from_root,
)
from repro.groups.membership import GroupManager
from repro.sim.network import SimNetwork


class Communicator:
    """All-node communicator bound to one simulated network."""

    def __init__(self, net: SimNetwork, multicast_scheme: str = "tree",
                 **scheme_kw) -> None:
        self.net = net
        self.multicast_scheme = multicast_scheme
        self.scheme_kw = scheme_kw
        self.groups = GroupManager(net, default_scheme=multicast_scheme)

    @property
    def size(self) -> int:
        """Number of ranks (= nodes)."""
        return self.net.topo.num_nodes

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} out of range")

    # ------------------------------------------------------------------
    # Collectives (MPI names)
    # ------------------------------------------------------------------
    def bcast(self, root: int = 0) -> CollectiveResult:
        """MPI_Bcast: one-to-all broadcast via the configured multicast."""
        self._check_root(root)
        return broadcast(
            self.net, root, self.multicast_scheme, **self.scheme_kw
        )

    def barrier(self, root: int = 0) -> CollectiveResult:
        """MPI_Barrier: gather tokens at the root, multicast the release."""
        self._check_root(root)
        return barrier(self.net, root, self.multicast_scheme, **self.scheme_kw)

    def reduce(self, root: int = 0) -> CollectiveResult:
        """MPI_Reduce: combining binomial gather tree to the root."""
        self._check_root(root)
        return reduce_to_root(self.net, root)

    def allreduce(self, root: int = 0) -> CollectiveResult:
        """MPI_Allreduce: reduce then broadcast."""
        self._check_root(root)
        return allreduce(
            self.net, root, self.multicast_scheme, **self.scheme_kw
        )

    def gather(self, root: int = 0) -> CollectiveResult:
        """MPI_Gather: direct (non-combining) all-to-one."""
        self._check_root(root)
        return gather_to_root(self.net, root)

    def scatter(self, root: int = 0) -> CollectiveResult:
        """MPI_Scatter: personalised one-to-all (root-serialised)."""
        self._check_root(root)
        return scatter_from_root(self.net, root)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Drain the event engine (complete all started collectives)."""
        self.net.run()

    def time(self, op_name: str, root: int = 0) -> float:
        """Start one collective, run to completion, return its latency."""
        op = getattr(self, op_name, None)
        if op is None or op_name.startswith("_") or op_name in ("run", "time"):
            raise ValueError(f"unknown collective {op_name!r}")
        result = op(root)
        self.run()
        return result.latency
