"""Per-port reachability sets for tree-based multicast (system S4).

The tree-based scheme's switches associate with every *down* output port a
bit string naming the nodes reachable through that port by down-only routes
(Section 3.2.3 of the paper).  A multidestination worm that has finished its
up phase is replicated onto exactly the down ports whose reachability string
intersects the worm's destination header.

Because the down-directed links form a DAG, reachability is a straightforward
memoised union; we expose it both as Python sets (for algorithms) and as bit
masks (mirroring the paper's bit-string encoding).  Only the tree scheme and
the invariant checkers read the strings, so a table computes nothing until
its first query, which fills it for every switch at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.routing.updown import UpDownRouting
from repro.topology.graph import SwitchLink


@dataclass
class ReachabilityTable:
    """Down-reachability of nodes from switches and through down ports."""

    routing: UpDownRouting
    _switch_reach: dict[int, frozenset[int]] | None = field(
        default=None, repr=False
    )
    """Per switch, once any query has run: its down-reachable nodes."""

    @classmethod
    def build(cls, routing: UpDownRouting) -> "ReachabilityTable":
        """A table over ``routing``; the sets are computed on first query."""
        return cls(routing=routing)

    def _table(self) -> dict[int, frozenset[int]]:
        """The whole table, filled on first use in switch order 0..S-1.

        The whole table at once, never switch by switch: on a corrupt
        orientation whose down links form a cycle, :meth:`_reach` truncates
        a set depending on which switch the recursion entered the cycle
        from, so only a fixed fill order keeps answers independent of the
        order of queries.
        """
        table = self._switch_reach
        if table is None:
            table = self._switch_reach = {}
            for s in range(self.routing.topo.num_switches):
                self._reach(s)
        return table

    def _reach(self, switch: int) -> frozenset[int]:
        table = self._switch_reach
        cached = table.get(switch)
        if cached is not None:
            return cached
        topo = self.routing.topo
        acc: set[int] = set(topo.nodes_on_switch(switch))
        # Mark before recursing.  On a legal orientation the down graph is
        # acyclic and the mark is never read; on a corrupt one a cycle
        # reads it and yields a truncated set instead of recursing forever,
        # and :func:`~repro.routing.invariants.reachability_problems` is
        # what reports the missing nodes.
        table[switch] = frozenset()
        for lk in self.routing.down_links_of(switch):
            acc |= self._reach(lk.other_end(switch).switch)
        result = frozenset(acc)
        table[switch] = result
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def down_reach(self, switch: int) -> frozenset[int]:
        """Nodes reachable from ``switch`` using only down traversals.

        Includes the nodes attached to ``switch`` itself.
        """
        return self._table()[switch]

    def port_reach(self, switch: int, link: SwitchLink) -> frozenset[int]:
        """Reachability set of the down output port of ``switch`` on ``link``.

        Raises:
            ValueError: if traversing ``link`` out of ``switch`` goes up
                (up ports carry no reachability string in the paper).
        """
        if self.routing.is_up_traversal(link, switch):
            raise ValueError(
                f"link {link.link_id} is an up port of switch {switch}; "
                "reachability strings exist only for down ports"
            )
        return self.down_reach(link.other_end(switch).switch)

    def covers(self, switch: int, dests: frozenset[int] | set[int]) -> bool:
        """True when every destination is down-reachable from ``switch``."""
        return set(dests) <= self._table()[switch]

    # ------------------------------------------------------------------
    # Bit-string encodings (the hardware view)
    # ------------------------------------------------------------------
    def port_reach_mask(self, switch: int, link: SwitchLink) -> int:
        """The paper's reachability bit string, as an int bit mask.

        Bit ``i`` is set iff node ``i`` is reachable through the port.
        """
        return _mask(self.port_reach(switch, link))


def _mask(nodes: frozenset[int]) -> int:
    m = 0
    for n in nodes:
        m |= 1 << n
    return m


def header_mask(dests: list[int] | set[int] | frozenset[int]) -> int:
    """Encode a destination set as the worm's bit-string header."""
    return _mask(frozenset(dests))


FLIT_BITS = 8
"""The paper's 1-byte flits."""


def node_id_bits(num_nodes: int) -> int:
    """Bits to name one of ``num_nodes`` nodes."""
    return max(1, math.ceil(math.log2(num_nodes)))


def header_flits(num_nodes: int) -> int:
    """Flits the bit-string header occupies: one bit per node plus a
    source id (Section 3.3)."""
    return math.ceil((num_nodes + node_id_bits(num_nodes)) / FLIT_BITS)


def decode_mask(mask: int) -> frozenset[int]:
    """Decode a bit-string header back into a destination set."""
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)
