"""Quantified architectural requirements of the three schemes (paper §3.3).

Section 3.3 compares the schemes' hardware/firmware costs qualitatively:
header encode/decode complexity, per-switch storage, NI memory, and how each
grows with system size.  This module turns that discussion into numbers for
a concrete system, so the cost side of the paper's cost/performance
trade-off is reproducible too.

Conventions:

* one "node id" field is ``ceil(log2 N)`` bits;
* the tree scheme's bit-string header carries one bit per node (N bits), and
  every *down* output port of every switch stores an N-bit reachability
  string;
* a path worm's header holds, per replicating switch on its path, a node-id
  field plus a P-bit port mask (P = ports per switch);
* the NI scheme needs no switch support, but the interface buffers packets
  until every child's replica is injected, and the source stores the
  k-binomial tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.multicast.pathworm import MulticastPathPlan
from repro.params import SimParams
from repro.routing.reachability import node_id_bits as _node_id_bits
from repro.sim.network import SimNetwork


@dataclass(frozen=True)
class SchemeRequirements:
    """Hardware/firmware footprint of one scheme on one system."""

    scheme: str
    header_bits: int
    """Multicast header size for a worst-case (broadcast) destination set."""

    switch_storage_bits: int
    """Total routing/reachability state added across all switches."""

    switch_replication: bool
    """Whether switches need worm-replication (and its deadlock-free
    buffering) support."""

    ni_buffer_flits: int
    """Extra NI memory for multicast duties (replica buffering)."""

    ni_firmware: bool
    """Whether the NI processor firmware must be multicast-aware."""


def node_id_bits(params: SimParams) -> int:
    """Bits to name one node."""
    return _node_id_bits(params.num_nodes)


def tree_scheme_requirements(net: SimNetwork) -> SchemeRequirements:
    """Bit-string tree worms: N-bit headers, reachability strings at every
    down port, replication support; stock NI."""
    params = net.params
    n = params.num_nodes
    down_ports = sum(
        len(net.routing.down_links_of(s))
        for s in range(net.topo.num_switches)
    )
    return SchemeRequirements(
        scheme="tree",
        header_bits=n,
        switch_storage_bits=down_ports * n,
        switch_replication=True,
        ni_buffer_flits=0,
        ni_firmware=False,
    )


def path_scheme_requirements(
    net: SimNetwork, worst_plan: MulticastPathPlan | None = None
) -> SchemeRequirements:
    """Multi-drop path worms: per-hop (node id + port mask) header fields,
    no reachability storage, replication support; stock NI.

    ``worst_plan`` bounds the header by the longest planned worm; without
    one, the bound is the switch-count (a path visits each switch once per
    phase segment at most).
    """
    params = net.params
    per_field = node_id_bits(params) + params.ports_per_switch
    if worst_plan is not None:
        max_switches = max(
            (len(w.switch_path) for w in worst_plan.worms), default=1
        )
    else:
        max_switches = net.topo.num_switches
    return SchemeRequirements(
        scheme="path",
        header_bits=per_field * max_switches,
        switch_storage_bits=0,
        switch_replication=True,
        ni_buffer_flits=0,
        ni_firmware=False,
    )


def ni_scheme_requirements(net: SimNetwork, max_children: int = 8) -> SchemeRequirements:
    """k-binomial FPFS: plain unicast headers and stock switches, but
    multicast-aware NI firmware plus buffering for one packet per pending
    replica stream."""
    params = net.params
    return SchemeRequirements(
        scheme="ni",
        header_bits=node_id_bits(params),
        switch_storage_bits=0,
        switch_replication=False,
        ni_buffer_flits=params.packet_flits * max_children,
        ni_firmware=True,
    )


def requirements_table(net: SimNetwork) -> list[SchemeRequirements]:
    """All three schemes' requirements on one system, tree/path/ni order."""
    return [
        tree_scheme_requirements(net),
        path_scheme_requirements(net),
        ni_scheme_requirements(net),
    ]


def render_requirements(rows: list[SchemeRequirements]) -> str:
    """Aligned text table of a requirements comparison."""
    header = (
        f"{'scheme':<8}{'header(bits)':>14}{'switch store(bits)':>20}"
        f"{'replication':>13}{'NI buffer(flits)':>18}{'NI firmware':>13}"
    )
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.scheme:<8}{r.header_bits:>14}{r.switch_storage_bits:>20}"
            f"{str(r.switch_replication):>13}{r.ni_buffer_flits:>18}"
            f"{str(r.ni_firmware):>13}"
        )
    return "\n".join(lines)
