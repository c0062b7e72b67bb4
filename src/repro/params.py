"""Simulation parameters for the ICPP'98 multicast comparison study.

Every constant the paper mentions (and every constant the OCR of the paper
dropped -- see DESIGN.md section 5 for the reconstruction table) lives in a
single :class:`SimParams` dataclass.  All timing quantities are expressed in
*cycles* of the switch clock; bandwidths are expressed in flits/cycle.

The paper's defaults, as reconstructed:

* 32 nodes attached to eight 8-port switches in a random irregular topology.
* 1-byte flits, 1 flit/cycle links, 1-cycle link propagation, 1-cycle
  crossbar traversal, 1-cycle routing decision at each switch.
* 128-flit packets, 1-packet messages.
* Host software overhead ``o_host`` = 1000 cycles per message end
  (send or receive); NI processor overhead ``o_ni = o_host / R`` per message
  (or per forwarded replica stream), with the ratio ``R`` defaulting to 2.
* I/O bus (host <-> NI DMA) bandwidth 2.66 flits/cycle (266 MB/s at a
  10 ns cycle and 1-byte flits).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SimParams:
    """All knobs of the simulated system.

    The instance is frozen so a parameter set can be hashed/shared safely
    between experiment sweeps; use :meth:`replace` to derive variants.
    """

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    num_nodes: int = 32
    """Number of processing nodes (hosts) in the system."""

    num_switches: int = 8
    """Number of switches in the irregular interconnect."""

    ports_per_switch: int = 8
    """Ports per switch, shared between host links and switch-switch links."""

    topology_seed: int = 1
    """Seed of the random irregular topology generator."""

    # ------------------------------------------------------------------
    # Fabric timing (cycles)
    # ------------------------------------------------------------------
    link_delay: int = 1
    """Propagation time of a flit across a physical link."""

    switch_delay: int = 1
    """Crossbar traversal time from input to output buffer of a switch."""

    routing_delay: int = 1
    """Header decode/route decision time, uniform across all three schemes."""

    input_buffer_flits: int = 64
    """Flit capacity of each switch input port buffer (cut-through storage)."""

    # ------------------------------------------------------------------
    # Message structure
    # ------------------------------------------------------------------
    packet_flits: int = 128
    """Flits per packet (includes header; the paper's default packet size)."""

    message_packets: int = 1
    """Packets per multicast message (message_flits = packets * packet_flits)."""

    # ------------------------------------------------------------------
    # Host / network interface
    # ------------------------------------------------------------------
    o_host: int = 1000
    """Host processor software overhead per message send or receive (cycles)."""

    ratio_r: float = 2.0
    """R = o_host / o_ni.  The paper's central parameter."""

    o_ni_per_packet: int = 0
    """Additional NI processor cost per individual packet handled (cycles).

    The paper charges NI overhead per *message* ("the communication software
    overhead per message at the ... NI processors"); packets of a message
    stream through DMA engines without re-running NI software.  This knob
    re-introduces a per-packet NI cost for ablation studies (E8)."""

    io_bus_flits_per_cycle: float = 2.66
    """DMA bandwidth of the host I/O bus in flits/cycle (266 MB/s @ 10ns/1B)."""

    ni_store_and_forward: bool = False
    """If True, the smart NI forwards a packet only after fully receiving it
    (ablation of the FPFS cut-through forwarding at the NI)."""

    # ------------------------------------------------------------------
    # Routing policy
    # ------------------------------------------------------------------
    adaptive_routing: bool = True
    """Adaptively pick among minimal up*/down* paths (Autonet-style) when
    True; always take the lexicographically first minimal path when False."""

    routing_tree: str = "bfs"
    """Link-orientation rule: "bfs" (the paper's Autonet rule) or "dfs"
    (DFS-preorder labels, a la Sancho & Robles; ablation E8)."""

    route_seed: int = 7
    """Seed for adaptive route selection tie-breaking."""

    # ------------------------------------------------------------------
    # Virtual channels
    # ------------------------------------------------------------------
    vc_count: int = 1
    """Virtual channels (lanes) per physical channel.  Each lane is an
    independent full-rate grant slot of the physical channel: a channel with
    ``vc_count`` lanes admits that many concurrent worms, each of which sees
    the channel's full per-lane bandwidth (the multi-lane MIN model of
    arXiv:2007.02550, not a time-multiplexed one).  ``vc_count=1`` is
    byte-identical to the historical single-lane fabric."""

    vc_routing: str = "updown"
    """Lane routing discipline: "updown" restricts every lane to the
    up*/down* order (pure blocking relief), "escape" restricts only lane 0
    to up*/down* and lets lanes >= 1 take minimal adaptive shortcuts that are
    free at decision time (Duato-style escape-channel deadlock freedom; see
    docs/virtual_channels.md)."""

    @property
    def o_ni(self) -> int:
        """NI processor overhead per message (or per forwarded replica
        stream) handled, in cycles; = o_host / R."""
        return max(1, round(self.o_host / self.ratio_r))

    @property
    def message_flits(self) -> int:
        """Total flits in one multicast message."""
        return self.packet_flits * self.message_packets

    def replace(self, **changes) -> "SimParams":
        """Return a copy of this parameter set with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def validate(self) -> None:
        """Raise ``ValueError`` on physically meaningless parameter sets."""
        if self.num_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if self.num_switches < 1:
            raise ValueError("need at least 1 switch")
        if self.ports_per_switch < 2:
            raise ValueError("switches need at least 2 ports")
        if self.num_nodes > self.num_switches * (self.ports_per_switch - 1) and self.num_switches > 1:
            raise ValueError(
                "not enough switch ports to attach all nodes and keep the "
                "switch graph connected"
            )
        if self.num_switches > 1 and self.ports_per_switch * self.num_switches < self.num_nodes + 2 * (self.num_switches - 1):
            raise ValueError("not enough ports for nodes plus a spanning set of inter-switch links")
        if self.packet_flits < 2:
            raise ValueError("a packet needs a header flit and at least one payload flit")
        if self.message_packets < 1:
            raise ValueError("messages have at least one packet")
        if self.o_host < 0:
            raise ValueError("o_host must be non-negative")
        if self.o_ni_per_packet < 0:
            raise ValueError("o_ni_per_packet must be non-negative")
        if not 0 < self.ratio_r < math.inf:
            raise ValueError(f"R must be finite and positive, got {self.ratio_r}")
        if not 0 < self.io_bus_flits_per_cycle < math.inf:
            raise ValueError(
                "I/O bus bandwidth must be finite and positive, got "
                f"{self.io_bus_flits_per_cycle}"
            )
        if min(self.link_delay, self.switch_delay, self.routing_delay) < 0:
            raise ValueError("delays must be non-negative")
        if self.routing_tree not in ("bfs", "dfs"):
            raise ValueError('routing_tree must be "bfs" or "dfs"')
        if self.input_buffer_flits < 1:
            raise ValueError("input buffers hold at least one flit")
        if self.vc_count < 1:
            raise ValueError("channels need at least one virtual channel")
        if self.vc_routing not in ("updown", "escape"):
            raise ValueError('vc_routing must be "updown" or "escape"')
        if self.vc_routing == "escape" and self.vc_count < 2:
            raise ValueError(
                "escape routing needs at least 2 VCs (lane 0 is the escape lane)"
            )


DEFAULT_PARAMS = SimParams()
"""The paper's default configuration (see DESIGN.md for the reconstruction)."""
