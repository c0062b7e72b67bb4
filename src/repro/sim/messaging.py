"""Composite send/receive pipelines shared by the multicast schemes.

The paper's cost structure (Section 4.1): software overheads are **per
message** -- ``o_host`` at the host processor and ``o_ni`` at the NI
processor, on both the sending and the receiving side.  Packets of a
multi-packet message stream through DMA engines and the injection channel
back to back without re-running NI software (an optional per-packet NI cost,
``params.o_ni_per_packet``, exists for ablations and defaults to 0).

* conventional send: ``o_host`` on the host CPU -> DMA of the whole message
  across the I/O bus -> ``o_ni`` once on the NI -> packets injected back to
  back (the injection channel serialises them at wire rate);
* conventional receive: first packet triggers ``o_ni`` once; every packet is
  DMA'd to host memory; after the last DMA, ``o_host`` completes the message.

The smart-NI (FPFS) flows used by the NI-based multicast scheme are also
here: an interior node's NI pays ``o_ni`` for receive processing plus
``o_ni`` per *child replica stream*, after which individual packets are
forwarded the moment they arrive (First-Packet-First-Served), hiding the host
receive overhead and eliminating interior host send overheads entirely.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.host import Host

LaunchFn = Callable[[], None]
"""Launches one already-planned packet worm from the local NI."""


def _chain_ni_tasks(host: Host, count: int, then: Callable[[], None]) -> None:
    """Run ``count`` consecutive ``o_ni`` blocks on the NI, then ``then``."""
    if count == 0:
        then()
        return
    host.ni_task(lambda: _chain_ni_tasks(host, count - 1, then))


def _launch_all_with_per_packet_cost(host: Host, launchers: list[LaunchFn],
                                     then: Callable[[], None] | None) -> None:
    """Issue launches in order; with a nonzero per-packet NI cost each launch
    is preceded by its own NI block, otherwise all are queued immediately
    (the injection channel FIFO preserves the order)."""
    if host.net.params.o_ni_per_packet == 0:
        for ln in launchers:
            ln()
        if then is not None:
            then()
        return

    def step(i: int) -> None:
        def fire() -> None:
            launchers[i]()
            if i + 1 < len(launchers):
                step(i + 1)
            elif then is not None:
                then()

        host.ni.hold_for(host.net.params.o_ni_per_packet, fire)

    step(0)


def host_send(host: Host, packet_launchers: list[LaunchFn],
              on_injected: Callable[[], None] | None = None) -> None:
    """Conventional host-initiated send of one message.

    ``packet_launchers`` has one entry per packet (in transmission order).
    ``on_injected`` fires once the NI has handed every packet to the
    injection channel (not after network delivery -- the sender is free).
    """
    if not packet_launchers:
        raise ValueError("a message has at least one packet")
    params = host.net.params
    total_flits = params.packet_flits * len(packet_launchers)

    def after_ni() -> None:
        _launch_all_with_per_packet_cost(host, packet_launchers, on_injected)

    def after_dma() -> None:
        host.ni_task(after_ni)

    host.cpu_task(lambda: host.dma(total_flits, after_dma))


def host_send_multiworm(
    host: Host,
    worm_groups: list[list[LaunchFn]],
    on_injected: Callable[[], None] | None = None,
) -> None:
    """Host send of one message carried by several multidestination worms.

    Used by header-capacity-limited switch multicast: one host overhead and
    one message DMA, then the NI pays ``o_ni`` per *worm group* (it must
    encode a separate header per group) and injects the group's packets
    back to back.
    """
    if not worm_groups or not all(worm_groups):
        raise ValueError("need at least one non-empty worm group")
    params = host.net.params
    n_packets = len(worm_groups[0])
    total_flits = params.packet_flits * n_packets

    def group(i: int) -> None:
        def fire() -> None:
            _launch_all_with_per_packet_cost(
                host,
                worm_groups[i],
                (lambda: group(i + 1))
                if i + 1 < len(worm_groups)
                else on_injected,
            )

        host.ni_task(fire)

    host.cpu_task(lambda: host.dma(total_flits, lambda: group(0)))


class HostReceiver:
    """Conventional per-message receive pipeline at a destination.

    Feed it one :meth:`packet_arrived` call per packet tail reaching the NI;
    the first arrival pays ``o_ni`` once, each packet is DMA'd to host
    memory, and after the last DMA ``o_host`` runs, then
    ``on_delivered(time)`` fires.
    """

    def __init__(self, host: Host, n_packets: int,
                 on_delivered: Callable[[float], None]) -> None:
        if n_packets < 1:
            raise ValueError("a message has at least one packet")
        self.host = host
        self.n_packets = n_packets
        self.on_delivered = on_delivered
        self._arrived = 0
        self._dma_done = 0
        self._awaiting_dma = 0
        self._ni_ready = False

    def packet_arrived(self) -> None:
        """One packet's tail has fully reached this node's NI."""
        self._arrived += 1
        if self._arrived > self.n_packets:
            raise RuntimeError("more packets arrived than the message has")
        per_pkt = self.host.net.params.o_ni_per_packet
        if self._arrived == 1:
            self._awaiting_dma += 1
            self.host.ni.hold_for(
                self.host.net.params.o_ni + per_pkt, self._on_ni_ready
            )
        elif per_pkt:
            self.host.ni.hold_for(per_pkt, self._one_more)
        else:
            self._one_more()

    def _on_ni_ready(self) -> None:
        self._ni_ready = True
        self._flush()

    def _one_more(self) -> None:
        self._awaiting_dma += 1
        self._flush()

    def _flush(self) -> None:
        if not self._ni_ready:
            return
        flits = self.host.net.params.packet_flits
        while self._awaiting_dma:
            self._awaiting_dma -= 1
            self.host.dma(flits, self._after_dma)

    def _after_dma(self) -> None:
        self._dma_done += 1
        if self._dma_done == self.n_packets:
            # Dropped once it fires: schemes hang closures on it that refer
            # back to their receivers, and a finished message must not keep
            # that cycle (and the network it holds) alive.
            on_delivered, self.on_delivered = self.on_delivered, None
            self.host.cpu_task(
                lambda: on_delivered(self.host.net.engine.now)
            )


class _FpfsProgram:
    """Sequential NI-processor program implementing FPFS forwarding.

    The NI works through the replica schedule in strict packet-major order:
    ``(packet 0, child 0), (packet 0, child 1), ..., (packet 1, child 0),
    ...``.  Before the first replica to a given child it pays one ``o_ni``
    set-up block (the per-message NI send overhead of that replica stream);
    each replica launch may additionally cost ``o_ni_per_packet``.  A replica
    whose packet has not arrived yet suspends the program (strict FPFS --
    the NI does not skip ahead), resuming on arrival.

    ``prologue_blocks`` many ``o_ni`` blocks run before any forwarding (the
    interior node's message receive processing; 0 at the source).
    """

    def __init__(
        self,
        host: Host,
        replica_launchers: list[list[LaunchFn]],
        prologue_blocks: int,
        on_done: Callable[[], None] | None = None,
    ) -> None:
        self.host = host
        self.launchers = replica_launchers
        self.order = [
            (p, c)
            for p in range(len(replica_launchers))
            for c in range(len(replica_launchers[p]))
        ]
        self.prologue_left = prologue_blocks
        self.on_done = on_done
        self._avail: set[int] = set()
        self._setup_done: set[int] = set()
        self._idx = 0
        self._active = False
        self._started = False

    def start(self) -> None:
        """Begin the program (runs the prologue, then waits for packets)."""
        if self._started:
            raise RuntimeError("FPFS program already started")
        self._started = True
        self._resume()

    def packet_available(self, p: int) -> None:
        """Mark packet ``p`` present in NI memory; resume if suspended."""
        self._avail.add(p)
        if self._started:
            self._resume()

    def _resume(self) -> None:
        if self._active:
            return
        self._active = True
        self._step()

    def _step(self) -> None:
        o_ni = self.host.net.params.o_ni
        per_pkt = self.host.net.params.o_ni_per_packet
        while True:
            if self.prologue_left > 0:
                self.prologue_left -= 1
                self.host.ni.hold_for(o_ni, self._step)
                return
            if self._idx >= len(self.order):
                self._active = False
                if self.on_done is not None:
                    cb, self.on_done = self.on_done, None
                    cb()
                return
            p, c = self.order[self._idx]
            if p not in self._avail:
                self._active = False  # suspended; packet_available resumes
                return
            if c not in self._setup_done:
                self._setup_done.add(c)
                self.host.ni.hold_for(o_ni, self._step)
                return
            launcher = self.launchers[p][c]
            self._idx += 1
            if per_pkt:
                self.host.ni.hold_for(per_pkt, lambda ln=launcher: (ln(), self._step()))
                return
            launcher()


class SmartNIForwarder:
    """FPFS smart-NI behaviour at an interior node of the NI-based multicast.

    The first packet's arrival starts the NI program: one ``o_ni`` receive
    block, then interleaved per-child stream set-up and packet-major replica
    forwarding (see :class:`_FpfsProgram`).  Every packet is DMA'd toward
    host memory in the background as it arrives; the host pays ``o_host``
    once after the whole message is in host memory.

    With ``params.ni_store_and_forward`` True (ablation E8), replica
    forwarding starts only after the last packet has arrived (FPFS off).
    """

    def __init__(
        self,
        host: Host,
        n_packets: int,
        replica_launchers: list[list[LaunchFn]],
        on_delivered: Callable[[float], None],
    ) -> None:
        """``replica_launchers[p][c]`` launches packet ``p``'s copy to child
        ``c``.  Arrivals index packets by order of arrival, which is also
        their transmission order on every channel of the path (adaptive
        routing can in principle reorder same-source packets; the replicas
        are indistinguishable in size and children, so the schedule is
        unaffected)."""
        if len(replica_launchers) != n_packets:
            raise ValueError("need one launcher row per packet")
        self.host = host
        self.n_packets = n_packets
        self.on_delivered = on_delivered
        self._arrived = 0
        self._dma_done = 0
        self._store_and_forward = host.net.params.ni_store_and_forward
        self._program = _FpfsProgram(host, replica_launchers, prologue_blocks=1)

    def packet_arrived(self) -> None:
        """One packet's tail has fully reached this node's NI."""
        idx = self._arrived
        self._arrived += 1
        if self._arrived > self.n_packets:
            raise RuntimeError("more packets arrived than the message has")
        self.host.dma(self.host.net.params.packet_flits, self._after_dma)
        if self._store_and_forward:
            if self._arrived == self.n_packets:
                for p in range(self.n_packets):
                    self._program.packet_available(p)
        else:
            self._program.packet_available(idx)
        if idx == 0:
            self._program.start()

    def _after_dma(self) -> None:
        self._dma_done += 1
        if self._dma_done == self.n_packets:
            self.host.cpu_task(
                lambda: self.on_delivered(self.host.net.engine.now)
            )


def smart_ni_source_send(
    host: Host,
    replica_launchers: list[list[LaunchFn]],
    on_injected: Callable[[], None] | None = None,
) -> None:
    """Source-side send of the NI-based multicast.

    One host overhead and one message DMA; the NI then runs the FPFS
    program: per-child ``o_ni`` stream set-up interleaved with packet-major
    replica injection.
    """
    if not replica_launchers or not replica_launchers[0]:
        raise ValueError("source must have at least one replica to send")
    params = host.net.params
    total_flits = params.packet_flits * len(replica_launchers)
    program = _FpfsProgram(
        host, replica_launchers, prologue_blocks=0, on_done=on_injected
    )

    def after_dma() -> None:
        for p in range(len(replica_launchers)):
            program.packet_available(p)
        program.start()

    host.cpu_task(lambda: host.dma(total_flits, after_dma))
