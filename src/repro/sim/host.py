"""Host and network-interface model (system S8).

Each processing node has:

* a **host CPU** that pays the per-message software overhead ``o_host`` on
  every send and on every receive (FIFO: one overhead block at a time);
* an **I/O bus** crossed by DMA between host memory and NI memory, a serial
  pipe of ``io_bus_flits_per_cycle`` shared by inbound and outbound
  transfers;
* an **NI processor** that pays ``o_ni`` per packet handled (send, receive,
  or -- for the smart-NI multicast -- per forwarded replica);
* the **injection channel** onto its switch (owned by the fabric).

The composite send/receive pipelines the three multicast schemes share are in
:mod:`repro.sim.messaging`; this module provides the primitives.
"""

from __future__ import annotations

import weakref
from typing import Callable

from repro.sim.resources import FifoResource, ThroughputResource
from repro.sim.worm import SteerFn, Worm


class Host:
    """One node's processors and local transfer resources."""

    def __init__(self, net: "SimNetwork", node: int) -> None:  # noqa: F821
        # Weak, so a network nothing else holds is freed by reference
        # counting instead of waiting for the cycle collector.
        self._net = weakref.ref(net)
        self.node = node
        engine = net.engine
        self.cpu = FifoResource(engine, name=f"cpu:{node}")
        self.ni = FifoResource(engine, name=f"ni:{node}")
        self.bus = ThroughputResource(
            engine, net.params.io_bus_flits_per_cycle, name=f"iobus:{node}"
        )

    @property
    def net(self) -> "SimNetwork":  # noqa: F821
        """The network this host belongs to."""
        return self._net()

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def cpu_task(self, then: Callable[[], None]) -> None:
        """Run one ``o_host`` software overhead block on the host CPU."""
        self.cpu.hold_for(self.net.params.o_host, then)

    def ni_task(self, then: Callable[[], None]) -> None:
        """Run one ``o_ni`` per-packet overhead block on the NI processor."""
        self.ni.hold_for(self.net.params.o_ni, then)

    def dma(self, flits: int, then: Callable[[], None]) -> None:
        """Move ``flits`` across the I/O bus (direction-agnostic: the bus is
        shared by host->NI and NI->host transfers)."""
        self.bus.transfer(flits, then)

    def launch_worm(
        self,
        steer: SteerFn,
        initial_state: object,
        on_delivered: Callable[[int, float], None],
        on_done: Callable[[], None] | None = None,
        on_abort: Callable[[str], None] | None = None,
        length: int | None = None,
        label: str = "",
    ) -> Worm:
        """Inject one packet from this node's NI into the network.

        If a runtime link fault kills the worm (see :mod:`repro.chaos`), the
        nack propagates back to this source host: a ``nack`` trace record is
        emitted, the abort counters bump, and ``on_abort`` (if given) fires
        so the sender can retry.
        """
        net = self.net

        def nack(reason: str) -> None:
            net.chaos.worms_aborted += 1
            net.chaos.nacks += 1
            if net.trace is not None:
                net.trace.emit(
                    net.engine.now, "nack", label,
                    f"node {self.node}: {reason}",
                )
            if on_abort is not None:
                on_abort(reason)

        worm = Worm(
            net.engine,
            net.params,
            steer,
            on_delivered,
            on_done=on_done,
            on_abort=nack,
            rng=net.rng,
            length=length,
            label=label,
            trace=net.trace,
        )
        worm.epoch = net.routing_epoch
        net.register_worm(worm)
        if net.worm_log is not None:
            net.worm_log.append(worm)
        worm.start(net.fabric.inject[self.node], initial_state)
        return worm
