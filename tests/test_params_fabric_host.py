"""Unit tests for SimParams validation, the fabric wiring, and host
primitives."""

import math

import pytest

from repro.params import DEFAULT_PARAMS, SimParams
from repro.sim.fabric import UNBOUNDED_BUFFER, Fabric
from repro.sim.engine import Engine
from repro.sim.network import SimNetwork
from repro.topology.irregular import generate_irregular_topology
from tests.topo_fixtures import make_line


class TestSimParams:
    def test_defaults_valid(self):
        DEFAULT_PARAMS.validate()

    def test_o_ni_derivation(self):
        assert SimParams(o_host=1000, ratio_r=2.0).o_ni == 500
        assert SimParams(o_host=1000, ratio_r=0.5).o_ni == 2000
        assert SimParams(o_host=1, ratio_r=1000).o_ni == 1  # floor at 1

    def test_message_flits(self):
        assert SimParams(packet_flits=128, message_packets=4).message_flits == 512

    def test_replace_returns_new_frozen_instance(self):
        p = SimParams()
        q = p.replace(ratio_r=4.0)
        assert q.ratio_r == 4.0 and p.ratio_r == 2.0
        with pytest.raises(Exception):
            p.ratio_r = 9.0  # frozen

    @pytest.mark.parametrize(
        "kw",
        [
            {"num_nodes": 1},
            {"num_switches": 0},
            {"ports_per_switch": 1},
            {"num_nodes": 64, "num_switches": 2, "ports_per_switch": 8},
            {"packet_flits": 1},
            {"message_packets": 0},
            {"o_host": -1},
            {"o_ni_per_packet": -1},
            {"ratio_r": 0},
            {"io_bus_flits_per_cycle": 0},
            {"link_delay": -1},
            {"input_buffer_flits": 0},
            {"routing_tree": "xyz"},
            {"ratio_r": math.nan},
            {"ratio_r": math.inf},
            {"ratio_r": -math.inf},
            {"io_bus_flits_per_cycle": math.nan},
            {"io_bus_flits_per_cycle": math.inf},
            {"io_bus_flits_per_cycle": -math.inf},
        ],
    )
    def test_validate_rejects(self, kw):
        with pytest.raises(ValueError):
            SimParams(**kw).validate()

    def test_params_hashable(self):
        assert len({SimParams(), SimParams(), SimParams(ratio_r=4.0)}) == 2


class TestFabric:
    def test_channel_counts(self):
        topo = generate_irregular_topology(SimParams(), seed=3)
        fab = Fabric(Engine(), topo, SimParams())
        assert len(fab.inject) == 32
        assert len(fab.deliver) == 32
        assert len(fab.forward) == 2 * len(topo.links)
        assert len(fab.all_channels()) == 64 + 2 * len(topo.links)

    def test_channel_delays_and_buffers(self):
        p = SimParams(link_delay=2, switch_delay=3, input_buffer_flits=40)
        topo = make_line(3)
        fab = Fabric(Engine(), topo, p)
        assert fab.inject[0].delay == 2
        assert fab.inject[0].downstream_buffer == 40
        fwd = fab.forward_channel(topo.links[0], 0)
        assert fwd.delay == 5  # crossbar + link
        assert fab.deliver[2].downstream_buffer == UNBOUNDED_BUFFER

    def test_forward_channel_directionality(self):
        topo = make_line(2)
        fab = Fabric(Engine(), topo, SimParams())
        lk = topo.links[0]
        a_to_b = fab.forward_channel(lk, 0)
        b_to_a = fab.forward_channel(lk, 1)
        assert a_to_b is not b_to_a
        assert a_to_b.to_switch == 1 and b_to_a.to_switch == 0

    def test_flit_accounting_starts_zero(self):
        topo = make_line(2)
        fab = Fabric(Engine(), topo, SimParams())
        assert fab.total_flits_carried() == 0


class TestHostPrimitives:
    def test_cpu_and_ni_serialize_independently(self):
        net = SimNetwork(make_line(2), SimParams())
        h = net.hosts[0]
        order = []
        h.cpu_task(lambda: order.append(("cpu", net.engine.now)))
        h.ni_task(lambda: order.append(("ni", net.engine.now)))
        net.run()
        times = dict(order)
        assert times["cpu"] == net.params.o_host
        assert times["ni"] == net.params.o_ni  # parallel with the CPU block

    def test_dma_uses_bus_rate(self):
        net = SimNetwork(make_line(2), SimParams())
        done = []
        net.hosts[0].dma(266, lambda: done.append(net.engine.now))
        net.run()
        assert done == [pytest.approx(100.0)]

    def test_network_quiescence_check_detects_busy(self):
        net = SimNetwork(make_line(2), SimParams())
        net.hosts[0].cpu.request(lambda: None)  # acquire, never release
        with pytest.raises(AssertionError, match="not quiescent"):
            net.assert_quiescent()

    def test_each_host_has_own_resources(self):
        net = SimNetwork(make_line(3), SimParams())
        assert net.hosts[0].cpu is not net.hosts[1].cpu
        assert net.hosts[0].bus is not net.hosts[1].bus
