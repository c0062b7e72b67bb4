"""Unit tests for SimParams validation, the fabric wiring, and host
primitives."""

import hashlib
import math
import random

import pytest

from repro.params import DEFAULT_PARAMS, SimParams
from repro.sim.fabric import UNBOUNDED_BUFFER, Channel, Fabric
from repro.sim.engine import Engine
from repro.sim.network import SimNetwork
from repro.sim.resources import MultiLaneResource
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


def _eager_channels(engine, topo, params):
    """Every channel as a fabric that builds them all up front makes them:
    inject then deliver channels by node, then both directions of each link
    (``a`` end first), uids counting up in that order, each lane pointer
    seeded from sha256 of ``lane:{route_seed}:{uid}``."""
    specs = []
    fwd_delay = params.switch_delay + params.link_delay
    buf = params.input_buffer_flits
    for node in range(topo.num_nodes):
        sw = topo.switch_of_node(node)
        specs.append(("inject", params.link_delay, buf,
                      dict(to_switch=sw, name=f"inj:n{node}->s{sw}")))
    for node in range(topo.num_nodes):
        sw = topo.switch_of_node(node)
        specs.append(("deliver", fwd_delay, UNBOUNDED_BUFFER,
                      dict(from_switch=sw, to_node=node,
                           name=f"del:s{sw}->n{node}")))
    for lk in topo.links:
        for frm in (lk.a.switch, lk.b.switch):
            to = lk.other_end(frm).switch
            specs.append(("forward", fwd_delay, buf,
                          dict(from_switch=frm, to_switch=to, link=lk,
                               name=f"fwd:l{lk.link_id}:s{frm}->s{to}")))
    out = []
    for uid, (kind, delay, buffer, kw) in enumerate(specs):
        payload = f"lane:{params.route_seed}:{uid}".encode()
        seed = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
        out.append(Channel(engine, uid, kind, delay, buffer,
                           lanes=params.vc_count, lane_seed=seed, **kw))
    return out


def _slots(ch):
    names = Channel.__slots__ + MultiLaneResource.__slots__
    return {name: getattr(ch, name) for name in names}


class TestFabric:
    def test_channel_counts(self):
        """The full enumeration has every channel once, in uid order, with
        the names and lane pointers of an up-front build, at 1 and 4 lanes;
        nothing is built before a lookup asks for it."""
        topo = generate_irregular_topology(SimParams(), seed=3)
        for vc in (1, 4):
            params = SimParams(vc_count=vc, route_seed=11)
            fab = Fabric(Engine(), topo, params)
            assert fab.built_channels() == []
            chans = fab.all_channels()
            assert len(chans) == 64 + 2 * len(topo.links)
            assert [c.uid for c in chans] == list(range(len(chans)))
            eager = _eager_channels(Engine(), topo, params)
            assert [(c.kind, c.name, c._next_lane) for c in chans] == [
                (c.kind, c.name, c._next_lane) for c in eager
            ]
            assert len(fab.built_channels()) == len(chans)
            assert fab.all_channels() == chans  # enumeration builds once

    @pytest.mark.parametrize("vc", [1, 4])
    def test_lazy_channel_equals_eager_counterpart(self, vc):
        """Whatever the lookup order, each channel equals the one an
        up-front build makes, slot by slot."""
        topo = generate_irregular_topology(SimParams(), seed=5)
        params = SimParams(vc_count=vc, route_seed=3)
        engine = Engine()
        fab = Fabric(engine, topo, params)
        eager = _eager_channels(engine, topo, params)
        keys = (
            [("inject", n) for n in range(topo.num_nodes)]
            + [("deliver", n) for n in range(topo.num_nodes)]
            + [("forward", (lk.link_id, sw)) for lk in topo.links
               for sw in (lk.a.switch, lk.b.switch)]
        )
        order = list(range(len(keys)))
        random.Random(vc).shuffle(order)
        for i in order:
            kind, key = keys[i]
            ch = getattr(fab, kind)[key]
            assert _slots(ch) == _slots(eager[i]), (kind, key)
            assert getattr(fab, kind)[key] is ch

    def test_unknown_keys_raise_keyerror(self):
        topo = make_line(3)
        fab = Fabric(Engine(), topo, SimParams())
        lk = topo.links[0]
        for lookup in (
            lambda: fab.inject[-1],
            lambda: fab.inject[topo.num_nodes],
            lambda: fab.deliver[topo.num_nodes],
            lambda: fab.forward[(99, 0)],
            lambda: fab.forward[(lk.link_id, 2)],  # not an endpoint
        ):
            with pytest.raises(KeyError):
                lookup()
        assert fab.built_channels() == []

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

    @pytest.mark.parametrize("kind", ["inject", "deliver", "forward"])
    def test_network_quiescence_check_detects_busy_channel(self, kind):
        net = SimNetwork(make_line(2), SimParams())
        fab = net.fabric
        ch = {
            "inject": lambda: fab.inject[1],
            "deliver": lambda: fab.deliver[0],
            "forward": lambda: fab.forward_channel(net.topo.links[0], 1),
        }[kind]()
        net.assert_quiescent()
        ch.request(lambda lane: None)  # acquire, never release
        with pytest.raises(AssertionError, match=f"busy: \\['{ch.name}'\\]"):
            net.assert_quiescent()

    def test_each_host_has_own_resources(self):
        net = SimNetwork(make_line(3), SimParams())
        assert net.hosts[0].cpu is not net.hosts[1].cpu
        assert net.hosts[0].bus is not net.hosts[1].bus
