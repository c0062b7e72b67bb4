"""Cross-validation: the flit-level reference simulator must agree with the
worm-level event model on identical deterministic scenarios."""

import random

import pytest

from repro.params import SimParams
from repro.sim.flitsim import FlitLevelFabric, FlitRoute, unicast_route
from repro.sim.network import SimNetwork
from repro.sim.worm import Deliver, Forward, Worm
from repro.topology.irregular import generate_irregular_topology
from tests.topo_fixtures import make_line, make_star


def event_unicast_delivery(net: SimNetwork, src: int, dst: int,
                           starts: list[float] | None = None) -> list[float]:
    """Delivery tail times of raw unicast worms in the event model."""
    res: list[float] = []
    for t in starts or [0.0]:
        def launch(t=t):
            w = Worm(net.engine, net.params, net.unicast_steer(dst),
                     on_delivered=lambda _n, tt: res.append(tt), rng=net.rng)
            w.start(net.fabric.inject[src], None)

        if t == 0:
            launch()
        else:
            net.engine.at(t, launch)
    net.run()
    return sorted(res)


def flit_unicast_delivery(topo, params, src: int, dst: int,
                          starts: list[int] | None = None) -> list[float]:
    """Delivery tail times of the same worms in the flit-level simulator."""
    from repro.routing.updown import UpDownRouting

    rt = UpDownRouting.build(topo, orientation=params.routing_tree)
    fab = FlitLevelFabric(topo, params)
    for t in starts or [0]:
        fab.inject(int(t), unicast_route(topo, rt, src, dst))
    fab.run()
    return sorted(float(v) for v in fab.deliveries.values())


class TestUncontendedAgreement:
    @pytest.mark.parametrize("n_switches", [2, 3, 5])
    def test_line_unicast_exact(self, n_switches):
        params = SimParams(adaptive_routing=False)
        topo = make_line(n_switches)
        ev = event_unicast_delivery(SimNetwork(topo, params), 0, n_switches - 1)
        fl = flit_unicast_delivery(topo, params, 0, n_switches - 1)
        assert ev == fl

    def test_random_topology_pairs_exact(self):
        for seed in range(4):
            params = SimParams(adaptive_routing=False)
            topo = generate_irregular_topology(params, seed=seed)
            rng = random.Random(seed)
            src = rng.randrange(32)
            dst = rng.choice([n for n in range(32) if n != src])
            ev = event_unicast_delivery(SimNetwork(topo, params), src, dst)
            fl = flit_unicast_delivery(topo, params, src, dst)
            assert ev == fl, f"seed={seed} {src}->{dst}"

    @pytest.mark.parametrize("L", [16, 64, 128])
    def test_packet_length_scaling_exact(self, L):
        params = SimParams(adaptive_routing=False, packet_flits=L)
        topo = make_line(3)
        ev = event_unicast_delivery(SimNetwork(topo, params), 0, 2)
        fl = flit_unicast_delivery(topo, params, 0, 2)
        assert ev == fl


class TestContendedAgreement:
    def test_back_to_back_packets_exact(self):
        params = SimParams(adaptive_routing=False)
        topo = make_line(3)
        ev = event_unicast_delivery(
            SimNetwork(topo, params), 0, 2, starts=[0.0, 0.0]
        )
        fl = flit_unicast_delivery(topo, params, 0, 2, starts=[0, 0])
        assert ev == fl  # 137 and 266 (pipeline bubble included)

    def test_staggered_unicasts_on_seeded_topology(self):
        # Eight unicasts 40 cycles apart on the default 8-switch system
        # (the second scenario DESIGN.md section 4.1 times).
        from repro.sim.crossval import run_event_scenario, run_flit_scenario

        params = SimParams(adaptive_routing=False)
        topo = generate_irregular_topology(params, seed=3)
        jobs = [(i * 40, i, (24 + i,)) for i in range(8)]
        ev = run_event_scenario(topo, params, jobs)
        assert len(ev) == len(jobs)
        assert ev == run_flit_scenario(topo, params, jobs)

    @pytest.mark.parametrize("buffer_flits", [4, 64, 256])
    def test_blocked_worm_delivery_times_agree(self, buffer_flits):
        # Worm A (node1->node2) occupies sw1->sw2; worm B (node0->node2)
        # must wait.  Delivery times of both must match across backends
        # in every buffer regime (VCT and wormhole).
        params = SimParams(adaptive_routing=False,
                           input_buffer_flits=buffer_flits)
        topo = make_line(3)
        net = SimNetwork(topo, params)
        ev: list[float] = []
        for src in (1, 0):
            w = Worm(net.engine, net.params, net.unicast_steer(2),
                     on_delivered=lambda _n, t: ev.append(t), rng=net.rng)
            w.start(net.fabric.inject[src], None)
        net.run()

        from repro.routing.updown import UpDownRouting

        rt = UpDownRouting.build(topo)
        fab = FlitLevelFabric(topo, params)
        fab.inject(0, unicast_route(topo, rt, 1, 2))
        fab.inject(0, unicast_route(topo, rt, 0, 2))
        fab.run()
        fl = sorted(float(v) for v in fab.deliveries.values())
        assert sorted(ev) == fl


class TestReplicationAgreement:
    def _fork_route(self, topo, hub_links) -> FlitRoute:
        return FlitRoute(
            ("inj", 0),
            [
                FlitRoute(("fwd", hub_links[0].link_id, 0),
                          [FlitRoute(("del", 1))]),
                FlitRoute(("fwd", hub_links[1].link_id, 0),
                          [FlitRoute(("del", 2))]),
            ],
        )

    def test_fork_delivery_times_agree(self):
        params = SimParams(adaptive_routing=False)
        topo = make_star(2, hosts_per_switch=1)
        net = SimNetwork(topo, params)
        fabch = net.fabric
        ev: list[float] = []

        def steer(switch, state):
            if switch == 0:
                return [
                    Forward([(fabch.forward_channel(topo.links[0], 0), "a")]),
                    Forward([(fabch.forward_channel(topo.links[1], 0), "b")]),
                ]
            return [Deliver(fabch.deliver[1 if state == "a" else 2])]

        w = Worm(net.engine, net.params, steer,
                 on_delivered=lambda _n, t: ev.append(t), rng=net.rng)
        w.start(fabch.inject[0], None)
        net.run()

        fab = FlitLevelFabric(topo, params)
        fab.inject(0, self._fork_route(topo, topo.links))
        fab.run()
        fl = sorted(float(v) for v in fab.deliveries.values())
        assert sorted(ev) == fl

    def test_fork_with_blocked_branch_agrees(self):
        # A unicast blocker on one branch: the fork's two deliveries and the
        # blocker must agree across backends (small buffer: wormhole case).
        params = SimParams(adaptive_routing=False, input_buffer_flits=4)
        topo = make_star(2, hosts_per_switch=2)
        # hosts 0,1 on hub; 2,3 on sw1; 4,5 on sw2
        net = SimNetwork(topo, params)
        fabch = net.fabric
        ev: list[float] = []
        # blocker: node0 -> node2 (holds hub->sw1)
        wb = Worm(net.engine, net.params, net.unicast_steer(2),
                  on_delivered=lambda _n, t: ev.append(t), rng=net.rng)
        wb.start(fabch.inject[0], None)

        def steer(switch, state):
            if switch == 0:
                return [
                    Forward([(fabch.forward_channel(topo.links[0], 0), "a")]),
                    Forward([(fabch.forward_channel(topo.links[1], 0), "b")]),
                ]
            return [Deliver(fabch.deliver[3 if state == "a" else 4])]

        wf = Worm(net.engine, net.params, steer,
                  on_delivered=lambda _n, t: ev.append(t), rng=net.rng)
        wf.start(fabch.inject[1], None)
        net.run()

        from repro.routing.updown import UpDownRouting

        rt = UpDownRouting.build(topo)
        fab = FlitLevelFabric(topo, params)
        fab.inject(0, unicast_route(topo, rt, 0, 2))
        fork = FlitRoute(
            ("inj", 1),
            [
                FlitRoute(("fwd", topo.links[0].link_id, 0),
                          [FlitRoute(("del", 3))]),
                FlitRoute(("fwd", topo.links[1].link_id, 0),
                          [FlitRoute(("del", 4))]),
            ],
        )
        fab.inject(0, fork)
        fab.run()
        fl = sorted(float(v) for v in fab.deliveries.values())
        assert sorted(ev) == fl


class TestFlitSimGuards:
    def test_route_leaf_must_be_delivery(self):
        topo = make_line(2)
        fab = FlitLevelFabric(topo, SimParams())
        bad = FlitRoute(("inj", 0), [FlitRoute(("fwd", 0, 0))])
        with pytest.raises(ValueError, match="delivery"):
            fab.inject(0, bad)

    def test_runaway_guard(self):
        topo = make_line(2)
        fab = FlitLevelFabric(topo, SimParams())
        from repro.routing.updown import UpDownRouting

        rt = UpDownRouting.build(topo)
        fab.inject(0, unicast_route(topo, rt, 0, 1))
        with pytest.raises(RuntimeError, match="max_cycles"):
            fab.run(max_cycles=3)

    def test_inject_rejects_fractional_start(self):
        # Regression: the tick loop matches starts by exact integer cycle,
        # so a fractional start silently never fired and run() spun into
        # the max_cycles guard.  It must be rejected at injection instead.
        topo = make_line(2)
        from repro.routing.updown import UpDownRouting

        rt = UpDownRouting.build(topo)
        fab = FlitLevelFabric(topo, SimParams())
        with pytest.raises(TypeError, match="integer"):
            fab.inject(0.5, unicast_route(topo, rt, 0, 1))

    def test_inject_rejects_past_start(self):
        topo = make_line(2)
        from repro.routing.updown import UpDownRouting

        rt = UpDownRouting.build(topo)
        params = SimParams(adaptive_routing=False)
        fab = FlitLevelFabric(topo, params)
        fab.inject(0, unicast_route(topo, rt, 0, 1))
        fab.run()
        assert fab.now > 0
        with pytest.raises(ValueError, match="past"):
            fab.inject(0, unicast_route(topo, rt, 1, 0))


class TestSeededScenarioAgreement:
    """Larger seeded scenarios with concurrently replicating worms.

    The expected delivery maps were captured from the pre-optimization
    backends (which the agreement suite had pinned to each other), so these
    tests prove the de-quadratized hot paths are bit-exact, not merely
    self-consistent.
    """

    def _assert_both_match(self, topo, params, jobs, golden):
        from repro.sim.crossval import run_event_scenario, run_flit_scenario

        assert run_event_scenario(topo, params, jobs) == golden
        assert run_flit_scenario(topo, params, jobs) == golden

    def test_two_replicating_worms_small_buffers(self):
        # Two multidestination worms replicating at the hub concurrently
        # (contending for the hub->sw2 link) plus a staggered unicast,
        # with 4-flit buffers: deep wormhole chain-blocking.
        params = SimParams(adaptive_routing=False, input_buffer_flits=4)
        topo = make_star(3, hosts_per_switch=2)
        jobs = [(0, 0, (2, 4)), (0, 1, (4, 6)), (3, 3, (6,))]
        golden = {
            (0, 2): 134.0,
            (0, 4): 134.0,
            (1, 4): 263.0,
            (1, 6): 134.0,
            (2, 6): 263.0,
        }
        self._assert_both_match(topo, params, jobs, golden)

    def test_seeded_16_switch_multidestination(self):
        # The scenario DESIGN.md section 4.1 times: 16 switches, four
        # 4-destination worms with 512-flit packets over 64-flit buffers.
        params = SimParams(
            adaptive_routing=False, num_switches=16, packet_flits=512
        )
        topo = generate_irregular_topology(params, seed=7)
        jobs = [
            (0, 7, (0, 8, 9, 24)),
            (25, 14, (3, 4, 22, 24)),
            (50, 5, (0, 1, 14, 19)),
            (75, 5, (7, 8, 17, 20)),
        ]
        golden = {
            (0, 0): 524.0,
            (0, 8): 521.0,
            (0, 9): 524.0,
            (0, 24): 524.0,
            (1, 3): 549.0,
            (1, 4): 546.0,
            (1, 22): 555.0,
            (1, 24): 1037.0,
            (2, 0): 1037.0,
            (2, 1): 568.0,
            (2, 14): 568.0,
            (2, 19): 571.0,
            (3, 7): 1087.0,
            (3, 8): 1081.0,
            (3, 17): 1081.0,
            (3, 20): 1084.0,
        }
        self._assert_both_match(topo, params, jobs, golden)
