"""Flit-exact timing tests for the worm-level cut-through model.

Every expected number here is derived by hand from the model's definition:
header crossing = grant + channel delay; per-switch routing decode =
``routing_delay``; payload streams at 1 flit/cycle; channel release follows
the buffer-capacity recurrence in :mod:`repro.sim.worm`.
"""

import gc
import weakref

import pytest

from tests.topo_fixtures import make_diamond, make_line, make_star
from repro.fuzz.generator import generate_scenario
from repro.multicast import make_scheme
from repro.params import SimParams
from repro.routing.reachability import header_flits
from repro.sim.engine import Engine
from repro.sim.network import SimNetwork
from repro.sim.worm import Deliver, Forward, Worm


def launch_unicast(net: SimNetwork, src: int, dst: int, results: list) -> Worm:
    worm = Worm(
        net.engine,
        net.params,
        net.unicast_steer(dst),
        on_delivered=lambda node, t: results.append((node, t)),
        rng=net.rng,
    )
    worm.start(net.fabric.inject[src], None)
    return worm


class TestUnicastTiming:
    def test_line_latency_exact(self):
        # 3 switches in a line, 1 host each; node0 -> node2.
        # inject h=1; decode@2; fwd h=4; decode@5; fwd h=7; decode@8;
        # deliver h=10; tail = 10 + 127 = 137.
        net = SimNetwork(make_line(3), SimParams())
        res = []
        launch_unicast(net, 0, 2, res)
        net.run()
        assert res == [(2, 137.0)]

    def test_same_switch_latency(self):
        # node0 -> node1 on one switch: inject h=1, decode@2, deliver h=4,
        # tail = 4 + 127 = 131.
        net = SimNetwork(make_line(1, hosts_per_switch=2), SimParams())
        res = []
        launch_unicast(net, 0, 1, res)
        net.run()
        assert res == [(1, 131.0)]

    def test_latency_scales_with_hops(self):
        lat = {}
        for n_sw in (2, 4, 6):
            net = SimNetwork(make_line(n_sw), SimParams())
            res = []
            launch_unicast(net, 0, n_sw - 1, res)
            net.run()
            lat[n_sw] = res[0][1]
        # each extra switch-switch hop costs switch+link+routing = 3 cycles
        assert lat[4] - lat[2] == 6.0
        assert lat[6] - lat[4] == 6.0

    def test_packet_length_sets_tail_time(self):
        net = SimNetwork(make_line(3), SimParams(packet_flits=64))
        res = []
        launch_unicast(net, 0, 2, res)
        net.run()
        assert res == [(2, 10.0 + 63)]

    def test_diamond_adaptive_still_delivers(self):
        net = SimNetwork(make_diamond(), SimParams())
        res = []
        launch_unicast(net, 0, 3, res)
        net.run()
        # 0 -> (1 or 2) -> 3: inject h=1, decode@2, fwd h=4, decode@5,
        # fwd h=7, decode@8, deliver h=10, tail 137.
        assert res == [(3, 137.0)]

    def test_deterministic_routing_single_option(self):
        net = SimNetwork(make_diamond(), SimParams(adaptive_routing=False))
        res = []
        launch_unicast(net, 0, 3, res)
        net.run()
        assert res == [(3, 137.0)]


class TestContention:
    def test_two_packets_same_injection_serialize(self):
        # Two back-to-back packets from node0: the second's injection starts
        # when the first releases the injection channel (tail clears it at
        # h0 + L - 1 = 128).  Its header then chases the first worm's tail
        # down the line, picking up a 1-cycle pipeline bubble at sw0's
        # output, so it is delivered 129 cycles after the first.
        net = SimNetwork(make_line(3), SimParams())
        res = []
        launch_unicast(net, 0, 2, res)
        launch_unicast(net, 0, 2, res)
        net.run()
        assert res == [(2, 137.0), (2, 137.0 + 129)]

    def test_two_sources_share_delivery_channel(self):
        # node0 and node1 on distinct switches both send to node2 (sw2).
        # The second worm queues on the delivery channel.
        net = SimNetwork(make_line(3, hosts_per_switch=1), SimParams())
        res = []
        launch_unicast(net, 0, 2, res)
        launch_unicast(net, 1, 2, res)
        net.run()
        assert len(res) == 2
        t1, t2 = sorted(t for _n, t in res)
        # Winner is node1's worm (fewer hops: tail 134); loser gets the
        # delivery channel only when the winner's tail clears it.
        assert t2 > t1
        assert t2 - t1 >= net.params.packet_flits - 10

    def test_quiescence_rejects_pending_events(self):
        # A scheduled-but-unfired event is not quiescent even though every
        # channel and CPU is idle; the diagnostic names the next fire time.
        net = SimNetwork(make_line(3), SimParams())
        net.engine.at(500, lambda: None)
        with pytest.raises(AssertionError, match="pending.*t=500"):
            net.assert_quiescent()
        net.run()
        net.assert_quiescent()

    def test_network_run_plumbs_max_events(self):
        # The network API exposes the engine's runaway safety valve.
        net = SimNetwork(make_line(3), SimParams())

        def respawn() -> None:
            net.engine.after(0, respawn)

        net.engine.after(0, respawn)
        with pytest.raises(RuntimeError, match="max_events=50"):
            net.run(max_events=50)

    def test_release_allows_reuse(self):
        # After a worm completes, the same path is immediately reusable.
        net = SimNetwork(make_line(3), SimParams())
        res = []
        launch_unicast(net, 0, 2, res)
        net.run()
        net.assert_quiescent()
        launch_unicast(net, 0, 2, res)
        net.run()
        net.assert_quiescent()
        assert len(res) == 2


class TestBufferRegimes:
    def _blocked_upstream_release(self, buffer_flits: int) -> tuple[float, float]:
        """Returns (time s0->s1 released by worm B, time blocker finished).

        Worm A: node1 (sw1) -> node2 (sw2) -- holds sw1->sw2 then the
        delivery channel.  Worm B: node0 -> node2, blocked at sw1 behind A.
        """
        params = SimParams(input_buffer_flits=buffer_flits)
        net = SimNetwork(make_line(3), params)
        res = []
        launch_unicast(net, 1, 2, res)  # worm A (wins sw1->sw2)
        launch_unicast(net, 0, 2, res)  # worm B
        link01 = net.topo.links[0]
        ch = net.fabric.forward_channel(link01, 0)
        release_times = []
        ch.release_hook = release_times.append
        net.run()
        a_done = min(t for _n, t in res)
        return release_times[0], a_done

    def test_virtual_cut_through_frees_upstream_early(self):
        # Buffer >= packet: B absorbs into sw1's buffer and frees sw0->sw1
        # after exactly L cycles even though it is still blocked at sw1.
        rel, a_done = self._blocked_upstream_release(buffer_flits=256)
        assert rel < a_done

    def test_wormhole_holds_upstream_when_blocked(self):
        # Tiny buffer: B spans both channels while blocked, so sw0->sw1 is
        # held until after A drains and B advances.
        rel, a_done = self._blocked_upstream_release(buffer_flits=4)
        assert rel > a_done

    def test_unblocked_release_is_rate_limited(self):
        # Without contention, release = header-cross + L - 1 regardless of
        # the buffer size.
        for buf in (4, 64, 256):
            net = SimNetwork(make_line(3), SimParams(input_buffer_flits=buf))
            ch = net.fabric.forward_channel(net.topo.links[0], 0)
            releases = []
            ch.release_hook = releases.append
            res = []
            launch_unicast(net, 0, 2, res)
            net.run()
            assert releases == [4.0 + 127]


class TestReplication:
    def test_fork_delivers_both_copies(self):
        # Custom steer: at the hub of a star, fork to two leaf switches.
        net = SimNetwork(make_star(2, hosts_per_switch=1), SimParams())
        # hosts: node0 on hub sw0, node1 on sw1, node2 on sw2
        fab = net.fabric

        def steer(switch, state):
            if switch == 0:
                return [
                    Forward([(fab.forward_channel(net.topo.links[0], 0), "d1")]),
                    Forward([(fab.forward_channel(net.topo.links[1], 0), "d2")]),
                ]
            node = 1 if state == "d1" else 2
            return [Deliver(fab.deliver[node])]

        res = []
        worm = Worm(net.engine, net.params, steer,
                    on_delivered=lambda n, t: res.append((n, t)), rng=net.rng)
        worm.start(fab.inject[0], None)
        net.run()
        # Both branches advance in parallel: inject h=1, decode@2, fwd h=4,
        # decode@5, deliver h=7, tail 134 -- identical for both.
        assert sorted(res) == [(1, 134.0), (2, 134.0)]

    def test_fork_decouples_branches_via_replication_buffers(self):
        # Block one branch with a competing worm.  Replicating switch ports
        # have full-packet replication buffers (deadlock-free replication,
        # paper section 3.3), so the blocked branch absorbs into its buffer:
        # the shared injection channel releases at its rate limit and the
        # unblocked branch delivers on time.
        params = SimParams(input_buffer_flits=4)
        net = SimNetwork(make_star(2, hosts_per_switch=2), params)
        # hosts: 0,1 on hub; 2,3 on sw1; 4,5 on sw2
        fab = net.fabric
        res = []
        # Blocker: node2 -> node3 (same switch sw1) occupies deliver[3]?
        # Use node2 -> node3 delivery via sw1 only; instead block the
        # hub->sw1 link with a unicast from node0 to node2.
        launch_unicast(net, 0, 2, res)

        def steer(switch, state):
            if switch == 0:
                return [
                    Forward([(fab.forward_channel(net.topo.links[0], 0), "a")]),
                    Forward([(fab.forward_channel(net.topo.links[1], 0), "b")]),
                ]
            node = 3 if state == "a" else 4
            return [Deliver(fab.deliver[node])]

        worm = Worm(net.engine, net.params, steer,
                    on_delivered=lambda n, t: res.append((n, t)), rng=net.rng,
                    label="fork")
        inj = fab.inject[1]
        releases = []
        inj.release_hook = releases.append
        worm.start(inj, None)
        net.run()
        assert len(res) == 3
        times = dict((n, t) for n, t in res)
        blocked_branch_delivery = times[3]
        unblocked = times[4]
        # Unblocked branch delivers at its uncontended tail time...
        assert unblocked == 134.0
        # ...the injection channel drains at its rate limit...
        assert releases[0] == 128.0
        # ...and only the blocked branch waits for the competing worm.
        assert blocked_branch_delivery > unblocked + 100

    def test_worm_completion_callback(self):
        net = SimNetwork(make_line(3), SimParams())
        done = []
        worm = Worm(net.engine, net.params, net.unicast_steer(2),
                    on_delivered=lambda n, t: None,
                    on_done=lambda: done.append(net.engine.now), rng=net.rng)
        worm.start(net.fabric.inject[0], None)
        net.run()
        assert len(done) == 1
        assert worm.finish_time == done[0]
        net.assert_quiescent()


class TestKeptBounds:
    """Every send bound a worm keeps equals a fresh recomputation.

    A hop keeps a bound only once no ungranted or unexpanded hop can change
    it.  Recomputing each kept bound on the finished worm, with every kept
    bound cleared first, must give the same cycle; a bound kept from a
    blocked walk misses a constraint term and differs.
    """

    @staticmethod
    def _run(buffer: int, packet_flits: int, vc_count: int, index: int):
        scenario = generate_scenario(
            23, index, fault_rate=0.0, churn_rate=0.0, collective_rate=0.0,
            vc_count=vc_count,
        )
        params = scenario.params.replace(
            input_buffer_flits=buffer, packet_flits=packet_flits
        )
        net = SimNetwork(scenario.topo, params)
        net.worm_log = []
        # All three schemes at once from one source: they contend for the
        # source's injection channel and the fabric, so walks block.
        for name in ("ni", "tree", "path"):
            if name == "tree" and header_flits(params.num_nodes) >= packet_flits:
                continue  # the bit-string header leaves no payload room
            make_scheme(name).execute(
                net, scenario.source, list(scenario.dests)
            )
        net.run()
        return net.worm_log

    @pytest.mark.parametrize("vc_count", [1, 4])
    @pytest.mark.parametrize("packet_flits", [2, 16])
    @pytest.mark.parametrize("buffer", [1, 2, 4, 64])
    def test_kept_bound_equals_fresh_recomputation(
        self, buffer, packet_flits, vc_count
    ):
        checked = below_tail = 0
        for index in range(4):
            for worm in self._run(buffer, packet_flits, vc_count, index):
                assert worm.finish_time is not None
                hops = worm._hops
                kept = [
                    (hop, idx, bound)
                    for hop in hops
                    for idx, bound in hop.bounds.items()
                ]
                for hop, idx, bound in kept:
                    for h in hops:
                        h.bounds.clear()
                    assert worm._send_bound(hop, idx) == bound
                    below_tail += idx < packet_flits - 1
                checked += len(kept)
        assert checked > 0
        # A packet longer than one buffer plus the channel walks down the
        # route, so bounds below the tail flit are kept as well.
        assert (below_tail > 0) == (packet_flits > buffer + 1)

    def test_finished_worm_frees_its_hops_by_refcount(self):
        """No reference cycle holds a hop: with the cycle collector off, the
        hops and their kept bounds are gone as soon as the worm is."""
        net = SimNetwork(make_line(3), SimParams(input_buffer_flits=4))
        worm = launch_unicast(net, 0, 2, [])
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            net.run()
            hops = [weakref.ref(h) for h in worm._hops]
            assert all(h().bounds for h in hops)
            del worm
            assert [h() for h in hops] == [None] * len(hops)
        finally:
            if was_enabled:
                gc.enable()


class TestWormGuards:
    def test_channel_reuse_rejected(self):
        net = SimNetwork(make_line(2, hosts_per_switch=1), SimParams())
        ch = net.fabric.deliver[1]

        def steer(switch, state):
            return [Deliver(ch), Deliver(ch)]

        worm = Worm(net.engine, net.params, steer,
                    on_delivered=lambda n, t: None, rng=net.rng)
        worm.start(net.fabric.inject[0], None)
        with pytest.raises(RuntimeError, match="twice"):
            net.run()

    def test_empty_steer_rejected(self):
        net = SimNetwork(make_line(2), SimParams())
        worm = Worm(net.engine, net.params, lambda s, st: [],
                    on_delivered=lambda n, t: None, rng=net.rng)
        worm.start(net.fabric.inject[0], None)
        with pytest.raises(RuntimeError, match="stranded"):
            net.run()

    def test_double_start_rejected(self):
        net = SimNetwork(make_line(2), SimParams())
        worm = Worm(net.engine, net.params, net.unicast_steer(1),
                    on_delivered=lambda n, t: None, rng=net.rng)
        worm.start(net.fabric.inject[0], None)
        with pytest.raises(RuntimeError, match="already started"):
            worm.start(net.fabric.inject[0], None)

    def test_zero_link_delay_rejected(self):
        net_params = SimParams(link_delay=0)
        with pytest.raises(ValueError, match="link_delay"):
            Worm(Engine(), net_params, lambda s, st: [],
                 on_delivered=lambda n, t: None)
