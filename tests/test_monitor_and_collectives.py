"""Tests for utilization monitoring and the collective operations."""

import hashlib
import random

import pytest

from repro.chaos import FaultInjector, FaultSchedule, ReliableMulticast
from repro.collectives import (
    barrier,
    broadcast,
    multicast_with_acks,
    reduce_to_root,
)
from repro.multicast import make_scheme
from repro.params import SimParams
from repro.sim.monitor import NetworkMonitor
from repro.sim.network import SimNetwork
from repro.topology.irregular import generate_irregular_topology
from repro.traffic.load import run_load_experiment
from tests.topo_fixtures import make_line


def default_net(seed=3, **kw) -> SimNetwork:
    p = SimParams(**kw)
    return SimNetwork(generate_irregular_topology(p, seed=seed), p)


class TestMonitor:
    def test_idle_network_zero_utilization(self):
        net = default_net()
        mon = NetworkMonitor(net)
        net.engine.at(1000, lambda: None)
        net.run()
        rep = mon.report()
        assert rep.mean_link_utilization == 0.0
        assert rep.total_flits_moved == 0

    def test_single_worm_utilization_accounting(self):
        net = SimNetwork(make_line(3), SimParams())
        mon = NetworkMonitor(net)
        worm_res = []
        net.hosts[0].launch_worm(
            net.unicast_steer(2), None,
            on_delivered=lambda n, t: worm_res.append(t),
        )
        net.run()
        rep = mon.report()
        # 4 channels carried exactly L flits each.
        assert rep.total_flits_moved == 4 * net.params.packet_flits
        assert rep.max_link_utilization > 0
        assert rep.mean_cpu_utilization == 0.0  # raw worm, no host stack

    @pytest.mark.parametrize(
        "scheme,vc,faults,late,digest",
        [
            ("binomial", 1, False, False, "f767e60feb83e661"),
            ("ni", 4, True, False, "7972e3773cf88d80"),
            ("tree", 4, True, False, "652f41cfcd4929e7"),
            ("path", 4, True, False, "ea13c485dd01c39b"),
            ("tree", 2, True, True, "d51a233b26b02383"),
            ("path", 2, True, True, "7c12eee21c3b5fef"),
        ],
    )
    def test_report_pinned(self, scheme, vc, faults, late, digest):
        """The report's text is pinned (digests taken when every channel was
        built up front): untouched channels count as idle, in uid order,
        whether the window opens before any traffic or mid-run."""
        p = SimParams(vc_count=vc)
        net = SimNetwork(generate_irregular_topology(p, seed=3), p)
        mon = None if late else NetworkMonitor(net)
        rng = random.Random(7)
        if faults:
            sched = FaultSchedule.random(
                net.topo, 1, rng, window=(100.0, 3000.0)
            )
            FaultInjector(net, sched).arm()
        reliable = ReliableMulticast(net, make_scheme(scheme))
        for i in range(12):
            src = rng.randrange(32)
            dests = rng.sample([n for n in range(32) if n != src], 9)
            net.engine.at(i * 400, lambda s=src, d=dests: reliable.send(s, d))
        if late:
            net.run(until=1500)
            mon = NetworkMonitor(net)
        net.run()
        text = repr(mon.report())
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, text

    def test_max_link_tie_breaks_in_uid_order(self):
        """Two links equally busy: the report names the one first in uid
        order, even though the traffic looked the other one up first."""
        net = SimNetwork(make_line(3), SimParams())

        def send():
            net.hosts[2].launch_worm(
                net.unicast_steer(0), None, on_delivered=lambda n, t: None
            )
            net.run()

        send()  # builds fwd:l1:s2->s1 before fwd:l0:s1->s0
        mon = NetworkMonitor(net)
        send()
        rep = mon.report()
        assert rep.max_link_name == "fwd:l0:s1->s0"

    def test_empty_window_rejected(self):
        net = default_net()
        mon = NetworkMonitor(net)
        with pytest.raises(ValueError):
            mon.report()

    def test_bottleneck_under_load_is_software(self):
        # At the paper's defaults the host/NI software overheads dominate,
        # so the saturating resource under multicast load is not the links.
        net = default_net()
        mon = NetworkMonitor(net)
        rng = random.Random(0)
        scheme = make_scheme("binomial")
        for i in range(10):
            src = rng.randrange(32)
            dests = rng.sample([n for n in range(32) if n != src], 8)
            net.engine.at(i * 500, lambda s=src, d=dests: scheme.execute(net, s, d))
        net.run()
        rep = mon.report()
        assert rep.bottleneck() in ("host CPUs", "NI processors")
        assert rep.mean_cpu_utilization > rep.max_link_utilization


class TestCollectives:
    @pytest.mark.parametrize("scheme", ["binomial", "ni", "path", "tree"])
    def test_broadcast_reaches_everyone(self, scheme):
        net = default_net()
        res = broadcast(net, 0, scheme)
        net.run()
        assert res.complete
        assert set(res.node_times) == set(range(1, 32))
        net.assert_quiescent()

    def test_broadcast_tree_fastest(self):
        lat = {}
        for scheme in ("binomial", "ni", "path", "tree"):
            net = default_net()
            res = broadcast(net, 0, scheme)
            net.run()
            lat[scheme] = res.latency
        assert lat["tree"] == min(lat.values())
        assert lat["binomial"] == max(lat.values())

    @pytest.mark.parametrize("scheme", ["tree", "ni"])
    def test_barrier_completes_and_orders(self, scheme):
        net = default_net()
        res = barrier(net, 0, scheme)
        net.run()
        assert res.complete
        assert set(res.node_times) == set(range(32))
        # no node exits the barrier before it began
        assert all(t >= res.start_time for t in res.node_times.values())
        net.assert_quiescent()

    def test_barrier_root_exits_at_release_send(self):
        net = default_net()
        res = barrier(net, 0, "tree")
        net.run()
        # Root's exit is recorded when the release multicast completes.
        assert res.node_times[0] == res.complete_time

    def test_reduce_completes(self):
        net = default_net()
        res = reduce_to_root(net, 0)
        net.run()
        assert res.complete
        assert res.latency > 0
        net.assert_quiescent()

    def test_reduce_scales_with_log_nodes(self):
        lat = {}
        for nodes, switches in ((8, 2), (32, 8)):
            p = SimParams(num_nodes=nodes, num_switches=switches)
            net = SimNetwork(generate_irregular_topology(p, seed=3), p)
            res = reduce_to_root(net, 0)
            net.run()
            lat[nodes] = res.latency
        assert lat[32] > lat[8]
        assert lat[32] < lat[8] * 3  # logarithmic, not linear

    @pytest.mark.parametrize("scheme", ["tree", "path", "ni"])
    def test_multicast_with_acks(self, scheme):
        net = default_net()
        res = multicast_with_acks(net, 0, [4, 9, 13, 21], scheme)
        net.run()
        assert res.complete
        assert set(res.node_times) == {4, 9, 13, 21}
        net.assert_quiescent()

    def test_acks_arrive_after_deliveries(self):
        net = default_net()
        scheme_res = {}
        res = multicast_with_acks(net, 0, [4, 9], "tree")
        net.run()
        # completion (last ack at source) is strictly after the multicast
        # itself would have completed
        net2 = default_net()
        plain = make_scheme("tree").execute(net2, 0, [4, 9])
        net2.run()
        assert res.latency > plain.latency


class TestLoadWithMonitor:
    def test_load_experiment_leaves_consistent_flit_counts(self):
        net_topo = generate_irregular_topology(SimParams(), seed=3)
        point = run_load_experiment(
            net_topo, SimParams(), "tree", degree=4, effective_load=0.02,
            duration=30_000, warmup=3_000,
        )
        assert point.completed > 0
