"""Chaos suite: runtime link faults, reconfiguration, retriable delivery.

The paper's robustness claim -- irregular topologies are "resistant to
faults" and amenable to Autonet-style reconfiguration -- is exercised here
mid-flight: links die under worms of every multicast scheme, the network
reconfigures in place, and the reliable delivery layer must redeliver
exactly-once.  A no-fault wrapped run must stay byte-identical to a bare
run, and a fixed seed + schedule must replay to a pinned golden digest
(including through the ``ProcessPoolExecutor`` path the experiment runner
uses).
"""

import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.chaos import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    ReliableMulticast,
)
from repro.multicast import make_scheme
from repro.params import SimParams
from repro.routing.invariants import cdg_problems
from repro.routing.paths import all_minimal_paths, updown_decomposition
from repro.sim.monitor import NetworkMonitor
from repro.sim.network import SimNetwork
from repro.sim.tracelog import TraceLog
from repro.topology.faults import schedule_faults
from tests.topo_fixtures import make_chorded_diamond, make_diamond, make_line

SCHEMES = ["binomial", "ni", "tree", "path"]


def chaos_net(topo=None, **params) -> SimNetwork:
    net = SimNetwork(topo if topo is not None else make_chorded_diamond(),
                     SimParams(**params))
    net.trace = TraceLog()
    net.worm_log = []
    return net


def arm(net, pairs, **kw) -> FaultInjector:
    injector = FaultInjector(net, FaultSchedule.from_pairs(pairs), **kw)
    injector.arm()
    return injector


# ----------------------------------------------------------------------
# Schedule and injector primitives
# ----------------------------------------------------------------------
class TestSchedule:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultEvent(-1.0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            FaultEvent(5.0, -2)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_event_time_rejected(self, time):
        with pytest.raises(ValueError, match="finite and non-negative"):
            FaultEvent(time, 0)

    def test_out_of_order_events_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            FaultSchedule(events=(FaultEvent(9.0, 0), FaultEvent(2.0, 1)))

    def test_from_pairs_sorts(self):
        sched = FaultSchedule.from_pairs([(9.0, 0), (2.0, 1)])
        assert [ev.time for ev in sched] == [2.0, 9.0]
        assert len(sched) == 2
        assert sched.to_pairs() == [(2.0, 1), (9.0, 0)]

    def test_random_schedule_is_seeded_and_absorbable(self):
        topo = make_chorded_diamond()
        s1 = FaultSchedule.random(topo, 2, random.Random(3))
        s2 = FaultSchedule.random(topo, 2, random.Random(3))
        assert s1 == s2
        assert len(s1) == 2

    def test_schedule_faults_stuck_error(self):
        with pytest.raises(ValueError, match="stuck after 1"):
            schedule_faults(make_diamond(), 2, random.Random(0))

    def test_schedule_faults_validation(self):
        topo = make_chorded_diamond()
        with pytest.raises(ValueError, match="non-negative"):
            schedule_faults(topo, -1)
        with pytest.raises(ValueError, match="window"):
            schedule_faults(topo, 1, window=(10.0, 2.0))

    @pytest.mark.parametrize(
        "window",
        [
            (0.0, float("nan")),
            (float("nan"), 5.0),
            (0.0, float("inf")),
            (float("-inf"), 5.0),
            (-1.0, 5.0),
        ],
    )
    def test_schedule_faults_rejects_bad_windows(self, window):
        # Unguarded, (0, nan) yields a NaN fire time that fails only when
        # armed, and (0, inf) a fault that never fires.
        with pytest.raises(ValueError, match="window must be"):
            schedule_faults(
                make_chorded_diamond(), 1, random.Random(1), window=window
            )


class TestInjector:
    def test_double_arm_rejected(self):
        net = chaos_net()
        injector = arm(net, [(5.0, 0)])
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()

    def test_negative_latency_rejected(self):
        net = chaos_net()
        with pytest.raises(ValueError, match="non-negative"):
            FaultInjector(net, FaultSchedule(), reconfig_latency=-1.0)

    @pytest.mark.parametrize("latency", [float("nan"), float("inf")])
    def test_non_finite_latency_rejected(self, latency):
        net = chaos_net()
        with pytest.raises(ValueError, match="^reconfig_latency must be finite"):
            FaultInjector(net, FaultSchedule(), reconfig_latency=latency)

    def test_repeat_fault_is_skipped(self):
        net = chaos_net()
        arm(net, [(5.0, 4), (6.0, 4)])
        net.run()
        assert net.chaos.faults_fired == 1
        assert net.chaos.faults_skipped == 1
        assert net.trace.records(event="fault-skip")

    def test_disconnecting_fault_is_skipped(self):
        net = chaos_net(make_line(3))  # every link is a bridge
        arm(net, [(5.0, 0)])
        net.run()
        assert net.chaos.faults_fired == 0
        assert net.chaos.faults_skipped == 1
        assert net.routing_epoch == 0

    def test_fault_revokes_both_directions(self):
        net = chaos_net()
        arm(net, [(5.0, 4)])
        net.run()
        revoked = [ch for ch in net.fabric.forward.values() if ch.revoked]
        assert len(revoked) == 2
        assert all(ch.link.link_id == 4 for ch in revoked)

    def test_fault_revokes_channels_no_worm_touched(self):
        """Channels are built on first lookup; a fault on a link no lookup
        has reached still revokes both directions, and lookups after the
        fault find them revoked."""
        net = chaos_net()
        lk = next(lk for lk in net.topo.links if lk.link_id == 4)
        arm(net, [(5.0, 4)])
        net.run(until=4.0)
        assert net.fabric.built_channels() == []
        net.run()
        assert net.fabric.forward[(4, lk.b.switch)].revoked
        assert net.fabric.forward_channel(lk, lk.a.switch).revoked
        assert not any(
            ch.revoked for ch in net.fabric.all_channels() if ch.link is not lk
        )

    def test_reconfig_latency_delays_notification(self):
        net = chaos_net()
        seen = []
        net.fault_listeners.append(
            lambda ev: seen.append((net.engine.now, ev.link_id)))
        arm(net, [(5.0, 4)], reconfig_latency=25.0)
        net.run()
        assert seen == [(30.0, 4)]
        assert net.chaos.reconfig_latency_total == 25.0


# ----------------------------------------------------------------------
# Reconfiguration semantics
# ----------------------------------------------------------------------
class TestReconfiguration:
    def test_epoch_and_history_advance(self):
        net = chaos_net()
        assert net.routing_epoch == 0
        old_routing = net.routing
        arm(net, [(5.0, 4), (20.0, 0)])
        net.run()
        assert net.routing_epoch == 2
        assert net.chaos.reconfigurations == 2
        assert net.routing_history[0] is old_routing
        assert net.routing_history[2] is net.routing
        assert len(net.topo.links) == 3

    def test_post_reconfiguration_routing_is_legal(self):
        net = chaos_net()
        arm(net, [(5.0, 4)])
        net.run()
        assert cdg_problems(net.topo, net.routing) == []
        # every minimal route the new tables can produce decomposes into
        # up* then down*
        for src_sw in range(net.topo.num_switches):
            for dst_sw in range(net.topo.num_switches):
                if src_sw == dst_sw:
                    continue
                paths = all_minimal_paths(net.routing, src_sw, dst_sw)
                assert paths, f"no route {src_sw}->{dst_sw} after reconfig"
                for path in paths:
                    updown_decomposition(net.routing, src_sw, path)

    def test_plan_cache_invalidated_by_reconfiguration(self):
        net = chaos_net()
        scheme = make_scheme("tree")
        scheme.enable_plan_cache()
        scheme.execute(net, 0, [3, 5])
        net.run()
        keys_before = set(scheme._plan_cache[net])
        net.reconfigure(net.topo)  # manual epoch bump, same topology
        scheme.execute(net, 0, [3, 5])
        net.run()
        fresh = set(scheme._plan_cache[net]) - keys_before
        assert fresh, "reconfiguration must invalidate cached plans"
        assert all(k[0] == net.routing_epoch for k in fresh)


# ----------------------------------------------------------------------
# Mid-flight faults per scheme
# ----------------------------------------------------------------------
class TestMidFlightFault:
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_single_link_fault_redelivers_exactly_once(self, scheme_name):
        net = chaos_net()
        arm(net, [(5.0, 0)])
        reliable = ReliableMulticast(net, make_scheme(scheme_name))
        op = reliable.send(0, [2, 5, 7])
        net.run()

        assert net.chaos.faults_fired == 1
        assert op.complete, f"unacked: {op.unacked()}"
        assert sorted(op.acked) == [2, 5, 7]      # exactly-once: dict keys
        assert not op.gave_up
        assert op.latency >= 0
        net.assert_quiescent()                     # network quiesces

        # every aborted worm released all its channels without counting
        # traffic on the unfinished hops
        for worm in net.worm_log:
            if worm.aborted:
                assert worm.finish_time is None
                assert net.trace.records(event="abort", worm_contains=worm.label)

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_fault_and_retry_leave_trace_records(self, scheme_name):
        net = chaos_net()
        arm(net, [(5.0, 0)])
        reliable = ReliableMulticast(net, make_scheme(scheme_name))
        op = reliable.send(0, [2, 5, 7])
        net.run()
        assert op.complete
        assert net.trace.records(event="fault")
        assert net.trace.records(event="reconfig")
        assert net.trace.records(event="retry")
        assert net.trace.records(event="replan")

    def test_nack_propagates_to_source_host(self):
        # Raw launch (no retry layer): an aborted worm must nack back to
        # the source host -- trace record, counters, and the sender's
        # on_abort callback.
        net = chaos_net()
        nacks = []
        worm = net.hosts[0].launch_worm(
            net.unicast_steer(7), None, lambda node, t: None,
            on_abort=nacks.append, label="raw:0>7",
        )
        net.run(until=1.0)  # let the worm occupy some channels
        worm.abort("link 0 failed")
        assert nacks == ["link 0 failed"]
        assert net.chaos.worms_aborted == 1
        assert net.chaos.nacks == 1
        recs = net.trace.records(event="nack", worm_contains="raw:0>7")
        assert recs and "node 0: link 0 failed" in recs[0].detail
        net.run()
        net.assert_quiescent()

    def test_worm_requesting_revoked_channel_aborts(self):
        # A fault at t=0 revokes before any worm moves: the first worm to
        # route across the dead link aborts at request time.
        net = chaos_net()
        arm(net, [(0.0, 0)])
        reliable = ReliableMulticast(net, make_scheme("binomial"),
                                     backoff=10.0)
        op = reliable.send(0, [2])
        net.run()
        assert op.complete
        net.assert_quiescent()


# ----------------------------------------------------------------------
# Exactly-once bookkeeping
# ----------------------------------------------------------------------
class TestExactlyOnce:
    def test_duplicate_acks_are_deduplicated(self):
        # The conservative retry resends to destinations whose first copy
        # is still in its receive pipeline; the duplicate ack must not
        # overwrite the first delivery time.
        net = chaos_net(make_diamond(hosts_per_switch=2))
        arm(net, [(5.0, 0)])
        reliable = ReliableMulticast(net, make_scheme("binomial"))
        op = reliable.send(0, [2, 4, 6])
        net.run()
        assert op.complete
        assert net.chaos.duplicate_acks > 0
        assert net.trace.records(event="dup-ack")
        first_acks = dict(op.acked)
        assert all(t <= net.engine.now for t in first_acks.values())

    def test_giveup_after_max_attempts(self):
        net = chaos_net()
        arm(net, [(5.0, 0)])
        reliable = ReliableMulticast(net, make_scheme("binomial"),
                                     max_attempts=1)
        op = reliable.send(0, [2, 5, 7])
        net.run()
        # the single allowed attempt was interrupted; no retry is permitted
        assert op.gave_up
        assert not op.complete
        assert net.chaos.gave_up == 1
        assert net.trace.records(event="giveup")
        net.assert_quiescent()

    def test_delivery_layer_validation(self):
        net = chaos_net()
        scheme = make_scheme("binomial")
        with pytest.raises(ValueError, match="backoff"):
            ReliableMulticast(net, scheme, backoff=-1.0)
        with pytest.raises(ValueError, match="backoff_factor"):
            ReliableMulticast(net, scheme, backoff_factor=0.5)
        with pytest.raises(ValueError, match="max_attempts"):
            ReliableMulticast(net, scheme, max_attempts=0)

    def test_on_complete_fires_once(self):
        net = chaos_net()
        done = []
        arm(net, [(5.0, 0)])
        reliable = ReliableMulticast(net, make_scheme("tree"))
        reliable.send(0, [2, 5, 7], on_complete=done.append)
        net.run()
        assert len(done) == 1 and done[0].complete


# ----------------------------------------------------------------------
# Monitor integration
# ----------------------------------------------------------------------
class TestMonitor:
    def test_report_carries_chaos_counters(self):
        net = chaos_net()
        mon = NetworkMonitor(net)
        arm(net, [(5.0, 0)], reconfig_latency=7.0)
        reliable = ReliableMulticast(net, make_scheme("binomial"))
        op = reliable.send(0, [2, 5, 7])
        net.run()
        assert op.complete
        report = mon.report()
        assert report.reconfigurations == 1
        assert report.retries == net.chaos.retries >= 1
        assert report.worms_aborted == net.chaos.worms_aborted
        assert report.reconfig_latency_total == 7.0


# ----------------------------------------------------------------------
# Determinism: no-fault byte-identity and the golden digest
# ----------------------------------------------------------------------
def _bare_digest(scheme_name: str) -> str:
    net = chaos_net()
    scheme = make_scheme(scheme_name)
    scheme.execute(net, 0, [2, 5, 7])
    net.run()
    return net.trace.digest()


def _wrapped_digest(scheme_name: str) -> str:
    net = chaos_net()
    arm(net, [])  # empty schedule
    reliable = ReliableMulticast(net, make_scheme(scheme_name))
    reliable.send(0, [2, 5, 7])
    net.run()
    return net.trace.digest()


class TestNoFaultByteIdentity:
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_wrapped_no_fault_run_is_byte_identical(self, scheme_name):
        assert _bare_digest(scheme_name) == _wrapped_digest(scheme_name)


def golden_chaos_digest(seed: int) -> str:
    """The pinned chaos run: module-level so ProcessPoolExecutor picks it up.

    Everything is derived from ``seed``; the trace digest is the
    determinism contract's witness.
    """
    net = chaos_net()
    sched = FaultSchedule.random(
        net.topo, 2, random.Random(seed), window=(2.0, 40.0))
    FaultInjector(net, sched, reconfig_latency=5.0).arm()
    reliable = ReliableMulticast(net, make_scheme("tree"))
    rng = random.Random(seed + 1)
    ops = [reliable.send(0, rng.sample(range(1, 8), 3)) for _ in range(2)]
    net.run()
    assert all(op.complete for op in ops)
    net.assert_quiescent()
    return net.trace.digest()


GOLDEN_DIGEST = (
    "51b8fce79db0029e778e0582f126f0146ed18010c8c714eea1fcaba6ce3ac264"
)
"""sha256 of the rendered trace of ``golden_chaos_digest(42)``.

If an intentional timing/trace change moves this, regenerate with
``PYTHONPATH=src:. python -c "from tests.test_chaos import *; print(golden_chaos_digest(42))"``
and say why in the commit message.
"""


class TestGoldenDeterminism:
    def test_same_seed_and_schedule_replays_identically(self):
        assert golden_chaos_digest(42) == golden_chaos_digest(42)

    def test_golden_digest_is_pinned(self):
        assert golden_chaos_digest(42) == GOLDEN_DIGEST

    def test_replay_through_process_pool(self):
        # the experiment runner's parallel path: child processes must
        # reproduce the parent's digest bit-for-bit
        with ProcessPoolExecutor(max_workers=2) as pool:
            digests = list(pool.map(golden_chaos_digest, [42, 42]))
        assert digests == [GOLDEN_DIGEST, GOLDEN_DIGEST]
