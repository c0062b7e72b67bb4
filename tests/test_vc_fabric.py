"""Virtual-channel fabric regression battery.

Four guarantees of the multi-lane wormhole fabric are pinned here:

* **vcs=1 byte-identity** -- with a single lane per physical channel, both
  backends must reproduce the golden delivery maps committed in PR 2
  bit-for-bit (the multi-lane resource degenerates to the FIFO channel's
  exact event sequence);
* **blocking relief** -- the known head-of-line stall from the
  cross-validation suite (a line where one worm occupies the shared link)
  must resolve strictly earlier with 2 virtual channels, without disturbing
  the unblocked worm;
* **backend identity at width** -- the worm-level event model and the
  flit-level reference simulator must agree on per-destination delivery
  times at 2 and 4 VCs, not just at 1;
* **revocation under chaos** -- a mid-flight link fault must abort worms
  holding *any* lane of the revoked physical channel, redeliver
  exactly-once, and replay to a pinned digest at 4 VCs.

Plus directed unit tests of the lane allocator itself (round-robin scan,
adaptive lane-0 exclusion, conservation counters) and of the escape-VC
routing mode end to end.
"""

import random

import pytest

from repro.chaos import FaultInjector, FaultSchedule, ReliableMulticast
from repro.multicast import make_scheme
from repro.params import SimParams
from repro.routing.deadlock import (
    build_escape_cdg,
    escape_subgraph,
    find_cycle,
)
from repro.routing.invariants import cdg_problems
from repro.sim.crossval import run_event_scenario, run_flit_scenario
from repro.sim.engine import Engine
from repro.sim.network import SimNetwork
from repro.sim.resources import MultiLaneResource
from repro.sim.tracelog import TraceLog
from repro.topology.irregular import generate_irregular_topology
from tests.topo_fixtures import make_chorded_diamond, make_line, make_star


# ----------------------------------------------------------------------
# Lane allocator unit tests
# ----------------------------------------------------------------------
class TestMultiLaneResource:
    def test_round_robin_scan_starts_after_last_grant(self):
        eng = Engine()
        res = MultiLaneResource(eng, lanes=3, name="ch")
        got: list[int] = []
        for _ in range(3):
            res.request(got.append)
        assert got == [0, 1, 2]
        res.release(1)
        res.request(got.append)
        # the scan starts at the lane after the last grant (0), so the
        # freed lane 1 is found first
        assert got[-1] == 1

    def test_lane_seed_rotates_first_grant(self):
        eng = Engine()
        res = MultiLaneResource(eng, lanes=4, name="ch", lane_seed=2)
        got: list[int] = []
        res.request(got.append)
        assert got == [2]

    def test_adaptive_request_never_takes_lane_zero(self):
        eng = Engine()
        res = MultiLaneResource(eng, lanes=2, name="ch")
        got: list[int] = []
        res.request(got.append, adaptive_only=True)
        assert got == [1]
        assert res.has_free_lane and not res.has_free_adaptive_lane

    def test_adaptive_request_on_one_lane_is_rejected(self):
        # Lane 0 is the only lane and adaptive requests refuse it, so the
        # request could only queue forever.
        eng = Engine()
        res = MultiLaneResource(eng, lanes=1, name="ch:7")
        got: list[int] = []
        with pytest.raises(ValueError, match="'ch:7'"):
            res.request(got.append, adaptive_only=True)
        eng.run()
        assert got == [] and res.queue_length == 0
        res.request(got.append)
        assert got == [0]

    def test_queued_grant_is_deferred_and_fifo(self):
        eng = Engine()
        res = MultiLaneResource(eng, lanes=1, name="ch")
        order: list[str] = []
        res.request(lambda lane: order.append("a"))
        res.request(lambda lane: order.append("b"))
        res.request(lambda lane: order.append("c"))
        assert order == ["a"]  # only the free-lane grant is synchronous
        res.release(0)
        assert order == ["a"]  # queued grants fire via the engine, not inline
        eng.run()
        assert order == ["a", "b"]
        res.release(0)
        eng.run()
        assert order == ["a", "b", "c"]

    def test_release_of_free_lane_rejected(self):
        res = MultiLaneResource(Engine(), lanes=2, name="ch")
        with pytest.raises(RuntimeError, match="idle lane"):
            res.release(0)

    def test_conservation_counters(self):
        eng = Engine()
        res = MultiLaneResource(eng, lanes=2, name="ch")
        lanes: list[int] = []
        for _ in range(2):
            res.request(lanes.append)
        assert res.peak_owned == 2 and res.owned_lanes == 2
        for lane in lanes:
            res.release(lane)
        eng.run()
        assert res.grants == res.releases == 2
        assert res.owned_lanes == 0


# ----------------------------------------------------------------------
# vcs=1 byte-identity against the committed PR 2 golden delivery maps
# ----------------------------------------------------------------------
class TestSingleLaneByteIdentity:
    """The multi-lane fabric at vcs=1 IS the single-lane fabric.

    These golden maps were captured from the pre-VC backends (and are also
    pinned by ``test_flitsim_crossvalidation.py``); reproducing them here
    with an explicit ``vc_count=1`` proves the lane generalization changed
    no event ordering, no arbitration tie-break, and no timestamp.
    """

    def _assert_both_match(self, topo, params, jobs, golden):
        assert run_event_scenario(topo, params, jobs) == golden
        assert run_flit_scenario(topo, params, jobs) == golden

    def test_replicating_worms_small_buffers_identical(self):
        params = SimParams(adaptive_routing=False, input_buffer_flits=4,
                           vc_count=1)
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

    def test_seeded_16_switch_identical(self):
        params = SimParams(adaptive_routing=False, num_switches=16,
                           packet_flits=512, vc_count=1)
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


# ----------------------------------------------------------------------
# Blocking relief: the known head-of-line stall resolves earlier at 2 VCs
# ----------------------------------------------------------------------
class TestBlockingRelief:
    """The HOL scenario of ``test_blocked_worm_delivery_times_agree``:
    worm 0 (node1 -> node2) occupies sw1 -> sw2; worm 1 (node0 -> node2)
    arrives behind it.  A second lane must let worm 1 proceed in parallel.
    """

    JOBS = [(0, 1, (2,)), (0, 0, (2,))]

    def _tails(self, vc_count: int) -> dict[tuple[int, int], float]:
        params = SimParams(adaptive_routing=False, input_buffer_flits=4,
                           vc_count=vc_count)
        return run_event_scenario(make_line(3), params, self.JOBS)

    def test_stall_resolves_strictly_earlier_with_two_lanes(self):
        one = self._tails(1)
        two = self._tails(2)
        # the occupying worm is untouched ...
        assert two[(0, 2)] == one[(0, 2)]
        # ... the blocked worm was genuinely stalled at one lane ...
        assert one[(1, 2)] > one[(0, 2)]
        # ... and provably unblocks with a second lane
        assert two[(1, 2)] < one[(1, 2)]

    @pytest.mark.parametrize("vc_count", [2, 4])
    def test_relief_agrees_across_backends(self, vc_count):
        params = SimParams(adaptive_routing=False, input_buffer_flits=4,
                           vc_count=vc_count)
        topo = make_line(3)
        assert run_event_scenario(topo, params, self.JOBS) == \
            run_flit_scenario(topo, params, self.JOBS)


# ----------------------------------------------------------------------
# Event-vs-flit backend identity at 2 and 4 VCs
# ----------------------------------------------------------------------
class TestMultiLaneBackendAgreement:
    @pytest.mark.parametrize("vc_count", [2, 4])
    def test_star_contention_agrees(self, vc_count):
        params = SimParams(adaptive_routing=False, input_buffer_flits=4,
                           vc_count=vc_count)
        topo = make_star(3, hosts_per_switch=2)
        jobs = [(0, 0, (2, 4)), (0, 1, (4, 6)), (3, 3, (6,))]
        ev = run_event_scenario(topo, params, jobs)
        fl = run_flit_scenario(topo, params, jobs)
        assert ev == fl
        # sanity: the second lane actually changed the vcs=1 timing
        base = run_event_scenario(
            topo, params.replace(vc_count=1), jobs)
        assert ev != base

    @pytest.mark.parametrize("vc_count", [2, 4])
    def test_seeded_irregular_agrees(self, vc_count):
        params = SimParams(adaptive_routing=False, num_switches=8,
                           packet_flits=64, vc_count=vc_count)
        topo = generate_irregular_topology(params, seed=11)
        jobs = [
            (0, 3, (0, 9, 12)),
            (0, 8, (1, 9, 14)),
            (10, 0, (5, 12)),
        ]
        assert run_event_scenario(topo, params, jobs) == \
            run_flit_scenario(topo, params, jobs)


# ----------------------------------------------------------------------
# Escape-VC routing mode
# ----------------------------------------------------------------------
class TestEscapeRouting:
    def test_escape_mode_requires_two_lanes(self):
        with pytest.raises(ValueError, match="at least 2 VCs"):
            SimParams(vc_routing="escape", vc_count=1).validate()

    def test_escape_lane_cdg_is_acyclic_on_seeded_topology(self):
        # The lane-0 subgraph is the multicast CDG up to lane tags
        # (test_lint_model_rules pins the equality).
        params = SimParams(num_switches=16)
        topo = generate_irregular_topology(params, seed=7)
        net = SimNetwork(topo, params)
        assert cdg_problems(topo, net.routing) == []

    def test_full_escape_cdg_is_cyclic_negative_control(self):
        # The acyclicity proof is about the *escape subgraph*; the full
        # lane-annotated CDG (adaptive claims included) is cyclic on any
        # topology with redundant links, which is what makes restricting
        # lane 0 a meaningful theorem rather than a vacuous one.
        params = SimParams(num_switches=16)
        topo = generate_irregular_topology(params, seed=7)
        net = SimNetwork(topo, params)
        deps = build_escape_cdg(topo, net.routing, vc_count=2)
        assert find_cycle(deps) is not None
        assert find_cycle(escape_subgraph(deps)) is None

    @pytest.mark.parametrize("vc_count", [2, 4])
    def test_escape_unicasts_deliver(self, vc_count):
        params = SimParams(num_switches=4, num_nodes=12,
                           vc_count=vc_count, vc_routing="escape")
        topo = generate_irregular_topology(params, seed=3)
        net = SimNetwork(topo, params)
        delivered: list[int] = []
        rng = random.Random(9)
        pairs = []
        for _ in range(16):
            src = rng.randrange(topo.num_nodes)
            dst = rng.choice([n for n in range(topo.num_nodes) if n != src])
            pairs.append((src, dst))
        from repro.sim.worm import Worm

        for i, (src, dst) in enumerate(pairs):
            w = Worm(net.engine, net.params, net.unicast_steer(dst),
                     on_delivered=lambda _n, _t, i=i: delivered.append(i),
                     rng=net.rng)
            w.start(net.fabric.inject[src], None)
        net.run()
        assert sorted(delivered) == list(range(len(pairs)))
        net.assert_quiescent()

    def test_escape_mode_is_deterministic(self):
        def run_once() -> dict:
            params = SimParams(num_switches=4, num_nodes=12, vc_count=2,
                               vc_routing="escape")
            topo = generate_irregular_topology(params, seed=3)
            net = SimNetwork(topo, params)
            out: dict[int, float] = {}
            from repro.sim.worm import Worm

            for i, (src, dst) in enumerate([(0, 7), (1, 7), (2, 7), (3, 7)]):
                w = Worm(net.engine, net.params, net.unicast_steer(dst),
                         on_delivered=lambda _n, t, i=i: out.__setitem__(i, t),
                         rng=net.rng)
                w.start(net.fabric.inject[src], None)
            net.run()
            return out

        assert run_once() == run_once()


# ----------------------------------------------------------------------
# Channel revocation under chaos with multiple lanes
# ----------------------------------------------------------------------
def four_vc_chaos_digest(seed: int) -> str:
    """Pinned 4-VC chaos run: a link dies while worms hold its lanes.

    Two reliable multicasts race six raw background unicasts that all
    converge on node 6 -- more worms than the 4 lanes of its delivery
    channel, so the run exercises lane sharing, round-robin arbitration
    AND queueing behind a fully-owned channel (asserted via ``peak_owned``).
    The background worms have no retry layer -- ones the fault aborts stay
    undelivered, which is fine: the digest pins whatever happened,
    including their delivery times (the chaos trace alone only records the
    reliable layer).  Module-level (not a closure) so it replays
    byte-identically through the same ``ProcessPoolExecutor`` path the
    experiment runner uses.
    """
    import hashlib

    from repro.sim.worm import Worm

    net = SimNetwork(make_chorded_diamond(), SimParams(vc_count=4))
    net.trace = TraceLog()
    net.worm_log = []
    sched = FaultSchedule.random(
        net.topo, 2, random.Random(seed), window=(2.0, 40.0))
    FaultInjector(net, sched, reconfig_latency=5.0).arm()
    bg: list[tuple[int, float]] = []
    for i, src in enumerate((1, 2, 3, 4, 5, 7)):
        w = Worm(net.engine, net.params, net.unicast_steer(6),
                 on_delivered=lambda _n, t, i=i: bg.append((i, t)),
                 rng=net.rng)
        w.start(net.fabric.inject[src], None)
    reliable = ReliableMulticast(net, make_scheme("tree"))
    rng = random.Random(seed + 1)
    ops = [reliable.send(0, rng.sample(range(1, 8), 3)) for _ in range(2)]
    net.run()
    assert all(op.complete for op in ops)
    assert max(c.peak_owned for c in net.fabric.all_channels()) == 4, (
        "scenario must fully own some physical channel's 4 lanes"
    )
    net.assert_quiescent()
    witness = net.trace.digest() + repr(sorted(bg))
    return hashlib.sha256(witness.encode("utf-8")).hexdigest()


FOUR_VC_GOLDEN_DIGEST = (
    "fa03c9891c1e81300fa6bcddf8788236bf7a9fc04cce2d50533da81076e2dad5"
)
"""sha256 witness of ``four_vc_chaos_digest(42)`` (trace + background tails).

If an intentional timing/trace change moves this, regenerate with
``PYTHONPATH=src:. python -c "from tests.test_vc_fabric import *; print(four_vc_chaos_digest(42))"``
and say why in the commit message.
"""


class TestRevocationUnderLanes:
    def test_fault_aborts_lane_holders_and_redelivers(self):
        # The revocation contract: a revoked physical channel takes down
        # the worms holding ANY of its lanes; the reliable layer then
        # redelivers exactly-once after reconfiguration.
        net = SimNetwork(make_chorded_diamond(), SimParams(vc_count=4))
        net.trace = TraceLog()
        net.worm_log = []
        injector = FaultInjector(
            net, FaultSchedule.from_pairs([(5.0, 0)]), reconfig_latency=5.0)
        injector.arm()
        reliable = ReliableMulticast(net, make_scheme("tree"))
        op = reliable.send(0, [2, 5, 7])
        net.run()
        assert op.complete
        assert net.chaos.reconfigurations == 1
        # the fault genuinely interleaved with the flight
        assert net.chaos.worms_aborted >= 1
        assert net.chaos.retries >= 1
        net.assert_quiescent()
        # no lane leaked: every channel's grants are matched by releases
        for ch in net.fabric.all_channels():
            assert ch.owned_lanes == 0, ch.name
            assert ch.grants == ch.releases, ch.name

    def test_four_vc_chaos_digest_is_pinned(self):
        assert four_vc_chaos_digest(42) == FOUR_VC_GOLDEN_DIGEST

    def test_four_vc_chaos_replays_identically(self):
        assert four_vc_chaos_digest(42) == four_vc_chaos_digest(42)
