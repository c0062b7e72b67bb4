"""Directed battery for the open-loop collective workload engine.

Covers the contracts :mod:`repro.workloads` exists to keep:

* the arrival stream is a pure function of its seed, and schedules at
  different rates share byte-identical op prefixes (the pairing rule's
  stronger cousin: raising the rate extends the stimulus, never reshuffles
  it);
* admissions are open-loop -- the offered schedule is identical for every
  scheme, however badly one of them copes, including deep saturation;
* the deadline boundary (completion exactly at the deadline is *met*) is
  regression-pinned;
* every completed collective notifies each participant exactly once, per
  scheme, under overlapping load;
* a seeded 16-switch broadcast+allreduce mix replays to a pinned golden
  digest, directly, twice, and through the process-pool cell runner;
* a seeded mix of all three kinds with 4-packet messages, under which
  channels and NIs queue, replays to a pinned digest per scheme;
* degenerate single-participant collectives complete at launch plus one
  host overhead block (and never hang);
* zero-length measurement windows report zero throughput instead of
  dividing by zero.
"""

import gc
import json
import weakref

import pytest

import repro.workloads.driver as driver
from repro.collectives import ops as collectives
from repro.experiments.runner import Cell, derive_seed, execute_cells, \
    execution_context
from repro.params import SimParams
from repro.sim.network import SimNetwork
from repro.sim.resources import FifoResource, MultiLaneResource
from repro.topology.irregular import generate_topology_family
from repro.traffic.load import LoadPoint
from repro.workloads import (
    COLLECTIVE_KINDS,
    OpRecord,
    WorkloadReport,
    arrival_schedule,
    run_workload,
    run_workload_cell,
    schedule_digest,
)

SMALL = SimParams(num_switches=4, num_nodes=8, packet_flits=16)
"""A fast fabric for workload runs that only check accounting invariants."""

GOLDEN_PARAMS = SimParams(num_switches=16, num_nodes=16, packet_flits=16)
"""The golden-digest system: 16 switches, one host each."""

GOLDEN_DIGEST = (
    "9761f020f337e53bdd2db282605eff24ac857285c175c156a9b1e3ca893a57a7"
)
"""Replay fingerprint of the seeded golden mix below.  A change here means
the workload engine's observable behaviour changed -- schedule, completion
times, deadline verdicts, or delivery counts -- and must be intentional."""


def _small_topo():
    return generate_topology_family(SMALL, 1)[0]


# ----------------------------------------------------------------------
# Arrival stream
# ----------------------------------------------------------------------
class TestArrivalStream:
    def test_same_seed_same_schedule(self):
        a = arrival_schedule(7, rate=0.001, duration=30_000, num_nodes=16)
        b = arrival_schedule(7, rate=0.001, duration=30_000, num_nodes=16)
        assert [op.key() for op in a] == [op.key() for op in b]
        assert schedule_digest(a) == schedule_digest(b)
        assert len(a) > 0

    def test_different_seeds_differ(self):
        a = arrival_schedule(7, rate=0.001, duration=30_000, num_nodes=16)
        b = arrival_schedule(8, rate=0.001, duration=30_000, num_nodes=16)
        assert schedule_digest(a) != schedule_digest(b)

    @pytest.mark.parametrize("process", ["poisson", "mlstep"])
    def test_higher_rate_extends_the_same_prefix(self, process):
        # The unit-rate clock makes the op sequence rate-independent: the
        # low-rate schedule is byte-for-byte a prefix of the high-rate one
        # (in (index, unit_time, kind, root); scaled times differ by 1/rate).
        low = arrival_schedule(
            11, rate=0.0005, duration=20_000, num_nodes=16, process=process
        )
        high = arrival_schedule(
            11, rate=0.002, duration=20_000, num_nodes=16, process=process
        )
        assert 0 < len(low) < len(high)
        assert [op.key() for op in low] == \
            [op.key() for op in high][:len(low)]

    def test_draws_stay_in_range(self):
        ops = arrival_schedule(3, rate=0.002, duration=30_000, num_nodes=5)
        assert ops, "expected a non-empty schedule"
        for op in ops:
            assert op.kind in COLLECTIVE_KINDS
            assert 0 <= op.root < 5
            assert 0.0 <= op.time < 30_000

    def test_processes_differ(self):
        poisson = arrival_schedule(
            5, rate=0.001, duration=30_000, num_nodes=8, process="poisson"
        )
        mlstep = arrival_schedule(
            5, rate=0.001, duration=30_000, num_nodes=8, process="mlstep"
        )
        assert schedule_digest(poisson) != schedule_digest(mlstep)

    @pytest.mark.parametrize(
        "kw",
        [
            {"rate": 0.0},
            {"rate": -1.0},
            {"duration": 0.0},
            {"num_nodes": 0},
            {"kinds": ()},
            {"kinds": ("broadcast", "nonsense")},
            {"process": "lognormal"},
        ],
    )
    def test_invalid_inputs_rejected(self, kw):
        args = dict(rate=0.001, duration=10_000, num_nodes=8)
        args.update(kw)
        with pytest.raises((ValueError, KeyError)):
            arrival_schedule(1, **args)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("rate", float("nan")),
            ("rate", float("inf")),
            ("duration", float("nan")),
            ("duration", float("inf")),
        ],
    )
    def test_non_finite_inputs_rejected(self, name, value):
        # Neither NaN nor inf ever reaches the ``time >= duration`` break:
        # unguarded, the schedule grows without bound.
        args = dict(rate=0.001, duration=10_000, num_nodes=8)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            arrival_schedule(1, **args)

    @pytest.mark.parametrize(
        "kw, name",
        [
            ({"rate": float("nan")}, "rate"),
            ({"drain_factor": float("nan")}, "drain_factor"),
            ({"drain_factor": float("inf")}, "drain_factor"),
            ({"drain_factor": -1.0}, "drain_factor"),
            ({"deadline_factor": float("nan")}, "deadline_factor"),
            ({"deadline_factor": float("inf")}, "deadline_factor"),
            ({"deadline_factor": -1.0}, "deadline_factor"),
            ({"deadline_factor": 0.0}, "deadline_factor"),
            ({"warmup": float("nan")}, "warmup"),
            ({"warmup": -1.0}, "warmup"),
            ({"warmup": 10_000}, "warmup"),
        ],
    )
    def test_run_workload_rejects_non_finite(self, kw, name):
        args = dict(seed=1, rate=0.001, duration=10_000)
        args.update(kw)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            run_workload(_small_topo(), SMALL, "tree", **args)


# ----------------------------------------------------------------------
# Open-loop admission invariant
# ----------------------------------------------------------------------
class TestOpenLoop:
    def test_admissions_are_scheme_independent(self):
        topo = _small_topo()
        reports = [
            run_workload(
                topo, SMALL, scheme, seed=21, rate=0.001, duration=8_000,
                warmup=800,
            )
            for scheme in ("ni", "path", "tree")
        ]
        assert len({r.admitted for r in reports}) == 1
        assert len({r.schedule_sha for r in reports}) == 1
        assert reports[0].admitted > 0

    def test_saturation_does_not_throttle_admissions(self):
        # Open-loop means open-loop: a rate brutal enough to saturate the
        # fabric admits exactly as many ops as the schedule says, however
        # few of them ever complete.
        topo = _small_topo()
        schedule = arrival_schedule(
            33, rate=0.005, duration=4_000, num_nodes=SMALL.num_nodes,
            kinds=("broadcast",),
        )
        report = run_workload(
            topo, SMALL, "tree", seed=33, rate=0.005, duration=4_000,
            kinds=("broadcast",),
        )
        assert report.admitted == len(schedule)
        assert report.schedule_sha == schedule_digest(schedule)


# ----------------------------------------------------------------------
# Deadline boundary (regression-pinned contract)
# ----------------------------------------------------------------------
class TestDeadlineBoundary:
    def _rec(self, complete_time, deadline=1000.0):
        return OpRecord(
            index=0, kind="broadcast", root=0, admit_time=0.0,
            deadline=deadline, complete_time=complete_time,
        )

    def test_completion_exactly_at_deadline_is_met(self):
        assert self._rec(1000.0).met_deadline is True

    def test_completion_after_deadline_is_missed(self):
        assert self._rec(1000.0000001).met_deadline is False

    def test_completion_before_deadline_is_met(self):
        assert self._rec(999.9).met_deadline is True

    def test_incomplete_op_is_missed(self):
        assert self._rec(None).met_deadline is False

    def test_no_deadline_means_met_iff_complete(self):
        assert self._rec(123.0, deadline=None).met_deadline is True
        assert self._rec(None, deadline=None).met_deadline is False


# ----------------------------------------------------------------------
# Exactly-once delivery under load
# ----------------------------------------------------------------------
class TestExactlyOnce:
    @pytest.mark.parametrize("scheme", ["ni", "path", "tree", "binomial"])
    def test_delivered_counts_per_scheme(self, scheme):
        topo = _small_topo()
        report = run_workload(
            topo, SMALL, scheme, seed=17, rate=0.0008, duration=10_000,
        )
        n = SMALL.num_nodes
        # The participant-notification count is the exactly-once audit
        # surface: node_times is keyed by node, so a duplicate delivery
        # could only ever *lose* a count, never gain one -- and a lost one
        # fails here.
        want = {"broadcast": n - 1, "allreduce": n - 1, "barrier": n}
        completed = [r for r in report.records if r.complete]
        assert completed, "expected completions at this light load"
        if scheme != "binomial":
            # Binomial's serial unicasts are slow enough that an op can
            # outlive the drain window here; the fast schemes must not.
            assert {r.kind for r in completed} == set(COLLECTIVE_KINDS)
        for rec in completed:
            assert rec.delivered == want[rec.kind], (scheme, rec)


def _networks_left_alive(monkeypatch, fn) -> tuple[int, int]:
    """(alive, built): the networks ``fn`` builds that are still alive when
    it returns, with the cycle collector off -- a network that outlives its
    call is held by a reference cycle."""
    built = []

    class Recorded(driver.SimNetwork):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(weakref.ref(self))

    monkeypatch.setattr(driver, "SimNetwork", Recorded)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        fn()
        return sum(ref() is not None for ref in built), len(built)
    finally:
        if was_enabled:
            gc.enable()


class TestNetworksFreed:
    """Every workload kind's networks die by reference counting, whatever
    the scheme: with the cycle collector off, none outlives its call."""

    @pytest.mark.parametrize("scheme", ["ni", "tree", "path"])
    @pytest.mark.parametrize("kind", ["broadcast", "allreduce", "barrier"])
    def test_collective_kind(self, kind, scheme, monkeypatch):
        topo = generate_topology_family(GOLDEN_PARAMS, 1)[0]

        def run():
            report = run_workload(
                topo, GOLDEN_PARAMS, scheme, seed=5, rate=0.0001,
                duration=40_000, kinds=(kind,),
            )
            assert report.completed == report.admitted > 0

        assert _networks_left_alive(monkeypatch, run) == (0, 2)

    @pytest.mark.parametrize("scheme", ["ni", "tree", "path"])
    def test_faulted(self, scheme, monkeypatch):
        """Drained to the end, so no pending event holds the network; at
        seed 2 the faults abort worms of every scheme mid-flight."""
        topo = generate_topology_family(GOLDEN_PARAMS, 1)[0]

        def run():
            report = run_workload(
                topo, GOLDEN_PARAMS, scheme, seed=2, rate=0.0006,
                duration=12_000, kinds=("broadcast",), fault_count=2,
                drain_factor=20,
            )
            assert report.faults_fired == 2
            assert report.completed == report.admitted > 0

        assert _networks_left_alive(monkeypatch, run) == (0, 2)

    @pytest.mark.parametrize(
        "params, scheme, kind, faults, drain, rate",
        [
            (GOLDEN_PARAMS, "ni", "broadcast", 2,
             driver.DEFAULT_DRAIN_FACTOR, 0.002),
            (GOLDEN_PARAMS, "tree", "allreduce", 0, 0.05, 0.004),
            # Cheap hosts and long messages make worms queue on channels.
            (SimParams(num_switches=16, num_nodes=16, o_host=20,
                       packet_flits=512, message_packets=4),
             "path", "broadcast", 0, 0.0, 0.004),
        ],
        ids=["host-cpu-backlog", "worms-in-flight", "channel-waiters"],
    )
    def test_stopped_at_bound(
        self, params, scheme, kind, faults, drain, rate, monkeypatch
    ):
        """A run that stops at its time bound with work still queued
        abandons that work instead of leaving it to hold the network."""
        topo = generate_topology_family(params, 1)[0]

        def run():
            report = run_workload(
                topo, params, scheme, seed=5, rate=rate,
                duration=12_000, kinds=(kind,), fault_count=faults,
                drain_factor=drain,
            )
            assert report.completed < report.admitted

        assert _networks_left_alive(monkeypatch, run) == (0, 2)


class TestFaultedWorkload:
    def test_finished_network_freed_by_refcount(self, monkeypatch):
        """No reference cycle holds a faulted workload's network (the
        reliable layer listens for faults on it): with the cycle collector
        off it is gone as soon as the call returns."""
        built = []

        class Recorded(driver.SimNetwork):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                built.append(weakref.ref(self))

        monkeypatch.setattr(driver, "SimNetwork", Recorded)
        topo = generate_topology_family(GOLDEN_PARAMS, 1)[0]
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            report = run_workload(
                topo, GOLDEN_PARAMS, "tree", seed=5, rate=0.0006,
                duration=12_000, kinds=("broadcast",), fault_count=1,
            )
            assert report.faults_fired == 1
            assert built and all(ref() is None for ref in built)
        finally:
            if was_enabled:
                gc.enable()


# ----------------------------------------------------------------------
# Golden digest: direct, replayed, and through the process pool
# ----------------------------------------------------------------------
GOLDEN_KW = dict(
    seed=2024, rate=0.0006, duration=12_000, warmup=1_200,
    kinds=("broadcast", "allreduce"),
)


def _golden_run():
    topo = generate_topology_family(GOLDEN_PARAMS, 1)[0]
    return run_workload(topo, GOLDEN_PARAMS, "tree", **GOLDEN_KW)


class TestGoldenDigest:
    def test_matches_pinned_digest(self):
        report = _golden_run()
        assert report.completed > 0
        assert report.digest() == GOLDEN_DIGEST

    def test_replays_identically(self):
        assert _golden_run().digest() == _golden_run().digest()

    def test_cell_runner_agrees(self):
        value = run_workload_cell(
            GOLDEN_PARAMS, "tree", seed=GOLDEN_KW["seed"],
            collective="broadcast+allreduce", rate=GOLDEN_KW["rate"],
            duration=GOLDEN_KW["duration"], warmup=GOLDEN_KW["warmup"],
            process="poisson", deadline_factor=4.0,
        )
        # run_workload_cell applies a deadline budget, which changes only
        # the per-op verdicts -- with no misses at this light load the
        # lifecycle digest must equal the budget-free golden run's.
        assert value["miss_fraction"] == 0.0
        assert value["digest"] == GOLDEN_DIGEST

    def test_process_pool_is_byte_identical(self):
        knobs = (
            ("duration", float(GOLDEN_KW["duration"])),
            ("warmup", float(GOLDEN_KW["warmup"])),
            ("process", "poisson"),
            ("deadline_factor", 4.0),
            ("faults", 0),
        )
        cells = [
            Cell(
                kind="workload",
                exp_id="wl-test",
                params=GOLDEN_PARAMS,
                scheme=scheme,
                coords=(
                    ("collective", "broadcast+allreduce"),
                    ("rate", GOLDEN_KW["rate"]),
                ),
                knobs=knobs,
                seed=GOLDEN_KW["seed"],
            )
            for scheme in ("tree", "ni")
        ]
        with execution_context(jobs=1):
            serial = execute_cells(cells)
        with execution_context(jobs=3):
            parallel = execute_cells(cells)
        assert json.dumps(serial) == json.dumps(parallel)
        assert serial[0]["digest"] == GOLDEN_DIGEST


# ----------------------------------------------------------------------
# Golden digests: all three kinds, multi-packet messages, contention
# ----------------------------------------------------------------------
MIXED_PARAMS = SimParams(
    num_switches=16, num_nodes=16, packet_flits=16, message_packets=4
)
MIXED_KW = dict(
    seed=2024, rate=0.0003, duration=40_000, warmup=4_000,
    kinds=("broadcast", "allreduce", "barrier"),
)
MIXED_DIGESTS = {
    "ni": "0574d5387625ba75013ab542f2126a9060c5ee30d0dc5f73ca868865e6f7f1ef",
    "path": "3406e3ed343dca9d596369f09013a9963ad8e15410689fe6de636bd69a4f4bad",
    "tree": "d8775c1117493d054cfb71d324485919a67c4fbdbfe2dab8bfcd46a849d0b09e",
}
"""Replay fingerprints of the mixed run below, one per scheme.  The only
pinned runs that mix three collective kinds (a kind order that depends on
str hashing shows under ``PYTHONHASHSEED``) and send multi-packet
messages (a rewrite of ``net.params`` to one packet shows)."""


def _mixed_run(scheme):
    topo = generate_topology_family(MIXED_PARAMS, 1)[0]
    return run_workload(topo, MIXED_PARAMS, scheme, **MIXED_KW)


class TestMixedKindGoldenDigest:
    @pytest.mark.parametrize("scheme", sorted(MIXED_DIGESTS))
    def test_matches_pinned_digest(self, scheme, monkeypatch):
        # The pin covers wait queues under contention only if requesters
        # really wait: count requests that find the resource taken, on
        # channels and on NI processors (the counters call straight
        # through, so they change nothing the digest sees).
        waits = {"channel": 0, "ni": 0}
        lane_request = MultiLaneResource.request
        fifo_request = FifoResource.request

        def channel_request(res, fn, adaptive_only=False):
            waits["channel"] += not res.has_free_lane
            lane_request(res, fn, adaptive_only)

        def ni_request(res, fn):
            waits["ni"] += res.busy and res.name.startswith("ni:")
            fifo_request(res, fn)

        monkeypatch.setattr(MultiLaneResource, "request", channel_request)
        monkeypatch.setattr(FifoResource, "request", ni_request)
        report = _mixed_run(scheme)
        assert {r.kind for r in report.records} == set(MIXED_KW["kinds"])
        assert report.completed == report.measured > 0
        assert report.digest() == MIXED_DIGESTS[scheme]
        assert waits["channel"] > 100 and waits["ni"] > 50, waits


# ----------------------------------------------------------------------
# Degenerate single-participant collectives
# ----------------------------------------------------------------------
class TestDegenerateCollectives:
    @pytest.mark.parametrize(
        "launch",
        [
            lambda net, done: collectives.broadcast(
                net, 2, "tree", done, participants=[2]
            ),
            lambda net, done: collectives.barrier(
                net, 1, "tree", done, participants=[1]
            ),
            lambda net, done: collectives.allreduce(
                net, 3, "tree", done, participants=[3]
            ),
            lambda net, done: collectives.reduce_to_root(
                net, 0, done, participants=[0]
            ),
        ],
        ids=["broadcast", "barrier", "allreduce", "reduce"],
    )
    def test_completes_at_launch_plus_one_host_block(self, launch):
        net = SimNetwork(_small_topo(), SMALL)
        seen = []
        result = launch(net, seen.append)
        net.run()
        net.assert_quiescent()
        assert result.complete, "degenerate collective must never hang"
        assert result.latency == SMALL.o_host
        assert result.node_times == {result.root: float(SMALL.o_host)}
        assert seen == [result]


# ----------------------------------------------------------------------
# Zero-length measurement windows
# ----------------------------------------------------------------------
class TestZeroWindow:
    def test_load_point_zero_window_reports_zero_throughput(self):
        point = LoadPoint(
            effective_load=0.1, degree=4, mean_latency=None,
            p95_latency=None, issued=0, completed=0, saturated=False,
            warmup_ops=9, measured_window=0.0,
        )
        assert point.throughput == 0.0

    def test_workload_report_zero_window(self):
        report = WorkloadReport(
            scheme="tree", kinds=("broadcast",), process="poisson",
            rate=0.001, duration=100.0, warmup=100.0, deadline_factor=4.0,
            baselines={"broadcast": 1.0}, schedule_sha="0" * 64,
        )
        assert report.measured_window == 0.0
        assert report.throughput == 0.0
        assert report.miss_fraction == 0.0
        assert report.saturated is False

    def test_run_workload_rejects_warmup_eating_the_window(self):
        with pytest.raises(ValueError):
            run_workload(
                _small_topo(), SMALL, "tree", seed=1, rate=0.001,
                duration=1_000, warmup=1_000,
            )


# ----------------------------------------------------------------------
# Committed quick-profile result: shape and the paper's ordering
# ----------------------------------------------------------------------
class TestCommittedResult:
    @pytest.fixture(scope="class")
    def result(self):
        import pathlib

        path = pathlib.Path(__file__).parent.parent / \
            "results" / "collective-load.json"
        return json.loads(path.read_text())

    def test_every_cell_reports_p999_and_saturation_point(self, result):
        assert len(result["series"]) == 18
        for series in result["series"]:
            meta = series["meta"]
            assert "saturation_point" in meta
            for point in meta["points"]:
                assert "p999" in point["latency"]
                assert point["saturated"] in (True, False)
                if not point["saturated"]:
                    assert point["latency"]["p999"] is not None

    def test_tree_strictly_best_at_low_load(self, result):
        # The paper's switch-support headline, carried to collectives
        # under load: at the lowest offered rate the tree scheme's p99 is
        # strictly below ni's and path's on every axis.  (The full
        # tree < ni < path ordering belongs to the paper's degree-4/16
        # multicast grids; whole-machine collectives swap ni and path.)
        by_label = {s["label"]: s for s in result["series"]}
        suffixes = sorted(
            {s["label"].split(" ", 1)[1] for s in result["series"]}
        )
        assert len(suffixes) == 6
        for suffix in suffixes:
            p99 = {
                scheme: by_label[f"{scheme} {suffix}"]["meta"]["points"][0]
                ["latency"]["p99"]
                for scheme in ("ni", "path", "tree")
            }
            assert p99["tree"] < p99["ni"], (suffix, p99)
            assert p99["tree"] < p99["path"], (suffix, p99)

    def test_admissions_paired_across_schemes(self, result):
        # Scheme-independent seeds: every scheme of a grid point was
        # offered the identical schedule.
        by_label = {s["label"]: s for s in result["series"]}
        for suffix in {s["label"].split(" ", 1)[1]
                       for s in result["series"]}:
            counts = {
                tuple(p["admitted"] for p in
                      by_label[f"{scheme} {suffix}"]["meta"]["points"])
                for scheme in ("ni", "path", "tree")
            }
            assert len(counts) == 1, suffix
