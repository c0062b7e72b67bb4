"""Tests for the single-multicast and load traffic drivers."""

import gc
import weakref

import pytest

import repro.traffic.load as load
import repro.traffic.single as single
from repro.multicast import SCHEMES
from repro.params import SimParams
from repro.topology.irregular import generate_irregular_topology
from repro.traffic.load import (
    LoadPoint,
    run_load_experiment,
    saturated_by_shortfall,
    sweep_load,
)
from repro.traffic.single import (
    average_single_multicast_latency,
    draw_multicast,
    measure_single_multicast,
)


def topo_default(seed=3):
    return generate_irregular_topology(SimParams(), seed=seed)


def _freed_by_refcount(monkeypatch, module, fn) -> bool:
    """True when the one network ``fn`` builds through ``module`` is gone as
    soon as ``fn`` returns, with the cycle collector off: no reference cycle
    holds it."""
    built = []

    class Recorded(module.SimNetwork):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(weakref.ref(self))

    monkeypatch.setattr(module, "SimNetwork", Recorded)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        fn()
        return len(built) == 1 and built[0]() is None
    finally:
        if was_enabled:
            gc.enable()


class TestSingleDriver:
    def test_measure_returns_complete_result(self):
        res = measure_single_multicast(
            topo_default(), SimParams(), "tree", 0, [5, 9, 17]
        )
        assert res.complete and res.latency > 0

    def test_average_is_deterministic(self):
        a = average_single_multicast_latency(
            SimParams(), "tree", 8, n_topologies=2, trials_per_topology=2
        )
        b = average_single_multicast_latency(
            SimParams(), "tree", 8, n_topologies=2, trials_per_topology=2
        )
        assert a == b

    def test_sample_size(self):
        s = average_single_multicast_latency(
            SimParams(), "path", 4, n_topologies=2, trials_per_topology=3
        )
        assert s.count == 6

    def test_scheme_kwargs_forwarded(self):
        s_lg = average_single_multicast_latency(
            SimParams(), "path", 8, n_topologies=1, trials_per_topology=1,
            strategy="lg",
        )
        s_greedy = average_single_multicast_latency(
            SimParams(), "path", 8, n_topologies=1, trials_per_topology=1,
            strategy="greedy",
        )
        assert s_lg.count == s_greedy.count == 1

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_finished_network_freed_by_refcount(self, scheme, monkeypatch):
        """No reference cycle holds a finished network: with the cycle
        collector off it is gone as soon as the call returns."""
        topo = topo_default()

        def run():
            res = measure_single_multicast(
                topo, SimParams(), scheme, 0, [5, 9, 17, 21, 26, 30]
            )
            assert res.complete

        assert _freed_by_refcount(monkeypatch, single, run)

    def test_draw_multicast_valid(self):
        import random

        rng = random.Random(0)
        for _ in range(50):
            src, dests = draw_multicast(rng, 32, 7)
            assert src not in dests
            assert len(set(dests)) == 7
            assert all(0 <= d < 32 for d in dests)

    def test_draw_multicast_bad_size(self):
        import random

        with pytest.raises(ValueError):
            draw_multicast(random.Random(0), 8, 8)


class TestLoadDriver:
    def run_point(self, load, scheme="tree", degree=4, warmup=4_000, **kw):
        return run_load_experiment(
            topo_default(),
            SimParams(),
            scheme,
            degree=degree,
            effective_load=load,
            duration=40_000,
            warmup=warmup,
            **kw,
        )

    def test_light_load_completes_everything(self):
        p = self.run_point(0.01)
        assert p.issued > 0
        assert p.completed == p.issued
        assert not p.saturated
        assert p.mean_latency is not None and p.mean_latency > 0

    def test_latency_rises_with_load(self):
        light = self.run_point(0.01)
        heavy = self.run_point(0.10)
        assert heavy.mean_latency > light.mean_latency

    def test_extreme_load_saturates(self):
        p = self.run_point(2.0, scheme="binomial", degree=16)
        assert p.saturated or (p.mean_latency or 0) > 50_000

    def test_determinism(self):
        a = self.run_point(0.05)
        b = self.run_point(0.05)
        assert a == b

    @pytest.mark.parametrize("scheme", ["ni", "tree", "path"])
    def test_finished_network_freed_by_refcount(self, scheme, monkeypatch):
        """No reference cycle holds a load point's network: with the cycle
        collector off it is gone as soon as the call returns."""

        def run():
            assert self.run_point(0.05, scheme=scheme).issued > 0

        assert _freed_by_refcount(monkeypatch, load, run)

    @pytest.mark.parametrize("scheme", ["binomial", "tree", "path"])
    def test_saturated_network_freed_by_refcount(self, scheme, monkeypatch):
        """A saturated point stops at its drain horizon with work queued;
        that work is abandoned, so it cannot hold the network in a cycle."""

        def run():
            p = run_load_experiment(
                topo_default(), SimParams(), scheme, degree=16,
                effective_load=2.0, duration=8_000, warmup=800, seed=3,
            )
            assert p.completed < p.issued

        assert _freed_by_refcount(monkeypatch, load, run)

    def test_sweep_returns_point_per_load(self):
        pts = sweep_load(
            topo_default(), SimParams(), "tree", 4, [0.01, 0.05],
            duration=30_000, warmup=3_000,
        )
        assert len(pts) == 2
        assert all(isinstance(p, LoadPoint) for p in pts)
        assert pts[0].effective_load == 0.01

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            self.run_point(-1.0)
        with pytest.raises(ValueError):
            run_load_experiment(
                topo_default(), SimParams(), "tree", degree=0,
                effective_load=0.1,
            )

    def test_completion_ratio(self):
        p = self.run_point(0.01)
        assert p.completion_ratio == 1.0

    def test_warmup_ops_counted_separately(self):
        p = self.run_point(0.05)
        # Warmup-window ops load the network but are not in `issued` (the
        # measured-window population) or the saturation denominator.
        assert p.warmup_ops > 0
        assert p.completed <= p.issued
        assert p.completion_ratio <= 1.0

    def test_warmup_zero_means_no_warmup_ops(self):
        p = self.run_point(0.05, warmup=0)
        assert p.warmup_ops == 0
        assert p.issued > 0


class TestLoadEdgeCases:
    def test_zero_measured_ops(self):
        # A load so light that the expected first arrival is far past the
        # generation window: nothing is measured, nothing saturates.
        p = run_load_experiment(
            topo_default(),
            SimParams(),
            "tree",
            degree=4,
            effective_load=1e-7,
            duration=1_000,
            warmup=100,
            min_measured_ops=0,
        )
        assert p.issued == 0
        assert p.completed == 0
        assert p.mean_latency is None and p.p95_latency is None
        assert not p.saturated
        assert p.completion_ratio == 1.0

    @pytest.mark.parametrize(
        "kw, name",
        [
            ({"effective_load": float("nan")}, "effective_load"),
            ({"effective_load": float("inf")}, "effective_load"),
            ({"drain_factor": float("nan")}, "drain_factor"),
            ({"drain_factor": float("inf")}, "drain_factor"),
            ({"drain_factor": -0.5}, "drain_factor"),
        ],
    )
    def test_non_finite_inputs_rejected(self, kw, name):
        # Unguarded, an infinite load reschedules ``issue`` at gap 0
        # forever; NaN fails deep inside with an unrelated message.
        args = dict(degree=4, effective_load=0.01, duration=1_000, warmup=100)
        args.update(kw)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            run_load_experiment(topo_default(), SimParams(), "tree", **args)

    def test_all_complete_not_saturated(self):
        assert not saturated_by_shortfall(100, 100, threshold=0.9)

    def test_threshold_boundary(self):
        # Exactly at threshold: not saturated (the rule is a strict <).
        assert not saturated_by_shortfall(100, 90, threshold=0.9)
        # One completion short of the threshold: saturated.
        assert saturated_by_shortfall(100, 89, threshold=0.9)

    def test_empty_sample_never_saturates(self):
        assert not saturated_by_shortfall(0, 0, threshold=0.9)


class TestLoadOrderings:
    """The paper's load findings, at a smoke-test scale."""

    def mean_at(self, scheme, load, degree=4):
        p = run_load_experiment(
            topo_default(), SimParams(), scheme,
            degree=degree, effective_load=load,
            duration=60_000, warmup=6_000,
        )
        return p.mean_latency if not p.saturated else float("inf")

    def test_tree_saturates_last(self):
        # At a load where software schemes struggle, tree stays healthy.
        assert self.mean_at("tree", 0.08) < self.mean_at("binomial", 0.08)
        assert self.mean_at("tree", 0.08) <= self.mean_at("ni", 0.08)
        assert self.mean_at("tree", 0.08) <= self.mean_at("path", 0.08)
