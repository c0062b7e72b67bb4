"""Tests for multicast group management and the tornado analysis."""

import pytest

from repro.groups import GroupManager
from repro.experiments.calibration import (
    TornadoBar,
    render_tornado,
    tornado_analysis,
)
from repro.params import SimParams
from repro.sim.network import SimNetwork
from repro.topology.irregular import generate_irregular_topology


def default_net(seed=3, **kw) -> SimNetwork:
    p = SimParams(**kw)
    return SimNetwork(generate_irregular_topology(p, seed=seed), p)


class TestGroupLifecycle:
    def test_create_send_complete(self):
        net = default_net()
        mgr = GroupManager(net)
        g = mgr.create(0, [3, 9, 17])
        res = g.send()
        net.run()
        assert res.complete
        assert set(res.delivery_times) == {3, 9, 17}
        assert g.sends == 1

    def test_repeated_sends_reuse_plan_cache(self):
        net = default_net()
        g = GroupManager(net).create(0, [3, 9, 17], scheme_name="path")
        r1 = g.send()
        net.run()
        cache_size = len(g.scheme._plan_cache)
        r2 = g.send()
        net.run()
        assert len(g.scheme._plan_cache) == cache_size  # no re-planning
        assert r1.latency == r2.latency

    def test_join_changes_membership_and_invalidates(self):
        net = default_net()
        mgr = GroupManager(net)
        g = mgr.create(0, [3, 9])
        other = mgr.create(0, [4, 8])
        g.send()
        other.send()
        net.run()
        per_net = g.scheme._plan_cache[net]
        entries_before = len(per_net)
        assert entries_before > 0
        g.join(21)
        # Keyed invalidation: only this group's entries are discarded; the
        # other group's cached plans (and any shared entries) survive.
        assert not any(
            len(sk) >= 2 and sk[1] == 0 and
            all(set(part) <= {3, 9}
                for part in sk[2:] if isinstance(part, tuple))
            for _epoch, sk in per_net
        )
        assert len(per_net) > 0
        assert len(per_net) < entries_before
        assert g.members == frozenset({3, 9, 21})
        res = g.send()
        net.run()
        assert set(res.delivery_times) == {3, 9, 21}
        res_other = other.send()
        net.run()
        assert set(res_other.delivery_times) == {4, 8}

    def test_leave(self):
        net = default_net()
        g = GroupManager(net).create(0, [3, 9])
        g.leave(3)
        assert g.members == frozenset({9})
        with pytest.raises(ValueError, match="last member"):
            g.leave(9)

    def test_membership_validation(self):
        net = default_net()
        mgr = GroupManager(net)
        with pytest.raises(ValueError):
            mgr.create(0, [])
        with pytest.raises(ValueError):
            mgr.create(0, [0, 1])
        with pytest.raises(ValueError):
            mgr.create(0, [99])
        g = mgr.create(0, [5])
        with pytest.raises(ValueError):
            g.join(5)
        with pytest.raises(ValueError):
            g.join(0)
        with pytest.raises(ValueError):
            g.leave(7)

    def test_manager_registry(self):
        net = default_net()
        mgr = GroupManager(net)
        g1 = mgr.create(0, [1])
        g2 = mgr.create(5, [6, 7], scheme_name="ni")
        assert len(mgr) == 2
        assert mgr.get(g1.group_id) is g1
        mgr.destroy(g1.group_id)
        assert len(mgr) == 1
        with pytest.raises(ValueError):
            mgr.get(g1.group_id)
        with pytest.raises(ValueError):
            mgr.destroy(g1.group_id)
        assert mgr.get(g2.group_id).scheme.name == "ni"

    def test_per_group_scheme_choice(self):
        net = default_net()
        mgr = GroupManager(net, default_scheme="binomial")
        g = mgr.create(0, [4, 8])
        assert g.scheme.name == "binomial"


class TestTornado:
    def test_bars_sorted_and_positive(self):
        bars = tornado_analysis(
            n_topologies=1, trials=1, group_size=8,
            schemes=("tree",),
        )
        swings = [b.swing for b in bars]
        assert swings == sorted(swings, reverse=True)
        assert all(b.base_latency > 0 for b in bars)

    def test_o_host_dominates(self):
        bars = tornado_analysis(
            n_topologies=1, trials=1, group_size=8, schemes=("tree",)
        )
        assert bars[0].parameter in ("o_host", "ratio_r")

    def test_r_matters_most_to_ni(self):
        bars = tornado_analysis(
            n_topologies=1, trials=1, group_size=16,
            schemes=("ni", "tree"),
        )
        r_bars = {b.scheme: b.swing for b in bars if b.parameter == "ratio_r"}
        assert r_bars["ni"] > r_bars["tree"]

    def test_render(self):
        bars = [
            TornadoBar("o_host", "tree", 100.0, 60.0, 190.0),
            TornadoBar("link_delay", "tree", 100.0, 99.0, 103.0),
        ]
        out = render_tornado(bars)
        assert "o_host" in out and "#" in out
        assert render_tornado([]) == "(no sensitivity bars)"
