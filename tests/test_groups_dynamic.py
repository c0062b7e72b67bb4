"""Multicast groups under churn: path repair, tree replans, bounded
tables, paired harness."""

import pytest

from repro.groups import (
    ChurnEvent,
    GroupManager,
    SwitchMulticastTables,
    churn_stream,
    graft_path_plan,
    path_plan_cost,
    prune_path_plan,
    run_paired_churn,
)
from repro.multicast.pathworm import verify_plan
from repro.params import SimParams
from repro.sim.network import SimNetwork
from repro.topology import faults
from repro.topology.irregular import generate_irregular_topology


def default_net(seed=3, **kw) -> SimNetwork:
    p = SimParams(**kw)
    return SimNetwork(generate_irregular_topology(p, seed=seed), p)


def drain(net):
    net.engine.run(max_events=500_000)


class TestLeaveRegression:
    """A rejected leave must leave the group completely untouched."""

    @pytest.mark.parametrize("scheme", ["path", "tree", "ni"])
    def test_failed_leave_leaves_members_unchanged(self, scheme):
        net = default_net()
        g = GroupManager(net, default_scheme=scheme).create(0, [3, 9])
        g.leave(9)
        before_members = g.members
        before_plan = g._state.plan if g._state else None
        before_stats = dict(g.stats.as_dict())
        with pytest.raises(ValueError, match="not a member"):
            g.leave(17)  # valid node, not a member
        with pytest.raises(ValueError, match="last member"):
            g.leave(3)
        assert g.members == before_members == frozenset({3})
        if g._state is not None:
            assert g._state.plan is before_plan
        assert g.stats.as_dict() == before_stats
        res = g.send()
        drain(net)
        assert set(res.delivery_times) == {3}

    def test_unknown_node_leave_rejected_before_mutation(self):
        net = default_net()
        g = GroupManager(net).create(0, [3, 9, 17])
        with pytest.raises(ValueError):
            g.leave(999)
        assert g.members == frozenset({3, 9, 17})


class TestSortedMemberCache:
    """send() uses a cached sorted tuple; results stay byte-identical."""

    @pytest.mark.parametrize("scheme", ["path", "tree", "ni", "binomial"])
    def test_repeated_sends_byte_identical(self, scheme):
        net = default_net()
        g = GroupManager(net, default_scheme=scheme).create(
            0, [17, 3, 9]
        )
        r1 = g.send()
        drain(net)
        r2 = g.send()
        drain(net)
        assert g._sorted_members == (3, 9, 17)
        assert sorted(r1.delivery_times) == sorted(r2.delivery_times)
        assert r1.latency == r2.latency

    def test_cache_refreshed_on_churn(self):
        net = default_net()
        g = GroupManager(net, default_scheme="ni").create(0, [9, 3])
        assert g._sorted_members == (3, 9)
        g.join(21)
        assert g._sorted_members == (3, 9, 21)
        g.leave(3)
        assert g._sorted_members == (9, 21)
        res = g.send()
        drain(net)
        assert set(res.delivery_times) == {9, 21}


class TestKeyedInvalidation:
    """One group's churn never wipes a cache-sharing neighbour's plans."""

    @pytest.mark.parametrize("scheme", ["path", "tree"])
    def test_neighbour_plans_survive_churn(self, scheme):
        net = default_net()
        mgr = GroupManager(net, default_scheme=scheme)
        g = mgr.create(0, [3, 9])
        other = mgr.create(0, [4, 8])
        assert g.scheme is other.scheme  # shared instance, shared cache
        g.send()
        other.send()
        drain(net)
        per_net = g.scheme._plan_cache[net]

        def group_keys(dests):
            return {
                k for k in per_net
                if len(k[1]) >= 2 and k[1][1] == 0
                and all(
                    set(part) <= set(dests)
                    for part in k[1][2:] if isinstance(part, tuple)
                )
            }

        other_keys = group_keys((4, 8))
        assert other_keys
        down = dict(net.routing._down_dist)
        assert bool(down) == (scheme == "tree")
        g.join(21)
        assert other_keys <= set(per_net)  # neighbour survived
        # The down distances live on the routing, which churn leaves alone.
        assert all(net.routing._down_dist[s] is d for s, d in down.items())

    def test_destroy_discards_only_that_group(self):
        net = default_net()
        mgr = GroupManager(net, default_scheme="path")
        g = mgr.create(0, [3, 9])
        other = mgr.create(0, [4, 8])
        g.send()
        other.send()
        drain(net)
        per_net = g.scheme._plan_cache[net]
        before = len(per_net)
        mgr.destroy(g.group_id)
        assert 0 < len(per_net) < before


class TestRepairFunctions:
    """Graft/prune plan surgery produces verifier-clean plans."""

    def test_path_graft_legal_and_covering(self):
        net = default_net()
        scheme_dests = [3, 9, 17]
        from repro.multicast.pathworm import plan_path_worms

        plan = plan_path_worms(net, 0, scheme_dests)
        patched = graft_path_plan(net, plan, 0, 21)
        assert patched is not None
        assert verify_plan(net.topo, net.routing, 0, [3, 9, 17, 21],
                           patched) == []

    def test_path_prune_legal_and_covering(self):
        net = default_net()
        from repro.multicast.pathworm import plan_path_worms

        plan = plan_path_worms(net, 0, [3, 9, 17, 21])
        for gone in (3, 9, 17, 21):
            patched = prune_path_plan(net, plan, 0, gone)
            if patched is None:
                continue  # legal fallback: caller replans
            keep = [d for d in (3, 9, 17, 21) if d != gone]
            assert verify_plan(net.topo, net.routing, 0, keep, patched) == []

    def test_path_prune_of_absent_node_replans(self):
        net = default_net()
        from repro.multicast.pathworm import plan_path_worms

        plan = plan_path_worms(net, 0, [3, 9])
        assert prune_path_plan(net, plan, 0, 21) is None

    def test_graft_cost_never_below_fresh_is_bounded(self):
        # Patched path plans may cost more than fresh ones; the quality
        # bound is what reins that in.  Sanity: a graft adds cost only.
        net = default_net()
        from repro.multicast.pathworm import plan_path_worms

        plan = plan_path_worms(net, 0, [3, 9])
        patched = graft_path_plan(net, plan, 0, 17)
        assert patched is not None
        assert path_plan_cost(patched) >= path_plan_cost(plan)


class TestDynamicGroupChurn:
    def test_join_of_root_raises(self):
        net = default_net()
        g = GroupManager(net).create(0, [3, 9])
        with pytest.raises(ValueError, match="root"):
            g.join(0)
        assert g.members == frozenset({3, 9})

    @pytest.mark.parametrize("scheme", ["path", "tree"])
    def test_join_leave_interleaved_with_epoch_bump(self, scheme):
        net = default_net()
        g = GroupManager(net, default_scheme=scheme).create(0, [3, 9])
        g.join(17)
        epoch_before = g.plan_epoch
        assert epoch_before == net.routing_epoch
        removable = faults.removable_links(net.topo)
        net.reconfigure(faults.remove_link(net.topo, removable[0]))
        assert net.routing_epoch != epoch_before
        # The plan is stale; the next change replans on the new
        # orientation instead of patching a dead epoch.  Tree groups
        # replan on every change anyway, so only path counts it as an
        # epoch replan.
        g.leave(3)
        if scheme == "path":
            assert g.stats.epoch_replans == 1
        else:
            assert g.stats.epoch_replans == 0
            assert g.stats.replans == 2
        assert g.plan_epoch == net.routing_epoch
        res = g.send()
        drain(net)
        assert res.complete and set(res.delivery_times) == {9, 17}

    @pytest.mark.parametrize("scheme", ["path", "tree"])
    def test_epoch_bump_between_sends_refreshes(self, scheme):
        net = default_net()
        g = GroupManager(net, default_scheme=scheme).create(0, [3, 9])
        g.send()
        drain(net)
        removable = faults.removable_links(net.topo)
        net.reconfigure(faults.remove_link(net.topo, removable[0]))
        res = g.send()
        drain(net)
        assert g.stats.send_refreshes == 1
        assert res.complete and set(res.delivery_times) == {3, 9}
        # membership survived the reconfiguration untouched
        assert g.members == frozenset({3, 9})

    @pytest.mark.parametrize("scheme", ["path", "tree"])
    def test_leave_then_rejoin_reuses_graft_point(self, scheme):
        net = default_net()
        g = GroupManager(net, default_scheme=scheme).create(
            0, [3, 9, 17]
        )
        cost_before = g.plan_cost
        foot_before = g.plan_footprint
        g.leave(17)
        g.join(17)
        # Same membership again: the regrafted plan must cover the same
        # set legally and land back on a comparable footprint.
        assert g.members == frozenset({3, 9, 17})
        assert g.stats.verify_failures == 0
        res = g.send()
        drain(net)
        assert set(res.delivery_times) == {3, 9, 17}
        assert cost_before is not None and foot_before is not None
        assert g.plan_cost is not None
        # every member's switch carries the live plan
        assert {
            net.topo.switch_of_node(m) for m in g.members
        } <= set(g.plan_footprint)

    def test_capped_tree_is_replan_kind(self):
        net = default_net()
        g = GroupManager(net, default_scheme="tree").create(
            0, [3, 9], max_header_dests=2
        )
        g.join(17)
        assert g.stats.replans >= 1
        assert g.stats.grafts == 0

    def test_capped_tree_charges_tables(self):
        # A header-capped tree installs switch state like any tree: its
        # footprint is the union over its chunks' worms, and the shared
        # table ledger is charged for it.
        net = default_net()
        mgr = GroupManager(net, default_scheme="tree", table_capacity=4)
        g = mgr.create(0, [3, 9, 17], max_header_dests=2)
        assert g.tables is mgr.tables
        assert len(g._state.plan) == 2  # two header chunks
        assert mgr.tables.stats.installs == len(g.plan_footprint) > 0
        for sw in g.plan_footprint:
            assert mgr.tables.holds(g.group_id, sw)
        res = g.send()
        drain(net)
        assert res.complete and set(res.delivery_times) == {3, 9, 17}
        mgr.destroy(g.group_id)
        assert all(
            mgr.tables.occupancy(sw) == 0
            for sw in range(net.topo.num_switches)
        )

    def test_stateless_patches_are_free(self):
        net = default_net()
        g = GroupManager(
            net, default_scheme="binomial", table_capacity=4
        ).create(0, [3, 9])
        assert g.tables is None  # NI-based: never charged
        g.join(17)
        g.leave(3)
        assert g.stats.grafts == 1 and g.stats.prunes == 1
        assert g.stats.replans == 0


class TestSwitchTables:
    def test_lru_evicts_and_reinstalls(self):
        t = SwitchMulticastTables(1, capacity=2, policy="lru")
        t.install(0, (0,))
        t.install(1, (0,))
        t.touch(0, (0,))          # group 0 now most recent
        t.install(2, (0,))        # evicts group 1 (LRU)
        assert t.holds(0, 0) and t.holds(2, 0) and not t.holds(1, 0)
        assert t.stats.evictions == 1
        t.touch(1, (0,))          # miss: re-install, evicting group 0
        assert t.stats.reinstalls == 1
        assert t.holds(1, 0)

    def test_lfu_protects_hot_entries(self):
        t = SwitchMulticastTables(1, capacity=2, policy="lfu")
        t.install(0, (0,))
        t.install(1, (0,))
        for _ in range(5):
            t.touch(0, (0,))
        t.touch(1, (0,))
        t.install(2, (0,))        # evicts group 1 (fewer uses)
        assert t.holds(0, 0) and not t.holds(1, 0)

    def test_aggregate_never_evicts(self):
        t = SwitchMulticastTables(1, capacity=1, policy="aggregate")
        t.install(0, (0,))
        t.install(1, (0,))
        t.install(2, (0,))
        assert t.stats.evictions == 0
        assert t.stats.aggregations == 2
        assert t.coarse_entries() == 1
        assert t.holds(0, 0) and t.holds(1, 0) and t.holds(2, 0)
        assert t.occupancy(0) == 1

    def test_release_frees_slots(self):
        t = SwitchMulticastTables(2, capacity=2, policy="lru")
        t.install(0, (0, 1))
        t.release(0)
        assert t.occupancy(0) == 0 and t.occupancy(1) == 0
        assert t.stats.releases == 2

    def test_install_replaces_old_footprint(self):
        t = SwitchMulticastTables(3, capacity=2, policy="lru")
        t.install(0, (0, 1))
        t.install(0, (2,))        # replan moved the plan off switches 0/1
        assert not t.holds(0, 0) and not t.holds(0, 1)
        assert t.holds(0, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchMulticastTables(1, capacity=0)
        with pytest.raises(ValueError):
            SwitchMulticastTables(1, capacity=1, policy="mru")


class TestChurnStream:
    def test_deterministic_and_valid(self):
        pool = tuple(range(1, 20))
        a = churn_stream(7, 50, pool, 0, (3, 9), 0.5)
        b = churn_stream(7, 50, pool, 0, (3, 9), 0.5)
        assert a == b
        members = {3, 9}
        for ev in a:
            assert isinstance(ev, ChurnEvent)
            assert ev.node != 0
            if ev.op == "join":
                assert ev.node not in members
                members.add(ev.node)
            else:
                assert ev.node in members and len(members) > 1
                members.remove(ev.node)

    def test_rate_zero_is_empty_and_rate_one_is_dense(self):
        pool = tuple(range(1, 20))
        assert churn_stream(7, 50, pool, 0, (3, 9), 0.0) == ()
        dense = churn_stream(7, 50, pool, 0, (3, 9), 1.0)
        assert len(dense) == 50

    def test_streams_share_prefix_across_rates(self):
        # The gate and op draws are consumed every step, so two rates
        # agree event-for-event until the first step where only the
        # higher rate fires (after which its extra node draws advance
        # the stream).
        pool = tuple(range(1, 20))
        low = churn_stream(7, 80, pool, 0, (3, 9), 0.2)
        high = churn_stream(7, 80, pool, 0, (3, 9), 0.9)
        first_divergence = min(
            (ev.step for ev in high
             if ev.step not in {e.step for e in low}),
            default=81,
        )
        low_prefix = [ev for ev in low if ev.step < first_divergence]
        high_prefix = [ev for ev in high if ev.step < first_divergence]
        assert low_prefix == high_prefix
        assert len(high) >= len(low)


class TestPairedChurn:
    @pytest.mark.parametrize("scheme", ["path", "tree", "ni"])
    def test_delivery_identity_and_replan_bound(self, scheme):
        rep = run_paired_churn(
            SimParams(), scheme, seed=11, steps=30, group_size=6,
            churn_rate=0.8, table_capacity=4,
        )
        assert rep.delivery_identical, rep.mismatches
        assert rep.verify_failures == 0
        if scheme == "tree":
            # tree groups replan on every change: the patched plan is
            # the fresh plan
            assert rep.patched_stats["replan_fraction"] == 1.0
            assert rep.max_cost_ratio == rep.mean_cost_ratio == 1.0
        else:
            assert rep.patched_stats["replan_fraction"] <= 0.2
        if scheme == "ni":
            assert rep.twin_replans == 0  # stateless twin has no plan
        else:
            assert rep.twin_replans == rep.events

    @pytest.mark.parametrize("scheme", ["ni", "tree", "path"])
    def test_digest_replays_byte_identical(self, scheme):
        kw = dict(seed=23, steps=20, group_size=4, churn_rate=0.6,
                  table_capacity=4)
        a = run_paired_churn(SimParams(), scheme, **kw)
        b = run_paired_churn(SimParams(), scheme, **kw)
        assert a.digest() == b.digest()
        assert a.to_value() == b.to_value()

    def test_fault_steps_bump_epochs_not_membership(self):
        rep = run_paired_churn(
            SimParams(), "tree", seed=11, steps=20, group_size=5,
            churn_rate=0.7, fault_steps=(5, 12),
        )
        assert rep.epoch_bumps >= 1
        assert rep.delivery_identical, rep.mismatches

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            run_paired_churn(SimParams(), "tree", seed=1, steps=5,
                             group_size=0, churn_rate=0.5)


class TestFuzzChurnIntegration:
    def test_generator_and_oracles_exactly_once_under_churn(self):
        from repro.fuzz.generator import generate_scenario
        from repro.fuzz.oracles import run_oracles

        checked = 0
        for i in range(12):
            sc = generate_scenario(5, i, fault_rate=0.0, churn_rate=1.0)
            if not sc.churn_ops:
                continue
            report = run_oracles(sc)
            assert report.ok, report.render()
            checked += 1
            if checked >= 3:
                break
        assert checked >= 1

    def test_scenario_churn_round_trip_and_digest_stability(self):
        from repro.fuzz.generator import generate_scenario
        from repro.fuzz.scenario import FuzzScenario

        sc = generate_scenario(5, 0, churn_rate=0.0)
        assert "churn_ops" not in sc.to_dict()
        for i in range(30):
            s = generate_scenario(5, i, churn_rate=1.0)
            if s.churn_ops:
                s2 = FuzzScenario.from_dict(s.to_dict())
                assert s2.churn_ops == s.churn_ops
                assert s2.digest() == s.digest()
                break
        else:
            pytest.fail("no churn scenario drawn in 30 tries")

    def test_scenario_validator_rejects_bad_streams(self):
        from repro.fuzz.generator import generate_scenario

        sc = generate_scenario(5, 0, churn_rate=0.0)
        with pytest.raises(ValueError):
            sc.with_changes(churn_ops=(("leave", sc.source),))
        with pytest.raises(ValueError):
            sc.with_changes(churn_ops=(("join", sc.dests[0]),))
        with pytest.raises(ValueError):
            sc.with_changes(churn_ops=(("frob", 1),))

    def test_shrink_filters_churn_against_dests(self):
        from repro.fuzz.shrink import _filter_churn

        ops = (("leave", 3), ("join", 5), ("leave", 5), ("leave", 9))
        # the final leave would empty the group, so the filter drops it
        assert _filter_churn(ops, 0, (3, 9), 20) == ops[:3]
        # dropping dest 3 invalidates its leave; the rest replays cleanly
        assert _filter_churn(ops, 0, (9,), 20) == (
            ("join", 5), ("leave", 5))
