"""Unit tests for the static plans of the four multicast schemes."""

import math
import random

import pytest

from repro.multicast.binomial import build_binomial_tree, tree_depth_in_steps
from repro.multicast.kbinomial import (
    MAX_K,
    base_packet_hop_latency,
    build_k_binomial_tree,
    choose_k,
    estimate_fpfs_completion,
)
from repro.multicast.ordering import contention_aware_order
from repro.multicast.pathworm import best_single_worm, plan_path_worms
from repro.multicast.treeworm import plan_tree_worm
from repro.params import SimParams
from repro.routing.paths import is_legal_path
from repro.sim.network import SimNetwork
from repro.topology.irregular import generate_irregular_topology


def default_net(seed=3, **kw) -> SimNetwork:
    p = SimParams(**kw)
    return SimNetwork(generate_irregular_topology(p, seed=seed), p)


def tree_members(tree: dict[int, list[int]], root: int) -> set[int]:
    seen = {root}
    stack = [root]
    while stack:
        n = stack.pop()
        for c in tree[n]:
            assert c not in seen, "node informed twice"
            seen.add(c)
            stack.append(c)
    return seen


class TestBinomialTree:
    def test_covers_all_members_once(self):
        members = list(range(10))
        tree = build_binomial_tree(members)
        assert tree_members(tree, 0) == set(members)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 9, 16, 31])
    def test_step_count_is_ceil_log2(self, n):
        tree = build_binomial_tree(list(range(n)))
        assert tree_depth_in_steps(tree, 0) == math.ceil(math.log2(n))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_binomial_tree([])
        with pytest.raises(ValueError):
            build_binomial_tree([1, 1])

    def test_single_member(self):
        assert build_binomial_tree([5]) == {5: []}


class TestKBinomialTree:
    def test_k1_is_a_chain(self):
        tree = build_k_binomial_tree(list(range(6)), 1)
        assert tree[0] == [1] and tree[1] == [2] and tree[4] == [5]

    def test_large_k_matches_binomial(self):
        members = list(range(17))
        assert build_k_binomial_tree(members, 20) == build_binomial_tree(members)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 5, 9, 16, 30])
    def test_children_bounded_and_complete(self, k, n):
        members = list(range(n))
        tree = build_k_binomial_tree(members, k)
        assert tree_members(tree, 0) == set(members)
        assert all(len(ch) <= k for ch in tree.values())

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            build_k_binomial_tree([0, 1], 0)

    def test_tree_unchanged_past_log2_bound(self):
        """For n members the tree stops changing at k = ceil(log2 n), and
        not earlier: the bound ``choose_k`` stops at."""
        for n in range(2, 130):
            members = list(range(n))
            bound = math.ceil(math.log2(n))
            at_bound = build_k_binomial_tree(members, bound)
            for k in range(bound + 1, max(bound, MAX_K) + 4):
                assert build_k_binomial_tree(members, k) == at_bound, (n, k)
            if bound > 1:
                assert build_k_binomial_tree(members, bound - 1) != at_bound, n


class TestKSelection:
    def test_estimator_prefers_fanout_for_single_packet(self):
        # With one packet and o_ni far below o_host, pipelining depth is
        # cheap; the estimate for a chain (k=1) must be worse than for a
        # bushier tree at realistic sizes.
        net = default_net()
        members = list(range(16))
        lat = lambda a, b: 200.0
        est = {
            k: estimate_fpfs_completion(
                build_k_binomial_tree(members, k), 0, net.params, lat
            )
            for k in (1, 2, 4)
        }
        assert est[2] < est[1]

    def test_choose_k_returns_valid_tree(self):
        net = default_net()
        dests = [n for n in range(1, 16)]
        k, tree = choose_k(net, 0, dests)
        assert 1 <= k <= 8
        assert tree_members(tree, 0) == set([0] + dests)

    @pytest.mark.parametrize("packets", [1, 4])
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 16, 31])
    def test_choose_k_matches_scan_to_max_k(self, size, packets):
        """Stopping at ceil(log2 n) picks what scanning every k up to
        MAX_K picks (the first strict minimum of the estimate)."""
        net = default_net(message_packets=packets)
        dests = random.Random(size).sample(range(1, 32), size)
        ordered = contention_aware_order(net.topo, net.routing, 0, dests)
        lat = lambda a, b: base_packet_hop_latency(net, a, b)
        members = [0] + ordered
        best = min(
            range(1, min(MAX_K, size) + 1),
            key=lambda k: estimate_fpfs_completion(
                build_k_binomial_tree(members, k), 0, net.params, lat
            ),
        )
        assert choose_k(net, 0, ordered) == (
            best, build_k_binomial_tree(members, best)
        )

    def test_multi_packet_prefers_smaller_k(self):
        # Long messages raise the per-child serialisation cost (m * o_ni per
        # child), so the chosen k should not grow with packet count.
        net1 = default_net(message_packets=1)
        net8 = default_net(message_packets=8)
        dests = list(range(1, 24))
        k1, _ = choose_k(net1, 0, dests)
        k8, _ = choose_k(net8, 0, dests)
        assert k8 <= k1


class TestOrdering:
    def test_far_clusters_first(self):
        net = default_net()
        dests = [n for n in range(1, 20)]
        ordered = contention_aware_order(net.topo, net.routing, 0, dests)
        assert sorted(ordered) == sorted(dests)
        src_sw = net.topo.switch_of_node(0)
        dists = [
            net.routing.distance(src_sw, net.topo.switch_of_node(d))
            for d in ordered
        ]
        assert dists[0] == max(dists)
        # Destinations on the same switch stay adjacent in the order.
        switches = [net.topo.switch_of_node(d) for d in ordered]
        seen = set()
        for i, s in enumerate(switches):
            if s in seen:
                assert switches[i - 1] == s, "cluster split"
            seen.add(s)


class TestTreeWormPlan:
    def test_turn_covers_all_destinations(self):
        for seed in range(5):
            net = default_net(seed=seed)
            dests = random.Random(seed).sample(range(1, 32), 12)
            plan = plan_tree_worm(net, net.topo.switch_of_node(0), dests)
            assert net.reach.covers(plan.turn_switch, set(dests))

    def test_up_path_is_minimal_up_only(self):
        for seed in range(5):
            net = default_net(seed=seed)
            dests = random.Random(seed + 50).sample(range(1, 32), 8)
            plan = plan_tree_worm(net, net.topo.switch_of_node(0), dests)
            path = plan.up_switch_path
            assert path[0] == net.topo.switch_of_node(0)
            assert path[-1] == plan.turn_switch
            # No shallower covering ancestor: every strictly shorter
            # up-distance switch on the path must fail coverage.
            for s in path[:-1]:
                assert not net.reach.covers(s, set(dests))

    def test_local_only_multicast_turns_at_source(self):
        net = default_net()
        src_sw = net.topo.switch_of_node(0)
        local = [n for n in net.topo.nodes_on_switch(src_sw) if n != 0]
        if not local:
            pytest.skip("seed put no other host on the source switch")
        plan = plan_tree_worm(net, src_sw, local)
        assert plan.turn_switch == src_sw
        assert plan.up_switch_path == (src_sw,)


class TestPathWormPlan:
    @pytest.mark.parametrize("strategy", ["lg", "greedy"])
    def test_plan_covers_everything_exactly_once(self, strategy):
        for seed in range(5):
            net = default_net(seed=seed)
            dests = random.Random(seed).sample(range(1, 32), 14)
            plan = plan_path_worms(net, 0, dests, strategy=strategy)
            covered = [n for w in plan.worms for n in w.covered]
            assert sorted(covered) == sorted(dests)

    def test_paths_are_legal(self):
        for seed in range(5):
            net = default_net(seed=seed)
            dests = random.Random(seed + 9).sample(range(1, 32), 14)
            plan = plan_path_worms(net, 0, dests)
            for w in plan.worms:
                assert is_legal_path(net.routing, w.switch_path[0], list(w.links))
                assert w.switch_path[0] == net.topo.switch_of_node(w.sender)

    def test_drops_lie_on_path(self):
        net = default_net()
        dests = random.Random(1).sample(range(1, 32), 14)
        plan = plan_path_worms(net, 0, dests)
        for w in plan.worms:
            assert len(w.drops) == len(w.switch_path)
            for sw, nodes in zip(w.switch_path, w.drops):
                for n in nodes:
                    assert net.topo.switch_of_node(n) == sw

    def test_phase_structure(self):
        # Phase 1 is the source's single worm; later phases are sent only by
        # destinations covered earlier, one worm per sender ever.
        net = default_net()
        dests = [n for n in range(1, 32)]
        plan = plan_path_worms(net, 0, dests)
        assert len(plan.phases[0]) == 1
        assert plan.phases[0][0].sender == 0
        senders = [w.sender for w in plan.worms]
        assert len(senders) == len(set(senders)), "a sender sent twice"
        covered: set[int] = set()
        for phase in plan.phases:
            for w in phase:
                assert w.sender == 0 or w.sender in covered
            for w in phase:
                covered |= w.covered
            # phase width bounded by the eligible sender pool
            assert len(phase) <= 1 + len(covered)

    def test_senders_have_message_when_sending(self):
        # Every worm's sender is the source or was covered in an earlier phase.
        net = default_net()
        dests = random.Random(2).sample(range(1, 32), 20)
        plan = plan_path_worms(net, 0, dests)
        have = {0}
        for phase in plan.phases:
            for w in phase:
                assert w.sender in have
            for w in phase:
                have |= w.covered

    def test_single_worm_when_one_path_suffices(self):
        # All destinations on the source's own switch: one worm, one phase.
        net = default_net()
        src_sw = net.topo.switch_of_node(0)
        local = [n for n in net.topo.nodes_on_switch(src_sw) if n != 0]
        if not local:
            pytest.skip("seed put no other host on the source switch")
        plan = plan_path_worms(net, 0, local)
        assert plan.num_phases == 1 and len(plan.worms) == 1

    def test_best_single_worm_rejects_empty(self):
        net = default_net()
        with pytest.raises(ValueError):
            best_single_worm(net, 0, frozenset())

    def test_lg_vs_greedy_both_valid(self):
        net = default_net()
        dests = random.Random(3).sample(range(1, 32), 16)
        for strat in ("lg", "greedy"):
            w = best_single_worm(net, 0, frozenset(dests), strategy=strat)
            assert w.covered
        with pytest.raises(ValueError):
            best_single_worm(net, 0, frozenset(dests), strategy="bogus")
