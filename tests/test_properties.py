"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.metrics.stats import percentile, summarize
from repro.multicast import make_scheme
from repro.multicast.binomial import build_binomial_tree, tree_depth_in_steps
from repro.multicast.kbinomial import build_k_binomial_tree
from repro.multicast.pathworm import plan_path_worms
from repro.multicast.treeworm import plan_tree_worm
from repro.params import SimParams
from repro.routing.invariants import cdg_problems
from repro.routing.paths import is_legal_path, shortest_path_links
from repro.routing.reachability import decode_mask, header_mask
from repro.routing.updown import Phase, UpDownRouting
from repro.sim.engine import Engine
from repro.sim.network import SimNetwork
from repro.topology import faults
from repro.topology.irregular import generate_irregular_topology

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
dims = st.tuples(
    st.integers(min_value=2, max_value=12),   # switches
    st.integers(min_value=4, max_value=24),   # nodes
    st.integers(min_value=0, max_value=10_000),  # seed
).filter(lambda t: t[1] <= t[0] * 7 - 2 * (t[0] - 1))

# (dims, link failures to attempt) -- the degraded-system strategy: every
# invariant that holds on freshly generated topologies must survive
# reconfiguration around failed links (the paper's fault-resilience claim).
degraded_dims = st.tuples(dims, st.integers(min_value=0, max_value=3))


def build_topo(switches, nodes, seed):
    params = SimParams(num_switches=switches, num_nodes=nodes)
    return generate_irregular_topology(params, seed=seed), params


def build_degraded_topo(d, n_failures):
    """Topology with up to ``n_failures`` random links failed.

    Falls back to fewer failures when the draw cannot absorb them while
    staying connected (pure-tree topologies have no removable link at all).
    """
    topo, params = build_topo(*d)
    rng = random.Random(d[2])
    for attempt_failures in range(n_failures, 0, -1):
        try:
            degraded, failed = faults.degrade(topo, attempt_failures, rng=rng)
        except ValueError:
            continue
        return degraded, params, failed
    return topo, params, []


# ----------------------------------------------------------------------
# Topology and routing invariants
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(dims)
def test_generated_topologies_are_connected_and_within_budget(d):
    topo, _ = build_topo(*d)
    assert topo.is_connected()
    for s in range(topo.num_switches):
        assert topo.free_ports(s) >= 0


@settings(max_examples=20, deadline=None)
@given(dims)
def test_updown_up_links_form_dag_and_all_pairs_route(d):
    topo, _ = build_topo(*d)
    rt = UpDownRouting.build(topo)
    # topological order exists over up edges
    indeg = {s: 0 for s in range(topo.num_switches)}
    for lk in topo.links:
        indeg[rt.up_end_switch(lk)] += 1
    order = [s for s, deg in indeg.items() if deg == 0]
    seen = 0
    work = list(order)
    while work:
        s = work.pop()
        seen += 1
        for lk in topo.links_of(s):
            up = rt.up_end_switch(lk)
            if up != s:
                indeg[up] -= 1
                if indeg[up] == 0:
                    work.append(up)
    assert seen == topo.num_switches
    for a in range(topo.num_switches):
        for b in range(topo.num_switches):
            assert rt.reachable(a, Phase.UP, b)
            p = shortest_path_links(rt, a, b)
            assert is_legal_path(rt, a, p)
            assert len(p) == rt.distance(a, b)


@settings(max_examples=20, deadline=None)
@given(dims)
def test_reachability_subset_and_root_totality(d):
    topo, _ = build_topo(*d)
    rt = UpDownRouting.build(topo)
    from repro.routing.reachability import ReachabilityTable

    reach = ReachabilityTable.build(rt)
    assert reach.down_reach(rt.tree.root) == frozenset(range(topo.num_nodes))
    for s in range(topo.num_switches):
        local = set(topo.nodes_on_switch(s))
        assert local <= reach.down_reach(s)
        for lk in rt.down_links_of(s):
            assert reach.port_reach(s, lk) <= reach.down_reach(s)


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=63)))
def test_header_mask_roundtrip(dests):
    assert decode_mask(header_mask(dests)) == frozenset(dests)


# ----------------------------------------------------------------------
# Multicast plan invariants
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_binomial_depth_bound(n):
    members = list(range(n))
    tree = build_binomial_tree(members)
    expected = math.ceil(math.log2(n)) if n > 1 else 0
    assert tree_depth_in_steps(tree, 0) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=10),
)
def test_k_binomial_covers_once_with_bounded_fanout(n, k):
    members = list(range(n))
    tree = build_k_binomial_tree(members, k)
    seen = set()
    stack = [0]
    while stack:
        node = stack.pop()
        assert node not in seen
        seen.add(node)
        assert len(tree[node]) <= k
        stack.extend(tree[node])
    assert seen == set(members)


@settings(max_examples=15, deadline=None)
@given(dims, st.data())
def test_tree_worm_turn_always_covers(d, data):
    topo, params = build_topo(*d)
    net = SimNetwork(topo, params)
    n = topo.num_nodes
    size = data.draw(st.integers(min_value=1, max_value=n - 1))
    dests = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=n - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    plan = plan_tree_worm(net, topo.switch_of_node(0), dests)
    assert net.reach.covers(plan.turn_switch, set(dests))


@settings(max_examples=15, deadline=None)
@given(dims, st.data())
def test_path_worm_plan_partitions_destinations(d, data):
    topo, params = build_topo(*d)
    net = SimNetwork(topo, params)
    n = topo.num_nodes
    size = data.draw(st.integers(min_value=1, max_value=n - 1))
    dests = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=n - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    plan = plan_path_worms(net, 0, dests)
    covered = [x for w in plan.worms for x in w.covered]
    assert sorted(covered) == sorted(dests)  # partition: no dup, no miss
    for w in plan.worms:
        assert is_legal_path(net.routing, w.switch_path[0], list(w.links))


# ----------------------------------------------------------------------
# Fault-model invariants
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(dims)
def test_removable_link_removal_never_disconnects(d):
    topo, _ = build_topo(*d)
    # Chain removals to exhaustion: at every step, removing any link that
    # removable_links() nominated must leave the fabric connected.
    current = topo
    removed = 0
    while True:
        candidates = faults.removable_links(current)
        if not candidates:
            break
        current = faults.remove_link(current, min(candidates))
        removed += 1
        assert current.is_connected()
        assert len(current.links) == len(topo.links) - removed
    # Fixpoint reached: the survivor is a spanning tree over the switches.
    assert len(current.links) == current.num_switches - 1


# ----------------------------------------------------------------------
# End-to-end: every scheme delivers exactly once, regardless of topology
# -- including topologies reconfigured around failed links
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(degraded_dims, st.sampled_from(["binomial", "ni", "tree", "path"]),
       st.data())
def test_schemes_deliver_exactly_once_on_random_systems(dd, scheme_name, data):
    d, n_failures = dd
    topo, params, _failed = build_degraded_topo(d, n_failures)
    net = SimNetwork(topo, params)
    n = topo.num_nodes
    source = data.draw(st.integers(min_value=0, max_value=n - 1))
    pool = [x for x in range(n) if x != source]
    size = data.draw(st.integers(min_value=1, max_value=len(pool)))
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    dests = rng.sample(pool, size)
    res = make_scheme(scheme_name).execute(net, source, dests)
    net.run()
    assert res.complete
    assert set(res.delivery_times) == set(dests)
    net.assert_quiescent()


# ----------------------------------------------------------------------
# Virtual-channel invariants: the escape lane's CDG is acyclic on every
# topology we can generate (degraded or not), and adaptive-lane routing
# never breaks exactly-once delivery
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(degraded_dims)
def test_escape_lane_cdg_acyclic_on_random_degraded_topologies(dd):
    d, n_failures = dd
    topo, _params, _failed = build_degraded_topo(d, n_failures)
    assert cdg_problems(topo, UpDownRouting.build(topo)) == []


@settings(max_examples=10, deadline=None)
@given(degraded_dims, st.sampled_from(["binomial", "ni", "tree", "path"]),
       st.data())
def test_schemes_deliver_exactly_once_under_adaptive_lanes(dd, scheme_name,
                                                           data):
    # The adaptive-lane twin of the exactly-once property above: escape
    # routing may shortcut off the deterministic up*/down* path whenever a
    # non-escape lane is free, and must still cover every destination
    # exactly once and release every lane it touched.
    d, n_failures = dd
    topo, params, _failed = build_degraded_topo(d, n_failures)
    params = params.replace(vc_count=2, vc_routing="escape")
    net = SimNetwork(topo, params)
    n = topo.num_nodes
    source = data.draw(st.integers(min_value=0, max_value=n - 1))
    pool = [x for x in range(n) if x != source]
    size = data.draw(st.integers(min_value=1, max_value=len(pool)))
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    dests = rng.sample(pool, size)
    res = make_scheme(scheme_name).execute(net, source, dests)
    net.run()
    assert res.complete
    assert set(res.delivery_times) == set(dests)
    net.assert_quiescent()
    for ch in net.fabric.all_channels():
        assert ch.owned_lanes == 0, ch.name
        assert ch.grants == ch.releases, ch.name


# ----------------------------------------------------------------------
# Engine and stats invariants
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
def test_engine_fires_in_nondecreasing_time_order(times):
    eng = Engine()
    fired = []
    for t in times:
        eng.at(t, lambda t=t: fired.append(eng.now))
    eng.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e9, max_value=1e9,
                       allow_nan=False), min_size=1, max_size=100),
    st.floats(min_value=0, max_value=100),
)
def test_percentile_bounded_by_extremes(xs, q):
    p = percentile(xs, q)
    assert min(xs) <= p <= max(xs)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60))
def test_summary_internally_consistent(xs):
    s = summarize(xs)
    eps = 1e-9 * max(1.0, abs(s.min), abs(s.max))  # float summation slack
    assert s.min - eps <= s.p50 <= s.max + eps
    assert s.min - eps <= s.mean <= s.max + eps
    assert s.std >= 0
    assert s.count == len(xs)


# ----------------------------------------------------------------------
# Workload-layer invariants: the quantile digest agrees with the stdlib,
# allreduce can never beat its own legs, and a barrier completes exactly
# when its last participant has launched
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        # Small integer-valued pools force heavy ties, the interpolation
        # hazard case; mixing in raw floats covers the generic one.
        st.one_of(
            st.integers(min_value=0, max_value=8).map(float),
            st.floats(min_value=-1e6, max_value=1e6),
        ),
        min_size=1, max_size=80,
    ),
)
def test_quantile_digest_matches_stdlib_inclusive(xs):
    import statistics

    from repro.metrics.quantiles import QuantileDigest

    digest = QuantileDigest()
    for x in xs:
        digest.add(x)
    assert digest.count == len(xs)
    if len(xs) == 1:
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert digest.quantile(q) == xs[0]
        return
    cuts = statistics.quantiles(xs, n=20, method="inclusive")
    for k, want in enumerate(cuts, start=1):
        got = digest.quantile(k / 20)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-9), (
            k, got, want
        )
    assert digest.quantile(0.0) == min(xs)
    assert digest.quantile(1.0) == max(xs)


@settings(max_examples=8, deadline=None)
@given(dims, st.sampled_from(["ni", "tree", "path"]), st.data())
def test_allreduce_at_least_as_slow_as_each_leg(d, scheme_name, data):
    from repro.collectives import ops as collectives

    topo, params = build_topo(*d)
    root = data.draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))

    def run_isolated(launch):
        net = SimNetwork(topo, params)
        res = launch(net)
        net.run()
        assert res.complete
        return res.latency

    reduce_leg = run_isolated(
        lambda net: collectives.reduce_to_root(net, root)
    )
    bcast_leg = run_isolated(
        lambda net: collectives.broadcast(net, root, scheme_name)
    )
    allreduce = run_isolated(
        lambda net: collectives.allreduce(net, root, scheme_name)
    )
    # The reduce and the broadcast sit on allreduce's critical path back to
    # back; whatever contention does, it cannot make the composition beat
    # either leg run alone on an idle network.
    assert allreduce >= max(reduce_leg, bcast_leg), (
        allreduce, reduce_leg, bcast_leg
    )


@settings(max_examples=10, deadline=None)
@given(dims, st.data())
def test_barrier_completes_iff_all_participants_launched(d, data):
    from repro.collectives import ops as collectives

    topo, params = build_topo(*d)
    n = topo.num_nodes
    root = data.draw(st.integers(min_value=0, max_value=n - 1))
    others = [x for x in range(n) if x != root]
    straggler = data.draw(st.sampled_from(others))
    horizon = 200_000.0
    arrivals = {straggler: horizon * 2}

    # One participant arrives beyond the horizon: the barrier must still be
    # open when the engine has drained everything up to the horizon.
    net = SimNetwork(topo, params)
    res = collectives.barrier(net, root, "tree", arrivals=arrivals)
    net.engine.run(until=horizon)
    assert not res.complete, "barrier released before every arrival"

    # ... and once the straggler's token is in, it must release for all.
    net.engine.run()
    assert res.complete
    assert set(res.node_times) == set(range(n))
    assert res.complete_time >= horizon * 2
    net.assert_quiescent()
