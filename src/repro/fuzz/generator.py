"""Seeded random scenario generation.

Each scenario is a fresh draw of (topology, parameters, operation, scheme
roster): random irregular topologies in the paper's size range and below,
optionally pre-degraded through :func:`repro.topology.faults.degrade`,
short packets and small software overheads so a single case simulates in
milliseconds, and every combination of buffer depth / routing-tree
orientation / adaptivity the simulator supports.

Determinism contract: scenario ``i`` of base seed ``s`` is a pure function
of ``(s, i)`` -- sub-seeds are derived with the same sha256 construction the
experiment runner uses for cell seeds, never Python's salted :func:`hash`.
"""

from __future__ import annotations

import random

from repro.params import SimParams
from repro.routing.reachability import header_flits
from repro.topology import faults
from repro.topology.graph import NetworkTopology
from repro.topology.irregular import generate_irregular_topology
from repro.fuzz.scenario import FuzzScenario, derive_seed, scheme_spec

MAX_NODES = 20
"""Upper bound on hosts per scenario (keeps single-case sim time tiny)."""

_SCHEME_POOL = (
    ("binomial", {}),
    ("ni", {}),
    ("tree", {}),
    ("tree", {"max_header_dests": 2}),
    ("path", {}),
    ("path", {"strategy": "greedy"}),
)


def _draw_params(rng: random.Random) -> SimParams:
    """One random, always-valid parameter set (small and fast to simulate)."""
    num_switches = rng.randint(2, 10)
    ports = rng.randint(5, 9)
    # Leave room for hosts after the spanning tree's 2*(S-1) port ends; the
    # per-switch budget is rechecked by the topology generator itself.
    max_nodes = min(
        MAX_NODES,
        num_switches * ports - 2 * (num_switches - 1),
        num_switches * (ports - 1),
    )
    num_nodes = rng.randint(2, max(2, max_nodes))
    return SimParams(
        num_switches=num_switches,
        ports_per_switch=ports,
        num_nodes=num_nodes,
        topology_seed=rng.randrange(1 << 30),
        packet_flits=rng.choice([2, 4, 8, 16]),
        message_packets=rng.choice([1, 1, 1, 2]),
        input_buffer_flits=rng.choice([1, 2, 4, 64]),
        o_host=rng.choice([0, 5, 20, 60]),
        ratio_r=rng.choice([1.0, 2.0, 4.0]),
        adaptive_routing=rng.random() < 0.5,
        routing_tree=rng.choice(["bfs", "dfs"]),
        route_seed=rng.randrange(1 << 30),
    )


def _draw_topology(
    rng: random.Random, params: SimParams
) -> tuple[NetworkTopology, tuple[int, ...]]:
    """A connected (optionally degraded) topology for ``params``.

    Rare parameter corners (a random spanning tree demanding more ports on
    one switch than exist) make the generator raise; those draws are simply
    retried with a fresh sub-seed, which keeps the whole function total and
    still deterministic.
    """
    for attempt in range(64):
        try:
            topo = generate_irregular_topology(
                params,
                seed=rng.randrange(1 << 30),
                extra_link_fraction=rng.choice([0.0, 0.25, 0.5, 1.0]),
            )
        except (ValueError, AssertionError):
            continue
        failed: tuple[int, ...] = ()
        if rng.random() < 0.35:
            try:
                topo, failed_list = faults.degrade(
                    topo, rng.randint(1, 2), rng=rng
                )
                failed = tuple(failed_list)
            except ValueError:
                failed = ()  # topology cannot absorb failures; keep intact
        return topo, failed
    raise AssertionError(
        "topology generation failed 64 times in a row; parameter draw "
        f"{params} is infeasible"
    )


def _draw_fault_schedule(
    rng: random.Random, topo: NetworkTopology
) -> tuple[tuple[float, int], ...]:
    """A short runtime fault schedule for chaos scenarios.

    Links are sequentially removable (so reconfiguration can absorb every
    fault) and fire times are small -- early enough to race the multicast
    in flight, which is the interesting regime.
    """
    try:
        pairs = faults.schedule_faults(
            topo, rng.randint(1, 2), rng=rng, window=(1.0, 80.0)
        )
    except ValueError:
        return ()  # pure tree: no removable links; stay fault-free
    return tuple(pairs)


def _draw_churn_ops(
    rng: random.Random, num_nodes: int, source: int, dests: tuple[int, ...]
) -> tuple[tuple[str, int], ...]:
    """A short valid join/leave stream over the scenario's group.

    Availability-clamped the same way the scenario validator checks: joins
    pick from outside the group, leaves never take the last member, the
    root never churns.
    """
    members = set(dests)
    ops: list[tuple[str, int]] = []
    for _ in range(rng.randint(2, 6)):
        outside = sorted(set(range(num_nodes)) - members - {source})
        can_join = bool(outside)
        can_leave = len(members) > 1
        if not can_join and not can_leave:
            break
        if can_join and (not can_leave or rng.random() < 0.5):
            node = outside[rng.randrange(len(outside))]
            members.add(node)
            ops.append(("join", node))
        else:
            pool = sorted(members)
            node = pool[rng.randrange(len(pool))]
            members.remove(node)
            ops.append(("leave", node))
    return tuple(ops)


def _draw_collective_ops(
    rng: random.Random, num_nodes: int
) -> tuple[tuple[float, str, int], ...]:
    """A short open-loop collective admission schedule.

    Admission times are small and increasing (ops overlap in flight --
    the interesting regime for the workload driver's accounting) and kinds
    mix all three collectives.
    """
    ops: list[tuple[float, str, int]] = []
    t = 0.0
    for _ in range(rng.randint(2, 5)):
        t += rng.uniform(0.0, 60.0)
        kind = rng.choice(("broadcast", "allreduce", "barrier"))
        ops.append((round(t, 3), kind, rng.randrange(num_nodes)))
    return tuple(ops)


def generate_scenario(
    base_seed: int, index: int, fault_rate: float = 0.3,
    churn_rate: float = 0.25, vc_rate: float = 0.25,
    vc_count: int | None = None, collective_rate: float = 0.2,
) -> FuzzScenario:
    """Scenario ``index`` of the run seeded by ``base_seed`` (pure function).

    ``fault_rate`` is the probability that the scenario carries a runtime
    fault schedule (chaos mode); ``churn_rate`` the probability it carries
    a membership churn stream (churn mode); ``vc_rate`` the probability the
    fabric runs with multiple virtual channels per physical channel;
    ``collective_rate`` the probability it carries an open-loop collective
    admission schedule (collectives mode).  Pass 0.0 to disable any of
    them.  Each chance draw happens regardless of its rate, so the rest of
    the scenario is identical across rates for the same ``(seed, index)``.
    ``vc_count`` forces a specific lane count (overriding the draw, e.g.
    CI's fixed 4-VC stream); the draws still happen, keeping the stream
    aligned with unforced runs.
    """
    rng = random.Random(derive_seed(base_seed, "fuzz-scenario", index))
    params = _draw_params(rng)
    topo, failed = _draw_topology(rng, params)
    # The degraded/embedded topology is authoritative; re-sync the dims.
    params = params.replace(
        num_switches=topo.num_switches, num_nodes=topo.num_nodes
    )
    n = topo.num_nodes
    source = rng.randrange(n)
    pool = [x for x in range(n) if x != source]
    dests = tuple(rng.sample(pool, rng.randint(1, min(len(pool), 8))))
    roster = rng.sample(_SCHEME_POOL, rng.randint(2, 4))
    schemes = tuple(
        sorted(
            (scheme_spec(name, **kw) for name, kw in roster),
            key=lambda s: (s[0], s[1]),
        )
    )
    if any(name == "tree" for name, _ in schemes):
        # The tree scheme's N-bit header (plus source id) must leave payload
        # room in the packet -- the capacity rule of
        # repro.routing.invariants.header_problems.
        flits = header_flits(n)
        if flits >= params.packet_flits:
            params = params.replace(packet_flits=flits + rng.choice([1, 4]))
    fault_schedule: tuple[tuple[float, int], ...] = ()
    if rng.random() < fault_rate:
        fault_schedule = _draw_fault_schedule(rng, topo)
    churn_ops: tuple[tuple[str, int], ...] = ()
    if rng.random() < churn_rate:
        churn_ops = _draw_churn_ops(rng, n, source, dests)
    # VC draws come last (appended after the historical draws, so corpora
    # generated before the VC fabric replay identically) and are always
    # consumed -- stream stability across vc_rate values.
    vc_chance = rng.random()
    vc_lanes = rng.choice([2, 4])
    if vc_count is not None:
        params = params.replace(vc_count=vc_count)
    elif vc_chance < vc_rate:
        params = params.replace(vc_count=vc_lanes)
    # Collective draws come after the VC draws (the append-last rule: every
    # pre-collectives corpus replays with unchanged digests) and the chance
    # draw is always consumed -- stream stability across collective_rate.
    collective_chance = rng.random()
    collective_ops: tuple[tuple[float, str, int], ...] = ()
    if collective_chance < collective_rate:
        collective_ops = _draw_collective_ops(rng, n)
    return FuzzScenario(
        topo=topo,
        params=params,
        source=source,
        dests=dests,
        schemes=schemes,
        compare_backends=True,
        degraded_links=failed,
        fault_schedule=fault_schedule,
        churn_ops=churn_ops,
        collective_ops=collective_ops,
        label=f"seed={base_seed}/iter={index}",
    )
