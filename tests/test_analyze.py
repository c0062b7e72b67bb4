"""Planted-violation tests for the whole-program analyzers.

Every analyzer rule gets a fixture tree that violates it (and a minimally
different one that does not), plus the kill-table case that only it
catches (DESIGN.md §7); the suppression mechanics get regression
coverage for multi-line statements and justification enforcement, and the
epoch-sequence verifier is proven to detect a planted epoch-1 CDG cycle --
a checker that cannot find the bug it exists for proves nothing by passing.
"""

import pathlib
import textwrap

import pytest

from repro.lint import run_lint
from repro.lint.suppress import (
    find_suppression,
    parse_suppression_comments,
    statement_anchors,
)
from repro.routing.invariants import verify_epoch_sequence
from repro.routing.updown import UpDownRouting
from repro.topology.graph import NetworkTopology, PortRef, SwitchLink


def write_tree(root: pathlib.Path, files: dict[str, str]) -> pathlib.Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def analyze(root: pathlib.Path):
    return run_lint([root])


def rules_found(result) -> set[str]:
    return {f.rule for f in result.findings}


# ----------------------------------------------------------------------
# identity-in-sim
# ----------------------------------------------------------------------
class TestIdentity:
    def test_id_and_environ_are_flagged_in_sim_scope(self, tmp_path):
        root = write_tree(tmp_path, {"sim/keys.py": """
            import os

            def cache_key(net):
                return (id(net), os.environ.get("SEED"))
        """})
        result = analyze(root)
        assert [f.rule for f in result.findings] == \
            ["identity-in-sim", "identity-in-sim"]

    # Kill-table cases I3 and I4 (DESIGN.md §7): CI sets no such variable,
    # so every dynamic check passes; only this rule sees the reads.
    @pytest.mark.parametrize("files, lines", [
        pytest.param({"sim/network.py": """
            import dataclasses
            import os

            class SimNetwork:
                def __init__(self, topo, params):
                    if os.environ.get("REPRO_VC_COUNT"):
                        params = dataclasses.replace(
                            params, vc_count=int(os.environ["REPRO_VC_COUNT"]))
                    self.params = params
        """}, [7, 9], id="vc-count-override"),
        pytest.param({"fuzz/generator.py": """
            import os

            def random_params(rng):
                cap = int(os.environ.get("REPRO_FUZZ_MAX_SWITCHES", "10"))
                return rng.randint(2, cap)
        """}, [5], id="fuzz-size-cap"),
    ])
    def test_planted_environment_reads_are_flagged(self, tmp_path, files,
                                                   lines):
        root = write_tree(tmp_path, files)
        found = [(f.rule, f.line) for f in analyze(root).findings]
        assert found == [("identity-in-sim", n) for n in lines]

    def test_outside_sim_scope_is_not_flagged(self, tmp_path):
        root = write_tree(tmp_path, {"repro/tools/keys.py": """
            def cache_key(obj):
                return id(obj)
        """})
        assert analyze(root).findings == []


# ----------------------------------------------------------------------
# Cell isolation: runtime-global-mutation / cross-network-mutation
# ----------------------------------------------------------------------
class TestPartitionSafety:
    def test_runner_reachable_global_write_is_flagged(self, tmp_path):
        root = write_tree(tmp_path, {"traffic/load.py": """
            RESULTS = {}

            def run_load_experiment(cfg):
                return helper(cfg)

            def helper(cfg):
                RESULTS[cfg] = 1
                return RESULTS
        """})
        result = analyze(root)
        [f] = [f for f in result.findings
               if f.rule == "runtime-global-mutation"]
        assert f.line == 8
        assert "run_load_experiment" in f.message
        assert "RESULTS" in f.message

    def test_planted_topology_memo_is_flagged(self, tmp_path):
        # Kill-table case G2 (DESIGN.md §7): the memo's key leaves out the
        # topology seed, so a later call with another seed gets the first
        # seed's topologies.  Every experiment uses one topology seed, so
        # no CI check sees it.
        root = write_tree(tmp_path, {"traffic/single.py": """
            from topology.irregular import generate_topology_family

            _FAMILIES = {}

            def average_single_multicast_latency(params, n_topologies):
                fkey = (params.num_switches, params.num_nodes, n_topologies)
                if fkey not in _FAMILIES:
                    _FAMILIES[fkey] = generate_topology_family(
                        params, n_topologies)
                return _FAMILIES[fkey]
        """})
        found = [(f.rule, f.line) for f in analyze(root).findings]
        assert found == [("runtime-global-mutation", 9)]

    def test_planted_module_rng_draw_is_flagged(self, tmp_path):
        # Kill-table case G4 (DESIGN.md §7): a module-level seeded Random
        # breaks equal-distance ties in NI ordering, so each draw advances
        # state the next cell in the worker process inherits.
        root = write_tree(tmp_path, {
            "multicast/ordering.py": """
                import random

                _TIES = random.Random(7)

                def order_destinations(dests, dist):
                    return sorted(dests, key=lambda d: (dist[d], _TIES.random()))
            """,
            "traffic/load.py": """
                from multicast.ordering import order_destinations

                def run_load_experiment(cfg):
                    return order_destinations(cfg.dests, cfg.dist)
            """,
        })
        found = [(f.rule, pathlib.Path(f.path).name, f.line)
                 for f in analyze(root).findings]
        assert found == [("runtime-global-mutation", "ordering.py", 7)]

    @pytest.mark.parametrize("body", [
        pytest.param("""
            from random import Random

            _RNG = Random(3)

            def run_load_experiment(cfg):
                rng = _RNG
                return rng.choice(cfg)
        """, id="imported-class-through-alias"),
        pytest.param("""
            import random as rnd

            _RNG = rnd.Random(3)

            def run_load_experiment(cfg):
                _RNG.shuffle(cfg)
        """, id="module-alias"),
    ])
    def test_module_rng_draw_forms_are_flagged(self, tmp_path, body):
        root = write_tree(tmp_path, {"traffic/load.py": body})
        assert "runtime-global-mutation" in rules_found(analyze(root))

    def test_owned_rng_draws_are_not_global_writes(self, tmp_path):
        # A generator the call builds, or one the caller hands in, is not
        # module state; neither is a module-level non-Random with a
        # same-named method.
        root = write_tree(tmp_path, {"traffic/load.py": """
            import random

            class Pool:
                def choice(self, xs):
                    return xs[0]

            POOL = Pool()

            def run_load_experiment(cfg, rng):
                local = random.Random(cfg)
                return local.random() + rng.random() + POOL.choice([1])
        """})
        assert "runtime-global-mutation" not in rules_found(analyze(root))

    def test_unreachable_registry_write_stays_partition_local(self, tmp_path):
        root = write_tree(tmp_path, {"traffic/load.py": """
            PATTERNS = {}

            def register(name, fn):
                PATTERNS[name] = fn

            def run_load_experiment(cfg):
                return PATTERNS[cfg]()
        """})
        result = analyze(root)
        assert "runtime-global-mutation" not in rules_found(result)

    @pytest.mark.parametrize("files, expected", [
        pytest.param({"traffic/load.py": """
            class Pool:
                cache = {}

            def run_load_experiment(cfg):
                Pool.cache[cfg] = 1
        """}, [("traffic/load.py", 6)], id="class-variable"),
        pytest.param({"traffic/load.py": """
            COUNT = 0

            def run_load_experiment(cfg):
                global COUNT
                COUNT += 1
        """}, [("traffic/load.py", 6)], id="global-rebinding"),
        pytest.param({"traffic/load.py": """
            REG = {}

            def run_load_experiment(cfg):
                table = REG
                table[cfg] = 1
        """}, [("traffic/load.py", 6)], id="local-alias"),
        pytest.param({"experiments/runner.py": """
            from contextvars import ContextVar

            _CONTEXT = ContextVar("context")
            _OTHER = ContextVar("other")

            def run_cell(cell):
                _CONTEXT.set(cell)
                _OTHER.set(cell)
        """}, [("experiments/runner.py", 9)], id="context-exemption"),
    ])
    def test_shared_state_write_forms(self, tmp_path, files, expected):
        root = write_tree(tmp_path, files)
        found = [
            (pathlib.Path(f.path).relative_to(root).as_posix(), f.line)
            for f in analyze(root).findings
            if f.rule == "runtime-global-mutation"
        ]
        assert found == expected

    def test_cross_network_write_outside_sim_is_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "sim/network.py": """
                class SimNetwork:
                    def __init__(self):
                        self.routing = None
                        self.trace = None
            """,
            "traffic/meddle.py": """
                from sim.network import SimNetwork

                def hijack(net: SimNetwork):
                    net.routing = None

                def observe(net: SimNetwork, trace):
                    net.trace = trace
            """,
        })
        result = analyze(root)
        found = [f for f in result.findings
                 if f.rule == "cross-network-mutation"]
        assert [f.line for f in found] == [5]
        assert "routing" in found[0].message
        # net.trace is a documented observer slot: allowed.

    def test_planted_control_message_params_write_is_flagged(
        self, tmp_path
    ):
        # Kill-table case X1 (DESIGN.md §7): the control send shrinks every
        # later message on the network to one packet.  No CI check runs a
        # collective with multi-packet messages, so only this rule sees it.
        root = write_tree(tmp_path, {
            "sim/network.py": """
                class SimNetwork:
                    def __init__(self, params):
                        self.params = params
            """,
            "collectives/ops.py": """
                import dataclasses

                from sim.network import SimNetwork

                def _send_control(net: SimNetwork, src, dst):
                    net.params = dataclasses.replace(
                        net.params, message_packets=1)
                    return (src, dst)
            """,
        })
        found = [(f.rule, f.line) for f in analyze(root).findings]
        assert found == [("cross-network-mutation", 7)]

    def test_receiver_writes_are_not_parameter_writes(self, tmp_path):
        # `self` is typed as its own class; its stores are the object's
        # own state even when the class is named SimNetwork outside sim/.
        root = write_tree(tmp_path, {"traffic/net.py": """
            class SimNetwork:
                def __init__(self):
                    self.routing = None

                def reroute(self, routing):
                    self.routing = routing
        """})
        assert analyze(root).findings == []

    def test_sim_layer_may_write_its_own_network(self, tmp_path):
        root = write_tree(tmp_path, {
            "sim/network.py": """
                class SimNetwork:
                    def __init__(self):
                        self.routing = None
            """,
            "sim/reconf.py": """
                from sim.network import SimNetwork

                def reconfigure(net: SimNetwork, routing):
                    net.routing = routing
            """,
        })
        assert analyze(root).findings == []


# ----------------------------------------------------------------------
# Lint-registry bridge
# ----------------------------------------------------------------------
class TestLintBridge:
    def test_one_lint_run_carries_the_analyzer_rules(self, tmp_path):
        root = write_tree(tmp_path, {
            "sim/keys.py": """
                def key(net):
                    return id(net)
            """,
            "traffic/load.py": """
                RETRIES = []

                def run_load_experiment(cfg):
                    RETRIES.append(cfg)
            """,
        })
        result = run_lint([root])
        assert {"identity-in-sim", "runtime-global-mutation"} <= \
            {f.rule for f in result.findings}


# ----------------------------------------------------------------------
# Suppressions: multi-line statements and justifications
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_disable_on_statement_first_line_covers_inner_lines(
        self, tmp_path
    ):
        source = """
            def cache_key(net):
                key = (  # lint: disable=identity-in-sim -- net pinned by caller
                    id(net),
                )
                return key
        """
        root = write_tree(tmp_path, {"sim/multi.py": source})
        result = run_lint([root])
        assert result.findings == []
        assert result.suppressed == 1
        # Control: without the comment the same tree is flagged on the
        # inner line, proving the anchor (not the rule) did the work.
        bare = write_tree(tmp_path / "bare", {
            "sim/multi.py": source.replace(
                "  # lint: disable=identity-in-sim -- net pinned by caller",
                "",
            ),
        })
        flagged = run_lint([bare])
        assert [f.rule for f in flagged.findings] == ["identity-in-sim"]
        assert flagged.findings[0].line == 4

    def test_statement_anchor_unit_behavior(self):
        import ast

        source = (
            "x = 1\n"
            "y = (\n"
            "    2,\n"
            "    3,\n"
            ")\n"
        )
        anchors = statement_anchors(ast.parse(source))
        assert anchors[1] == 1
        assert anchors[3] == 2 and anchors[4] == 2
        comments = parse_suppression_comments(
            "x = 1\n"
            "y = (  # lint: disable=some-rule\n"
        )
        assert {n: s.rules for n, s in comments.items()} == \
            {2: frozenset({"some-rule"})}
        assert find_suppression(comments, "some-rule", 3, None) is None
        assert find_suppression(comments, "some-rule", 3, {3: 1}) is None
        assert find_suppression(comments, "some-rule", 3, anchors) == \
            (2, comments[2])

    def test_justification_parsing(self):
        comments = parse_suppression_comments(
            "a = 1  # lint: disable=rule-a,rule-b -- both safe here\n"
            "b = 2  # lint: disable=rule-c\n"
        )
        assert comments[1].rules == frozenset({"rule-a", "rule-b"})
        assert comments[1].justification == "both safe here"
        assert comments[2].justification is None

    def test_unjustified_analyze_suppression_is_a_finding(self, tmp_path):
        root = write_tree(tmp_path, {"sim/keys.py": """
            def cache_key(net):
                return id(net)  # lint: disable=identity-in-sim
        """})
        result = run_lint([root])
        assert [f.rule for f in result.findings] == \
            ["unjustified-suppression"]
        assert result.suppressed == 1

    def test_justified_analyze_suppression_is_clean(self, tmp_path):
        root = write_tree(tmp_path, {"sim/keys.py": """
            def cache_key(net):
                return id(net)  # lint: disable=identity-in-sim -- transient
        """})
        result = run_lint([root])
        assert result.findings == []
        assert result.suppressed == 1


# ----------------------------------------------------------------------
# Epoch-sequence verifier
# ----------------------------------------------------------------------
def ring_topology(chord: bool = False) -> NetworkTopology:
    """A 4-switch ring (one host per switch), optionally with a 0-2 chord."""
    links = [
        SwitchLink(0, PortRef(0, 1), PortRef(1, 1)),
        SwitchLink(1, PortRef(1, 2), PortRef(2, 1)),
        SwitchLink(2, PortRef(2, 2), PortRef(3, 1)),
        SwitchLink(3, PortRef(3, 2), PortRef(0, 2)),
    ]
    if chord:
        links.append(SwitchLink(4, PortRef(0, 3), PortRef(2, 3)))
    return NetworkTopology(4, 4, [PortRef(s, 0) for s in range(4)], links)


def cyclic_up_orientation(topo: NetworkTopology) -> UpDownRouting:
    """A corrupt orientation whose 'up' links run clockwise around the ring."""
    rt = UpDownRouting.build(topo)
    rt._up_end.update({0: 1, 1: 2, 2: 3, 3: 0})  # link id -> up end
    rt._compute_tables()
    return rt


class TestEpochVerifier:
    def test_healthy_sequence_is_proven_at_every_epoch(self):
        topo = ring_topology(chord=True)
        assert verify_epoch_sequence(topo, [4, 1]) == []

    def test_planted_epoch1_cycle_is_detected(self):
        topo = ring_topology(chord=True)

        def builder(current, epoch):
            if epoch == 1:
                return cyclic_up_orientation(current)
            return UpDownRouting.build(current)

        problems = verify_epoch_sequence(
            topo, [4], routing_builder=builder)
        assert problems, "the planted cycle must be detected"
        assert any(
            p.kind == "cdg-cycle" and p.epoch == 1 for p in problems
        )
        assert not any(p.epoch == 0 for p in problems), \
            "epoch 0 used the honest builder and must stay clean"

    def test_disconnecting_fault_is_a_finding(self):
        topo = ring_topology()
        problems = verify_epoch_sequence(topo, [0, 1])
        assert [p.kind for p in problems] == ["disconnect"]
        assert problems[0].epoch == 2

    @staticmethod
    def scenario_with_faults(topo, fault_schedule):
        from repro.fuzz.scenario import FuzzScenario, scheme_spec
        from repro.params import SimParams

        params = SimParams(
            num_nodes=topo.num_nodes,
            num_switches=topo.num_switches,
            ports_per_switch=topo.ports_per_switch,
        )
        return FuzzScenario(
            topo=topo,
            params=params,
            source=0,
            dests=(2, 3),
            schemes=(scheme_spec("tree"),),
            compare_backends=False,
            fault_schedule=fault_schedule,
        )

    def test_scenario_faults_replay_in_fire_time_order(self):
        from repro.fuzz.oracles import verify_scenario_epochs

        scenario = self.scenario_with_faults(
            ring_topology(chord=True), ((50.0, 1), (10.0, 4)))
        assert verify_scenario_epochs(scenario) == []

    def test_scenario_fault_ties_replay_in_injector_order(self):
        # Same-time faults arm in FaultSchedule order, (time, link id): the
        # injector removes link 0 first, so link 2 is the one that would
        # disconnect the diamond -- not link 0, as schedule order says.
        from repro.chaos import FaultSchedule
        from repro.fuzz.oracles import verify_scenario_epochs
        from tests.topo_fixtures import make_diamond

        pairs = ((5.0, 2), (5.0, 0))
        assert [ev.link_id for ev in FaultSchedule.from_pairs(pairs).events] \
            == [0, 2]
        problems = verify_scenario_epochs(
            self.scenario_with_faults(make_diamond(), pairs))
        assert [(p.epoch, p.kind) for p in problems] == [(2, "disconnect")]
        assert problems[0].message().startswith(
            "epoch 2: disconnect: fault on link 2 ")

    def dfs_fixture_topology(self) -> NetworkTopology:
        """A topology whose BFS tree has an edge pointing *up* under DFS
        preorder labels -- legitimate for the dfs orientation, but the
        BFS-subtree witness used to misreport it as a reachability
        violation."""
        from repro.params import SimParams
        from repro.topology.irregular import generate_irregular_topology

        params = SimParams(num_switches=10, num_nodes=8, topology_seed=0)
        return generate_irregular_topology(params, seed=0)

    def test_dfs_orientation_is_verified_with_dfs_witness(self):
        topo = self.dfs_fixture_topology()
        routing = UpDownRouting.build(topo, orientation="dfs")
        tree = routing.tree
        links = {lk.link_id: lk for lk in topo.links}
        assert any(
            routing.is_up_traversal(
                links[tree.parent_link[s]], tree.parent[s])
            for s in range(topo.num_switches) if tree.parent[s] >= 0
        ), "fixture must exercise an up-oriented BFS-tree edge"
        for lk in topo.links:
            assert verify_epoch_sequence(
                topo, [lk.link_id], orientation="dfs") == []

    def test_dfs_witness_detects_corrupt_orientation(self):
        topo = self.dfs_fixture_topology()

        def builder(current, epoch):
            rt = UpDownRouting.build(current, orientation="dfs")
            if epoch == 1:
                lk = current.links[0]
                rt._up_end[lk.link_id] = (
                    lk.b.switch if rt._up_end[lk.link_id] == lk.a.switch
                    else lk.a.switch)
                rt._compute_tables()
            return rt

        problems = verify_epoch_sequence(
            topo, [topo.links[-1].link_id], orientation="dfs",
            routing_builder=builder)
        assert any(
            p.kind == "reachability" and p.epoch == 1
            and "DFS" in p.detail for p in problems
        ), "the flipped up end must contradict the DFS label witness"
        assert not any(p.epoch == 0 for p in problems), \
            "epoch 0 used the honest builder and must stay clean"
