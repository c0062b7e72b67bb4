"""The four workloads of the end-to-end benchmark.

A workload turns ``--seed`` into inputs: set-up generates ``TOPOLOGIES``
irregular topologies, and input pass ``p`` runs on topology ``p`` with draws
(sources, destination sets, arrival seeds) taken from ``(seed, p)``.  A pass
is a fixed list of calls, each one call into a public entry point of
:mod:`repro.traffic` or :mod:`repro.workloads` for one scheme, so every pass
carries the same kind and amount of simulated work, and every pass is a pure
function of the seed.

Each workload also knows how to check a call's output structurally
(completion, exactly-once delivery) and how to render it canonically for
the output digest that ``expected.json`` pins.

Sizes come in two profiles: ``full`` (what the benchmark measures) and
``smoke`` (the same code path scaled down to well under a second a pass,
for the tests).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import repro.topology as topology
import repro.traffic as traffic
import repro.workloads as workloads
from repro.params import SimParams

SCHEMES = ("ni", "tree", "path")
"""The paper's three schemes; every pass runs each of them on the same draws."""

TOPOLOGIES = 4
"""Topologies generated at set-up, one per input pass."""

DRAIN_UNTIL = 1_000_000
"""Simulated cycle up to which a ``run_workload`` call may drain."""


def sub_seed(seed: int, *key: object) -> int:
    """A deterministic sub-seed for one input stream (sha256, never hash())."""
    payload = json.dumps([seed, list(key)], separators=(",", ":"))
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (1 << 62)


@dataclass(frozen=True)
class Call:
    """One timed call into the program, with its inputs already drawn."""

    scheme: str
    label: str
    fn: Callable[[], object]


@dataclass
class State:
    """What set-up leaves for the passes."""

    seed: int
    params: SimParams
    topos: list


class Workload:
    """Common set-up: a params object and a pool of seeded topologies."""

    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, profile: str) -> None:
        self.size = self.sizes[profile]

    def params(self) -> SimParams:
        return SimParams(
            num_switches=self.size["switches"], num_nodes=self.size["nodes"]
        )

    def setup(self, seed: int) -> State:
        params = self.params()
        topos = [
            topology.generate_irregular_topology(
                params, seed=sub_seed(seed, "topology", i)
            )
            for i in range(TOPOLOGIES)
        ]
        return State(seed, params, topos)

    def calls(self, state: State, p: int) -> list[Call]:
        raise NotImplementedError

    def check(self, call: Call, out) -> list[str]:
        """Structural problems with one call's output (empty when fine)."""
        raise NotImplementedError

    def record(self, out) -> str:
        """Canonical text of one call's output, for the digest."""
        raise NotImplementedError

    def ops(self, out) -> int:
        """Simulated multicasts or collectives the call ran (warmup included)."""
        raise NotImplementedError


class Isolated(Workload):
    """Section 4.2: one multicast alone in the network, per call."""

    name = "isolated-256"
    sizes = {
        "full": {"switches": 256, "nodes": 512, "groups": (4, 16, 64)},
        "smoke": {"switches": 32, "nodes": 64, "groups": (4, 16, 32)},
    }

    def calls(self, state: State, p: int) -> list[Call]:
        topo = state.topos[p]
        rng = random.Random(sub_seed(state.seed, "draws", p))
        n = topo.num_nodes
        out = []
        for g in self.size["groups"]:
            source = rng.randrange(n)
            dests = rng.sample([d for d in range(n) if d != source], g)
            for scheme in SCHEMES:
                out.append(Call(
                    scheme, f"g{g}",
                    lambda s=scheme, src=source, ds=dests:
                        traffic.measure_single_multicast(
                            topo, state.params, s, src, ds
                        ),
                ))
        return out

    def check(self, call: Call, out) -> list[str]:
        if not out.complete:
            return ["multicast did not complete"]
        if sorted(out.delivery_times) != sorted(out.dests):
            return ["delivered set differs from the destination set"]
        return []

    def record(self, out) -> str:
        return repr((out.source, out.dests, sorted(out.delivery_times.items())))

    def ops(self, out) -> int:
        return 1


class LoadPaper(Workload):
    """Section 4.3: open-loop Poisson multicast load at the paper's system."""

    name = "load-paper"
    sizes = {
        "full": {"switches": 8, "nodes": 32, "degree": 16,
                 "loads": (0.03, 0.06, 0.09),
                 "duration": 100_000, "warmup": 10_000},
        "smoke": {"switches": 8, "nodes": 32, "degree": 16,
                  "loads": (0.03, 0.09),
                  "duration": 15_000, "warmup": 1_500},
    }

    def calls(self, state: State, p: int) -> list[Call]:
        topo = state.topos[p]
        size = self.size
        out = []
        for load in size["loads"]:
            # One arrival seed per load point, shared by the three schemes
            # so they see the same offered traffic.
            seed = sub_seed(state.seed, "arrivals", p, load)
            for scheme in SCHEMES:
                out.append(Call(
                    scheme, f"load{load}",
                    lambda s=scheme, load=load, seed=seed:
                        traffic.run_load_experiment(
                            topo, state.params, s, size["degree"], load,
                            duration=size["duration"],
                            warmup=size["warmup"], seed=seed,
                        ),
                ))
        return out

    def check(self, call: Call, out) -> list[str]:
        if out.issued == 0:
            return ["no measured operations"]
        if out.completed != out.issued or out.saturated:
            return [f"completed {out.completed}/{out.issued} measured ops"]
        return []

    def record(self, out) -> str:
        return repr(out)

    def ops(self, out) -> int:
        return out.issued + out.warmup_ops


class Collectives(Workload):
    """Open-loop collectives through ``run_workload``.

    The op count per call is fixed: the benchmark draws the Poisson arrival
    schedule itself and sets the admission horizon at the arrival time of op
    ``ops``, so exactly ``ops`` operations are admitted and the host work of
    a call does not swing with the Poisson count.
    """

    kinds: tuple[str, ...] = ()
    faults = 0

    def calls(self, state: State, p: int) -> list[Call]:
        topo = state.topos[p]
        size = self.size
        seed = sub_seed(state.seed, "workload", p)
        count, rate = size["ops"], size["rate"]
        schedule = workloads.arrival_schedule(
            seed, rate=rate, duration=10 * (count + 1) / rate,
            num_nodes=topo.num_nodes, kinds=self.kinds,
        )
        if len(schedule) <= count:
            raise RuntimeError(f"arrival schedule too short for {count} ops")
        duration = schedule[count].time
        warmup = schedule[count // 10].time
        # The default drain is twice the admission horizon, which an early
        # run of arrivals can make shorter than one broadcast; drain until
        # DRAIN_UNTIL instead (the engine stops early once the network is
        # idle, so this costs nothing when every op has completed).
        drain = max(2.0, DRAIN_UNTIL / duration - 1)

        def run(scheme: str):
            report = workloads.run_workload(
                topo, state.params, scheme, seed=seed, rate=rate,
                duration=duration, warmup=warmup, kinds=self.kinds,
                fault_count=self.faults, drain_factor=drain,
            )
            report.to_value()  # what a caller reads off a finished cell
            return report

        return [
            Call(scheme, "mix", lambda s=scheme: run(s)) for scheme in SCHEMES
        ]

    def check(self, call: Call, out) -> list[str]:
        problems = []
        if out.admitted != self.size["ops"]:
            problems.append(f"admitted {out.admitted} ops, not {self.size['ops']}")
        if out.faults_fired != self.faults:
            problems.append(f"{out.faults_fired}/{self.faults} faults fired")
        if out.gave_up:
            problems.append(f"{out.gave_up} reliable sends gave up")
        nodes = self.size["nodes"]
        for rec in out.records:
            if not rec.complete:
                problems.append(f"op {rec.index} ({rec.kind}) did not complete")
            elif rec.delivered != _DELIVERED[rec.kind](nodes):
                problems.append(
                    f"op {rec.index} ({rec.kind}) delivered to "
                    f"{rec.delivered} nodes"
                )
        return problems

    def record(self, out) -> str:
        return out.digest()

    def ops(self, out) -> int:
        return out.admitted


_DELIVERED = {
    # Per-node completions one collective reports: every node but the root
    # receives a broadcast or an allreduce result; a barrier also releases
    # the root itself.
    "broadcast": lambda n: n - 1,
    "allreduce": lambda n: n - 1,
    "barrier": lambda n: n,
}


class CollectiveMix(Collectives):
    name = "collective-mix"
    kinds = ("broadcast", "allreduce", "barrier")
    sizes = {
        "full": {"switches": 8, "nodes": 32, "rate": 1e-4, "ops": 100},
        "smoke": {"switches": 8, "nodes": 32, "rate": 1e-4, "ops": 12},
    }


class Faulted(Collectives):
    name = "faulted-128"
    kinds = ("broadcast",)
    faults = 2
    sizes = {
        "full": {"switches": 128, "nodes": 256, "rate": 1e-4, "ops": 4},
        "smoke": {"switches": 32, "nodes": 64, "rate": 1e-4, "ops": 4},
    }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Isolated, LoadPaper, CollectiveMix, Faulted)
}
