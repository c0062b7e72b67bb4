"""Epoch-sequence model verifier: safety at *every* routing epoch.

The model rules in :mod:`repro.lint.model_rules` verify one (topology,
routing) instance -- epoch 0.  A chaos :class:`FaultSchedule`, however,
walks the system through a *sequence* of epochs: each fault removes a link,
Autonet-style reconfiguration rebuilds the up*/down* orientation, and every
in-flight retry then runs on the new tables.  A schedule is only safe if
the multicast-extended channel dependency graph stays acyclic and the
reachability strings stay consistent with the orientation's own witness
(BFS subtrees for Autonet's rule, preorder labels for DFS) at **each**
epoch, not just the first.

This verifier replays a fault schedule purely statically: degrade the
topology link by link, rebuild :class:`UpDownRouting` +
:class:`ReachabilityTable` exactly as :meth:`SimNetwork.reconfigure` would,
and re-prove both invariants per epoch.  It has three callers:

* ``repro-lint --corpus`` over the committed fuzz/chaos corpora (CI),
* the fuzz harness's ``epoch-static`` oracle before each dynamic replay,
* tests, which inject a corrupting ``routing_builder`` to prove the
  verifier actually detects a planted epoch-1 cycle.

No :mod:`repro.lint` import here -- the fuzz package consumes this module
and must not drag the lint registry into scenario replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.routing.invariants import cdg_problems, reachability_problems
from repro.routing.reachability import ReachabilityTable
from repro.routing.updown import UpDownRouting
from repro.topology.faults import remove_link
from repro.topology.graph import NetworkTopology

RoutingBuilder = Callable[[NetworkTopology, int], UpDownRouting]
"""``(degraded_topo, epoch) -> routing`` -- injectable so tests can plant a
corrupt orientation at a chosen epoch."""


@dataclass(frozen=True)
class EpochProblem:
    """One invariant violation at one routing epoch."""

    epoch: int
    kind: str
    """``cdg-cycle``, ``reachability``, or ``disconnect``."""

    detail: str

    def message(self) -> str:
        return f"epoch {self.epoch}: {self.kind}: {self.detail}"


def _default_builder(orientation: str) -> RoutingBuilder:
    def build(topo: NetworkTopology, epoch: int) -> UpDownRouting:
        return UpDownRouting.build(topo, orientation=orientation)
    return build


def _check_epoch(
    topo: NetworkTopology,
    routing: UpDownRouting,
    epoch: int,
    orientation: str = "bfs",
) -> list[EpochProblem]:
    reach = ReachabilityTable.build(routing)
    return [
        EpochProblem(epoch=epoch, kind=kind, detail=detail)
        for kind, details in (
            ("cdg-cycle", cdg_problems(topo, routing)),
            ("reachability", reachability_problems(reach, orientation)),
        )
        for detail in details
    ]


def verify_epoch_sequence(
    topo: NetworkTopology,
    fault_links: tuple[int, ...] | list[int],
    orientation: str = "bfs",
    routing_builder: RoutingBuilder | None = None,
) -> list[EpochProblem]:
    """Statically replay a fault sequence; prove both invariants per epoch.

    Epoch 0 is the intact topology; epoch ``k`` is after the first ``k``
    faults, rebuilt with ``routing_builder`` (default: the same
    :meth:`UpDownRouting.build` call :meth:`SimNetwork.reconfigure` makes).
    A fault that would disconnect the switch graph is itself a finding
    (the chaos layer could never absorb it), and replay stops there.

    Returns the (possibly empty) problem list; empty means the whole
    sequence is proven safe.
    """
    builder = routing_builder or _default_builder(orientation)
    problems: list[EpochProblem] = []
    current = topo
    for epoch in range(len(fault_links) + 1):
        problems.extend(
            _check_epoch(current, builder(current, epoch), epoch, orientation)
        )
        if epoch == len(fault_links):
            break
        link_id = fault_links[epoch]
        try:
            current = remove_link(current, link_id)
        except ValueError as exc:
            problems.append(EpochProblem(
                epoch=epoch + 1, kind="disconnect",
                detail=f"fault on link {link_id} is not absorbable: {exc}",
            ))
            break
    return problems


def verify_scenario_epochs(scenario) -> list[EpochProblem]:
    """Verify a :class:`FuzzScenario`'s fault schedule epoch by epoch.

    Links fail in fire-time order (ties keep schedule order), matching the
    chaos :class:`FaultInjector`'s arming semantics.  Scenarios without a
    schedule still get their epoch-0 proof.
    """
    ordered = sorted(
        range(len(scenario.fault_schedule)),
        key=lambda i: (scenario.fault_schedule[i][0], i),
    )
    links = [scenario.fault_schedule[i][1] for i in ordered]
    return verify_epoch_sequence(
        scenario.topo, links, orientation=scenario.params.routing_tree,
    )
