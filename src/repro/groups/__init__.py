"""Multicast groups: membership churn with incremental path-plan repair.

The membership lifecycle (:mod:`repro.groups.membership`), the
graft/prune path-plan surgery and plan cost accounting
(:mod:`repro.groups.repair`), the bounded per-switch multicast-table
model (:mod:`repro.groups.tables`), and the seeded churn driver with its
patched-vs-replanned paired harness (:mod:`repro.groups.churn`).  See
docs/groups.md.
"""

from repro.groups.churn import (
    ChurnEvent,
    ChurnReport,
    churn_stream,
    run_paired_churn,
)
from repro.groups.membership import (
    DEFAULT_QUALITY_BOUND,
    GroupManager,
    MulticastGroup,
    PlanState,
    RepairStats,
    repair_kind,
)
from repro.groups.repair import (
    graft_path_plan,
    path_footprint,
    path_plan_cost,
    prune_path_plan,
    tree_cost_footprint,
)
from repro.groups.tables import POLICIES, SwitchMulticastTables, TableStats

__all__ = [
    "ChurnEvent",
    "ChurnReport",
    "churn_stream",
    "run_paired_churn",
    "DEFAULT_QUALITY_BOUND",
    "GroupManager",
    "MulticastGroup",
    "PlanState",
    "RepairStats",
    "repair_kind",
    "graft_path_plan",
    "path_footprint",
    "path_plan_cost",
    "prune_path_plan",
    "tree_cost_footprint",
    "POLICIES",
    "SwitchMulticastTables",
    "TableStats",
]
