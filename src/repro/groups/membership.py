"""Group membership with churn-time plan upkeep.

:class:`MulticastGroup` owns validation and cache hygiene (invalidation is
a keyed discard of exactly the group's own plans, never a cache-wide
wipe) and keeps the group's switch-side state in step with membership,
by repair kind (:func:`repair_kind`) --

* **path plans are patched: joins graft, leaves prune.**  Multi-drop
  path plans are patched in place via :mod:`repro.groups.repair`; a
  full replan happens only when the patch would break up*/down*
  legality (checked with the scheme's own static verifier on every
  patch) or exceed the quality bound: a patched plan whose per-member
  cost drifts past ``quality_bound`` times the per-member cost at the
  last full replan is thrown away and replanned fresh.
* **tree plans are replanned.**  Every membership change recomputes the
  tree worms (header-capped or not); the group only meters the result
  (cost, switch footprint), while :meth:`TreeWormScheme.execute` plans
  the same worms itself at send time.
* **NI-based schemes patch for free.**  Binomial/k-binomial state is a
  host-memory member list; joins and leaves are O(1) updates with no
  switch state to repair -- the NI side of the paper's question.
* **reconfigurations invalidate plans, not groups.**  Every plan is
  stamped with the :attr:`~repro.sim.network.SimNetwork.routing_epoch`
  it was built under.  A chaos-layer reconfiguration bumps the epoch;
  the next membership change or send notices the stale stamp and
  replans on the new orientation -- membership itself survives.
* **switch table charging.**  When a :class:`SwitchMulticastTables`
  ledger is attached, every (re)planned footprint installs entries and
  every send touches them, so bounded-capacity effects (evictions,
  reinstall misses, aggregation) accrue to the switch-based schemes
  only.

Accepted path patches are *installed* into the scheme's plan cache under
the group's own key, so :meth:`MulticastGroup.send` runs the ordinary
execute path and simply finds the repaired plan where a freshly computed
one would sit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.groups.repair import (
    graft_path_plan,
    path_footprint,
    path_plan_cost,
    prune_path_plan,
    tree_cost_footprint,
)
from repro.groups.tables import SwitchMulticastTables
from repro.multicast import make_scheme
from repro.multicast.base import MulticastResult, MulticastScheme
from repro.multicast.pathworm import PathWormScheme, verify_plan
from repro.multicast.treeworm import TreeWormScheme, plan_tree_worm
from repro.sim.network import SimNetwork

DEFAULT_QUALITY_BOUND = 1.5
"""Replan when a patched path plan's per-member cost exceeds this
multiple of the per-member cost measured at the last full replan."""


def repair_kind(scheme: MulticastScheme) -> str:
    """How a scheme's plans follow membership churn.

    ``"path"`` -- multi-drop path plans patched via
    :mod:`repro.groups.repair`; ``"tree"`` -- tree worms (header-capped
    or not), replanned on every change; ``"stateless"`` -- NI-based
    schemes whose per-group state is a host-side member list (patches
    are trivial and free).
    """
    if isinstance(scheme, PathWormScheme):
        return "path"
    if isinstance(scheme, TreeWormScheme):
        return "tree"
    return "stateless"


@dataclass
class RepairStats:
    """What a group did in response to membership churn."""

    grafts: int = 0
    prunes: int = 0
    replans: int = 0
    """Membership changes that fell back to a full replan (every change
    of a tree group; for path groups the number the 20%-of-churn
    acceptance bound constrains, sub-classified below)."""

    legality_replans: int = 0
    quality_replans: int = 0
    epoch_replans: int = 0
    """Replans forced because a reconfiguration invalidated the patched
    plan's routing epoch before the membership change landed."""

    send_refreshes: int = 0
    """Replans at send time after an epoch bump (no membership change)."""

    verify_failures: int = 0
    """Patches the static verifier rejected (each also counts one
    legality replan; nonzero means a repair function produced an illegal
    plan -- worth investigating, never worth delivering)."""

    @property
    def membership_changes(self) -> int:
        return self.grafts + self.prunes + self.replans

    @property
    def replan_fraction(self) -> float:
        changes = self.membership_changes
        return self.replans / changes if changes else 0.0

    def as_dict(self) -> dict:
        return {
            "grafts": self.grafts,
            "prunes": self.prunes,
            "replans": self.replans,
            "legality_replans": self.legality_replans,
            "quality_replans": self.quality_replans,
            "epoch_replans": self.epoch_replans,
            "send_refreshes": self.send_refreshes,
            "verify_failures": self.verify_failures,
            "replan_fraction": self.replan_fraction,
        }


@dataclass
class PlanState:
    """The live plan of a group, stamped with its routing epoch."""

    plan: object
    """A path group's :class:`MulticastPathPlan`, or a tree group's
    per-chunk tuple of :class:`TreeWormPlan`."""

    epoch: int
    cost: int
    footprint: tuple[int, ...]
    baseline_cost: int
    baseline_size: int
    """(cost, member count) at the last full replan: the quality bound
    compares patched per-member cost against this baseline, so accepting
    a patch needs no fresh plan to compare against."""


class MulticastGroup:
    """One registered group: a root, members, and its live plan."""

    def __init__(
        self,
        net: SimNetwork,
        group_id: int,
        root: int,
        members: list[int],
        scheme: MulticastScheme,
        *,
        quality_bound: float = DEFAULT_QUALITY_BOUND,
        repair: bool = True,
        tables: SwitchMulticastTables | None = None,
    ) -> None:
        if quality_bound < 1.0:
            raise ValueError("quality_bound must be >= 1.0")
        self.net = net
        self.group_id = group_id
        self.root = root
        self.scheme = scheme
        self._members: set[int] = set()
        for m in members:
            self._validate_node(m)
            self._members.add(m)
        self._validate_node(root)
        if root in self._members:
            raise ValueError("root is implicitly a member; do not list it")
        if not self._members:
            raise ValueError("group needs at least one non-root member")
        # Cached sorted view: send() is O(1) in membership, not O(n log n);
        # refreshed only when membership actually changes.
        self._sorted_members: tuple[int, ...] = tuple(sorted(self._members))
        self.sends = 0
        self.quality_bound = float(quality_bound)
        self.repair_enabled = repair
        self.stats = RepairStats()
        self._kind = repair_kind(scheme)
        self.tables = tables if self._kind != "stateless" else None
        self._state: PlanState | None = None
        if self._kind != "stateless":
            self._replan(count=False)

    def _validate_node(self, node: int) -> None:
        if not 0 <= node < self.net.topo.num_nodes:
            raise ValueError(f"node {node} out of range")

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def members(self) -> frozenset[int]:
        """Current non-root members."""
        return frozenset(self._members)

    def join(self, node: int) -> None:
        """Add a member; the plan is patched or replanned."""
        self._validate_node(node)
        if node == self.root:
            raise ValueError("root is already in the group")
        if node in self._members:
            raise ValueError(f"node {node} already a member")
        self._members.add(node)
        self._membership_changed(added=node, removed=None)

    def leave(self, node: int) -> None:
        """Remove a member; the plan is patched or replanned.

        Validation happens *before* mutation: a rejected leave (unknown
        node, or the last remaining member) leaves membership untouched.
        """
        if node not in self._members:
            raise ValueError(f"node {node} not a member")
        if len(self._members) == 1:
            raise ValueError("cannot remove the last member")
        self._members.remove(node)
        self._membership_changed(added=None, removed=node)

    def _membership_changed(
        self, added: int | None, removed: int | None
    ) -> None:
        previous = self._sorted_members
        self._sorted_members = tuple(sorted(self._members))
        # Keyed discard of exactly this group's cached plans (across every
        # epoch): other groups sharing the scheme instance keep theirs, and
        # shared network-wide tables (down-distance) survive untouched.
        self.scheme.discard_group_plans(self.net, self.root, previous)
        if self._kind == "stateless":
            # NI-side state is a host-memory member list; the "patch" is
            # the membership update that already happened.
            if added is not None:
                self.stats.grafts += 1
            else:
                self.stats.prunes += 1
            return
        if self._kind == "tree" or not self.repair_enabled:
            self._replan()
            return
        if self._state.epoch != self.net.routing_epoch:
            # A reconfiguration invalidated the patched plan -- not the
            # group: replan once on the new orientation and carry on.
            self.stats.epoch_replans += 1
            self._replan()
            return
        if added is not None:
            patched = graft_path_plan(
                self.net, self._state.plan, self.root, added,
                strategy=self.scheme.strategy,
            )
        else:
            patched = prune_path_plan(
                self.net, self._state.plan, self.root, removed,
                strategy=self.scheme.strategy,
            )
        if patched is None:
            self.stats.legality_replans += 1
            self._replan()
            return
        if verify_plan(
            self.net.topo, self.net.routing, self.root,
            list(self._sorted_members), patched,
        ):
            self.stats.verify_failures += 1
            self.stats.legality_replans += 1
            self._replan()
            return
        cost = path_plan_cost(patched)
        base = self._state
        if (
            base.baseline_cost > 0
            and cost * base.baseline_size
            > self.quality_bound * base.baseline_cost
            * len(self._sorted_members)
        ):
            self.stats.quality_replans += 1
            self._replan()
            return
        self._state = PlanState(
            plan=patched,
            epoch=self.net.routing_epoch,
            cost=cost,
            footprint=path_footprint(patched),
            baseline_cost=base.baseline_cost,
            baseline_size=base.baseline_size,
        )
        self._install_path(patched)
        self._charge_tables()
        if added is not None:
            self.stats.grafts += 1
        else:
            self.stats.prunes += 1

    def _replan(self, count: bool = True) -> None:
        if count:
            self.stats.replans += 1
        dests = list(self._sorted_members)
        if self._kind == "path":
            plan = self.scheme.plan(self.net, self.root, dests)
            cost, footprint = path_plan_cost(plan), path_footprint(plan)
        else:
            plan, cost, footprint = self._plan_tree(dests)
        self._state = PlanState(
            plan=plan,
            epoch=self.net.routing_epoch,
            cost=cost,
            footprint=footprint,
            baseline_cost=cost,
            baseline_size=len(dests),
        )
        if self._kind == "path":
            self._install_path(plan)
        self._charge_tables()

    def _plan_tree(self, dests: list[int]):
        """Per-chunk tree plans, with cost summed and footprint unioned.

        The same chunks and worms :meth:`TreeWormScheme.execute` plans at
        send time, on the same per-epoch down distances of the routing.
        """
        net = self.net
        source_switch = net.topo.switch_of_node(self.root)
        plans = []
        cost = 0
        switches: set[int] = set()
        for chunk in self.scheme.chunk_dests(net, self.root, dests):
            plan = plan_tree_worm(net, source_switch, chunk)
            c, footprint = tree_cost_footprint(net, plan, chunk)
            plans.append(plan)
            cost += c
            switches.update(footprint)
        return tuple(plans), cost, tuple(sorted(switches))

    def _install_path(self, plan) -> None:
        """Plant a path plan in the scheme cache where execute() looks."""
        self.scheme.install_plan(
            self.net, ("mdp", self.root, self._sorted_members), plan
        )

    def _charge_tables(self) -> None:
        if self.tables is not None:
            self.tables.install(self.group_id, self._state.footprint)

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def send(
        self,
        on_complete: Callable[[MulticastResult], None] | None = None,
    ) -> MulticastResult:
        """Multicast one message from the root to the current members."""
        if (
            self._state is not None
            and self._state.epoch != self.net.routing_epoch
        ):
            # Reconfigured since the plan was built: refresh it (the
            # epoch-keyed scheme cache would miss anyway; this keeps the
            # group's cost/footprint ledger in step with what runs).
            self.stats.send_refreshes += 1
            self._replan(count=False)
        if self.tables is not None:
            self.tables.touch(self.group_id, self._state.footprint)
        self.sends += 1
        return self.scheme.execute(
            self.net, self.root, list(self._sorted_members), on_complete
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def plan_cost(self) -> int | None:
        """Static cost of the live plan (None for NI-based schemes)."""
        return self._state.cost if self._state is not None else None

    @property
    def plan_footprint(self) -> tuple[int, ...] | None:
        return self._state.footprint if self._state is not None else None

    @property
    def plan_epoch(self) -> int | None:
        return self._state.epoch if self._state is not None else None


class GroupManager:
    """Registry of multicast groups on one network.

    Groups requesting the same ``(scheme name, keyword)`` spec share one
    scheme instance -- and therefore one plan cache -- which is what makes
    keyed invalidation matter: one group's churn discards only its own
    entries, and its neighbours' cached plans survive.

    ``table_capacity``/``table_policy`` attach one shared
    :class:`SwitchMulticastTables` ledger; switch-supported groups charge
    it, NI-based groups never touch it.
    """

    def __init__(
        self,
        net: SimNetwork,
        default_scheme: str = "tree",
        *,
        table_capacity: int | None = None,
        table_policy: str = "lru",
    ) -> None:
        self.net = net
        self.default_scheme = default_scheme
        self._groups: dict[int, MulticastGroup] = {}
        self._schemes: dict[tuple, MulticastScheme] = {}
        self._next_id = 0
        self.tables: SwitchMulticastTables | None = None
        if table_capacity is not None:
            self.tables = SwitchMulticastTables(
                net.topo.num_switches, table_capacity, policy=table_policy
            )

    def _scheme_for(self, name: str, scheme_kw: dict) -> MulticastScheme:
        key = (name, tuple(sorted(scheme_kw.items())))
        scheme = self._schemes.get(key)
        if scheme is None:
            scheme = make_scheme(name, **scheme_kw)
            scheme.enable_plan_cache()
            self._schemes[key] = scheme
        return scheme

    def create(
        self,
        root: int,
        members: list[int],
        scheme_name: str | None = None,
        *,
        quality_bound: float = DEFAULT_QUALITY_BOUND,
        repair: bool = True,
        **scheme_kw,
    ) -> MulticastGroup:
        """Register a group; returns the handle (ids are never reused)."""
        scheme = self._scheme_for(
            scheme_name or self.default_scheme, scheme_kw
        )
        group = MulticastGroup(
            self.net, self._next_id, root, members, scheme,
            quality_bound=quality_bound,
            repair=repair,
            tables=self.tables,
        )
        self._groups[self._next_id] = group
        self._next_id += 1
        return group

    def get(self, group_id: int) -> MulticastGroup:
        try:
            return self._groups[group_id]
        except KeyError:
            raise ValueError(f"no group {group_id}")

    def destroy(self, group_id: int) -> None:
        """Unregister a group, releasing its table entries and plans."""
        group = self.get(group_id)
        del self._groups[group_id]
        if group.tables is not None:
            group.tables.release(group_id)
        group.scheme.discard_group_plans(
            self.net, group.root, group._sorted_members
        )

    def __len__(self) -> int:
        return len(self._groups)
