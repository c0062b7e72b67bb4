"""Group membership with incremental plan repair under churn.

The static :class:`MulticastGroup` / :class:`GroupManager` lifecycle
lives here (with its invalidation narrowed from cache-wide wipes to keyed discards
of exactly the group's own plans), and :class:`DynamicGroup` adds the
churn story --

* **joins graft, leaves prune.**  Switch-supported plans (tree worms,
  multi-drop paths) are patched in place via :mod:`repro.groups.repair`;
  a full replan happens only when the patch would break up*/down*
  legality (checked with the schemes' own static verifiers on every
  patch) or exceed the quality bound: a patched plan whose per-member
  cost drifts past ``quality_bound`` times the per-member cost at the
  last full replan is thrown away and replanned fresh.
* **NI-based schemes patch for free.**  Binomial/k-binomial state is a
  host-memory member list; joins and leaves are O(1) updates with no
  switch state to repair -- the NI side of the paper's question.
* **reconfigurations invalidate patches, not groups.**  Every repaired
  plan is stamped with the :attr:`~repro.sim.network.SimNetwork.routing_epoch`
  it was built under.  A chaos-layer reconfiguration bumps the epoch;
  the next membership change or send notices the stale stamp and
  replans on the new orientation -- membership itself survives.
* **switch table charging.**  When a :class:`SwitchMulticastTables`
  ledger is attached, every (re)planned footprint installs entries and
  every send touches them, so bounded-capacity effects (evictions,
  reinstall misses, aggregation coarseness) accrue to the switch-based
  schemes only.

Accepted patches are *installed* into the scheme's plan cache under the
group's own key, so :meth:`MulticastGroup.send` runs the ordinary
execute path and simply finds the repaired plan where a freshly
computed one would sit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.groups.repair import (
    graft_path_plan,
    graft_tree_plan,
    path_footprint,
    path_plan_cost,
    prune_path_plan,
    prune_tree_plan,
    tree_cost_footprint,
)
from repro.groups.tables import SwitchMulticastTables
from repro.multicast import make_scheme
from repro.multicast.base import MulticastResult, MulticastScheme
from repro.multicast.pathworm import PathWormScheme, verify_plan
from repro.multicast.treeworm import (
    TreeWormScheme,
    _down_distance_table,
    plan_tree_worm,
    verify_tree_plan,
)
from repro.sim.network import SimNetwork

DEFAULT_QUALITY_BOUND = 1.5
"""Replan when a patched plan's per-member cost exceeds this multiple of
the per-member cost measured at the last full replan."""


def repair_kind(scheme: MulticastScheme) -> str:
    """How a scheme's plans can be repaired under membership churn.

    ``"path"`` / ``"tree"`` -- switch-supported plans patched via
    :mod:`repro.groups.repair`; ``"stateless"`` -- NI-based schemes whose
    per-group state is a host-side member list (patches are trivial and
    free); ``"replan"`` -- plans this layer cannot patch (e.g. the
    header-capped tree variant, whose chunking reshuffles wholesale on
    any membership change) and therefore recomputes every time.
    """
    if isinstance(scheme, PathWormScheme):
        return "path"
    if isinstance(scheme, TreeWormScheme):
        return "tree" if scheme.max_header_dests is None else "replan"
    return "stateless"


class MulticastGroup:
    """One registered group: a root, members, and cached plans."""

    def __init__(
        self,
        net: SimNetwork,
        group_id: int,
        root: int,
        members: list[int],
        scheme: MulticastScheme,
    ) -> None:
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
        """Add a member; invalidates cached plans."""
        self._validate_node(node)
        if node == self.root:
            raise ValueError("root is already in the group")
        if node in self._members:
            raise ValueError(f"node {node} already a member")
        self._members.add(node)
        self._membership_changed(added=node, removed=None)

    def leave(self, node: int) -> None:
        """Remove a member; invalidates cached plans.

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
        self._invalidate(previous)

    def _invalidate(self, previous: tuple[int, ...]) -> None:
        # Keyed discard of exactly this group's cached plans (across every
        # epoch): other groups sharing the scheme instance keep theirs, and
        # shared network-wide tables (down-distance) survive untouched.
        self.scheme.discard_group_plans(self.net, self.root, previous)

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def send(
        self,
        on_complete: Callable[[MulticastResult], None] | None = None,
    ) -> MulticastResult:
        """Multicast one message from the root to the current members."""
        self.sends += 1
        return self.scheme.execute(
            self.net, self.root, list(self._sorted_members), on_complete
        )


class GroupManager:
    """Registry of multicast groups on one network.

    Groups requesting the same ``(scheme name, keyword)`` spec share one
    scheme instance -- and therefore one plan cache -- which is what makes
    keyed invalidation matter: one group's churn discards only its own
    entries, and its neighbours' cached plans survive.
    """

    _group_cls: type[MulticastGroup] = MulticastGroup

    def __init__(self, net: SimNetwork, default_scheme: str = "tree") -> None:
        self.net = net
        self.default_scheme = default_scheme
        self._groups: dict[int, MulticastGroup] = {}
        self._schemes: dict[tuple, MulticastScheme] = {}
        self._next_id = 0

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
        **scheme_kw,
    ) -> MulticastGroup:
        """Register a group; returns the handle (ids are never reused)."""
        scheme = self._scheme_for(
            scheme_name or self.default_scheme, scheme_kw
        )
        group = self._group_cls(
            self.net, self._next_id, root, members, scheme
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
        """Unregister a group, discarding its cached plans."""
        if group_id not in self._groups:
            raise ValueError(f"no group {group_id}")
        group = self._groups.pop(group_id)
        group.scheme.discard_group_plans(
            self.net, group.root, group._sorted_members
        )

    def __len__(self) -> int:
        return len(self._groups)


# ----------------------------------------------------------------------
# Dynamic groups: churn-time plan repair
# ----------------------------------------------------------------------
@dataclass
class RepairStats:
    """What a dynamic group did in response to membership churn."""

    grafts: int = 0
    prunes: int = 0
    replans: int = 0
    """Membership changes that fell back to a full replan (the number the
    20%-of-churn acceptance bound constrains; sub-classified below)."""

    legality_replans: int = 0
    quality_replans: int = 0
    epoch_replans: int = 0
    """Replans forced because a reconfiguration invalidated the patched
    plan's routing epoch before the membership change landed."""

    send_refreshes: int = 0
    """Replans at send time after an epoch bump (no membership change)."""

    verify_failures: int = 0
    """Patches the static verifiers rejected (each also counts one
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
    """The live plan of a dynamic group, stamped with its routing epoch."""

    plan: object
    epoch: int
    cost: int
    footprint: tuple[int, ...]
    baseline_cost: int
    baseline_size: int
    """(cost, member count) at the last full replan: the quality bound
    compares patched per-member cost against this baseline, so accepting
    a patch needs no fresh plan to compare against."""

    problems: tuple[str, ...] = field(default=())
    """Verifier output for the *current* plan (always empty for accepted
    plans; kept for observability in tests)."""


class DynamicGroup(MulticastGroup):
    """A multicast group whose plan is repaired, not replanned, on churn."""

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
        self.quality_bound = float(quality_bound)
        self.repair_enabled = repair
        self.stats = RepairStats()
        self._kind = repair_kind(scheme)
        self.tables = tables if self._kind in ("path", "tree") else None
        self._state: PlanState | None = None
        super().__init__(net, group_id, root, members, scheme)
        if self._kind in ("path", "tree"):
            self._replan(count=False)

    # ------------------------------------------------------------------
    # Churn handling
    # ------------------------------------------------------------------
    def _membership_changed(
        self, added: int | None, removed: int | None
    ) -> None:
        previous = self._sorted_members
        self._sorted_members = tuple(sorted(self._members))
        self._invalidate(previous)
        if self._kind == "stateless":
            # NI-side state is a host-memory member list; the "patch" is
            # the membership update that already happened.
            if added is not None:
                self.stats.grafts += 1
            else:
                self.stats.prunes += 1
            return
        if self._kind == "replan" or not self.repair_enabled:
            self._replan()
            return
        if self._state is None:
            self._replan()
            return
        if self._state.epoch != self.net.routing_epoch:
            # A reconfiguration invalidated the patched plan -- not the
            # group: replan once on the new orientation and carry on.
            self.stats.epoch_replans += 1
            self._replan()
            return
        patched = self._patch(added, removed)
        if patched is None:
            self.stats.legality_replans += 1
            self._replan()
            return
        problems = self._verify(patched)
        if problems:
            self.stats.verify_failures += 1
            self.stats.legality_replans += 1
            self._replan()
            return
        cost, footprint = self._measure(patched)
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
            footprint=footprint,
            baseline_cost=base.baseline_cost,
            baseline_size=base.baseline_size,
        )
        self._install(patched)
        self._charge_tables()
        if added is not None:
            self.stats.grafts += 1
        else:
            self.stats.prunes += 1

    def _patch(self, added: int | None, removed: int | None):
        assert self._state is not None
        if self._kind == "path":
            if added is not None:
                return graft_path_plan(
                    self.net, self._state.plan, self.root, added,
                    strategy=self.scheme.strategy,
                )
            return prune_path_plan(
                self.net, self._state.plan, self.root, removed,
                strategy=self.scheme.strategy,
            )
        if added is not None:
            return graft_tree_plan(
                self.net, self._state.plan, self._sorted_members
            )
        return prune_tree_plan(self._state.plan)

    def _verify(self, plan) -> list[str]:
        if self._kind == "path":
            return verify_plan(
                self.net.topo, self.net.routing, self.root,
                list(self._sorted_members), plan,
            )
        return verify_tree_plan(self.net, plan, list(self._sorted_members))

    def _measure(self, plan) -> tuple[int, tuple[int, ...]]:
        if self._kind == "path":
            return path_plan_cost(plan), path_footprint(plan)
        return tree_cost_footprint(
            self.net, self._down_dist(), plan, list(self._sorted_members)
        )

    def _down_dist(self) -> dict[int, dict[int, int]]:
        # Shared with the execute path: same cache key, same table.
        return self.scheme._cached_plan(
            self.net, ("downdist",), lambda: _down_distance_table(self.net)
        )

    def _replan(self, count: bool = True) -> None:
        if count:
            self.stats.replans += 1
        if self._kind not in ("path", "tree"):
            self._state = None
            return
        dests = list(self._sorted_members)
        if self._kind == "path":
            plan = self.scheme.plan(self.net, self.root, dests)
        else:
            plan = plan_tree_worm(
                self.net, self.net.topo.switch_of_node(self.root), dests
            )
        cost, footprint = self._measure(plan)
        self._state = PlanState(
            plan=plan,
            epoch=self.net.routing_epoch,
            cost=cost,
            footprint=footprint,
            baseline_cost=cost,
            baseline_size=len(dests),
        )
        self._install(plan)
        self._charge_tables()

    def _install(self, plan) -> None:
        """Plant the plan in the scheme cache where execute() will look."""
        dests = self._sorted_members
        if self._kind == "path":
            self.scheme.install_plan(
                self.net, ("mdp", self.root, dests), plan
            )
            return
        steer = self.scheme.make_steer(
            self.net, plan, list(dests), self._down_dist()
        )
        self.scheme.install_plan(
            self.net, ("chunks", self.root, dests), [list(dests)]
        )
        self.scheme.install_plan(
            self.net, ("worm", self.root, dests), (plan, steer)
        )

    def _charge_tables(self) -> None:
        if self.tables is not None and self._state is not None:
            self.tables.install(self.group_id, self._state.footprint)

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def send(
        self,
        on_complete: Callable[[MulticastResult], None] | None = None,
    ) -> MulticastResult:
        if (
            self._state is not None
            and self._state.epoch != self.net.routing_epoch
        ):
            # Reconfigured since the plan was built: refresh it (the
            # epoch-keyed scheme cache would miss anyway; this keeps the
            # group's cost/footprint ledger in step with what runs).
            self.stats.send_refreshes += 1
            self._replan(count=False)
        if self.tables is not None and self._state is not None:
            self.tables.touch(self.group_id, self._state.footprint)
        return super().send(on_complete)

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


class DynamicGroupManager(GroupManager):
    """Group registry with churn repair and optional table capacity.

    ``table_capacity``/``table_policy`` attach one shared
    :class:`SwitchMulticastTables` ledger; switch-supported groups charge
    it, NI-based groups never touch it.
    """

    _group_cls = DynamicGroup

    def __init__(
        self,
        net: SimNetwork,
        default_scheme: str = "tree",
        *,
        table_capacity: int | None = None,
        table_policy: str = "lru",
    ) -> None:
        super().__init__(net, default_scheme=default_scheme)
        self.tables: SwitchMulticastTables | None = None
        if table_capacity is not None:
            self.tables = SwitchMulticastTables(
                net.topo.num_switches, table_capacity, policy=table_policy
            )

    def create(
        self,
        root: int,
        members: list[int],
        scheme_name: str | None = None,
        *,
        quality_bound: float = DEFAULT_QUALITY_BOUND,
        repair: bool = True,
        **scheme_kw,
    ) -> DynamicGroup:
        scheme = self._scheme_for(
            scheme_name or self.default_scheme, scheme_kw
        )
        group = DynamicGroup(
            self.net, self._next_id, root, members, scheme,
            quality_bound=quality_bound,
            repair=repair,
            tables=self.tables,
        )
        self._groups[self._next_id] = group
        self._next_id += 1
        return group

    def destroy(self, group_id: int) -> None:
        group = self.get(group_id)
        if isinstance(group, DynamicGroup) and group.tables is not None:
            group.tables.release(group_id)
        super().destroy(group_id)
