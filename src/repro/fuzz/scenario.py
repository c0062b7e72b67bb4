"""The fuzz scenario: one self-contained differential test case.

A :class:`FuzzScenario` bundles everything one oracle pass needs -- the
exact topology (embedded, not regenerated, so corpus entries survive any
future change to the topology generator), the simulation parameters, the
multicast operation (source, destination set), the scheme roster to run and
cross-compare, and whether the static-route cross-backend check applies.

Scenarios are plain data: they round-trip through JSON (via
:mod:`repro.topology.serialization`), hash stably (sha256 over canonical
JSON, the same contract the experiment runner uses for cell seeds), and can
be shrunk structurally by the minimizer without consulting the generator.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

from repro.multicast import SCHEMES
from repro.params import SimParams
from repro.topology.graph import NetworkTopology
from repro.topology.serialization import topology_from_dict, topology_to_dict
from repro.workloads.arrivals import derive_seed

FORMAT_VERSION = 1
"""Corpus/scenario JSON format version."""

SchemeSpec = tuple[str, tuple[tuple[str, object], ...]]
"""(scheme registry name, sorted keyword tuple), e.g. ``("path", (("strategy", "greedy"),))``."""


def scheme_spec(name: str, **kw: object) -> SchemeSpec:
    """Build a normalised scheme spec (keywords sorted for stable hashing)."""
    if name not in SCHEMES:
        raise ValueError(f"unknown scheme {name!r}; choose from {sorted(SCHEMES)}")
    return (name, tuple(sorted(kw.items())))


def spec_label(spec: SchemeSpec) -> str:
    """Human-readable scheme spec name, e.g. ``path(strategy=greedy)``."""
    name, kw = spec
    if not kw:
        return name
    args = ",".join(f"{k}={v}" for k, v in kw)
    return f"{name}({args})"


@dataclass(frozen=True)
class FuzzScenario:
    """One complete fuzz case: system + operation + checks to run."""

    topo: NetworkTopology
    params: SimParams
    source: int
    dests: tuple[int, ...]
    schemes: tuple[SchemeSpec, ...]
    compare_backends: bool = True
    """Also run the merged static-route tree on both simulator backends and
    require identical per-destination tail times (skipped automatically when
    the deterministic unicast routes re-converge and no tree exists)."""

    degraded_links: tuple[int, ...] = ()
    """Link ids failed by :func:`repro.topology.faults.degrade` during
    generation (provenance only; the embedded topology is already degraded)."""

    fault_schedule: tuple[tuple[float, int], ...] = ()
    """Runtime ``(fire_time, link_id)`` faults armed mid-run (chaos mode):
    each scheme is wrapped in :class:`repro.chaos.ReliableMulticast`, the
    oracles assert exactly-once-after-retry delivery and per-epoch up*/down*
    legality, and the backend differential is skipped (the flit-level
    reference has no fault support).  Empty means today's fault-free run."""

    churn_ops: tuple[tuple[str, int], ...] = ()
    """Membership churn ops ``("join"|"leave", node)`` applied in order to a
    group rooted at ``source`` with initial members ``dests`` (churn mode):
    the oracle drives a repairing group and a replan-every-change twin
    through the stream and requires identical delivery sets after every
    op.  Empty means a static destination set."""

    collective_ops: tuple[tuple[float, str, int], ...] = ()
    """Open-loop collective admissions ``(admit_time, kind, root)`` driven
    through the workload engine (collectives mode): every scheme in the
    roster drives the identical schedule via
    :func:`repro.workloads.driver.drive_admissions` and the oracle requires
    full accounting -- every admitted op completes by the drain horizon or
    is explicitly counted, and the fabric is conserved afterwards.  Empty
    means no collective workload."""

    label: str = ""
    """Free-form provenance tag, e.g. ``seed=7/iter=13``."""

    def __post_init__(self) -> None:
        if not self.dests:
            raise ValueError("scenario needs at least one destination")
        if self.source in self.dests:
            raise ValueError("source must not be a destination")
        if len(set(self.dests)) != len(self.dests):
            raise ValueError("duplicate destinations")
        for n in (self.source, *self.dests):
            if not 0 <= n < self.topo.num_nodes:
                raise ValueError(f"node {n} outside the embedded topology")
        if not self.schemes:
            raise ValueError("scenario needs at least one scheme")
        for t, _link in self.fault_schedule:
            if t < 0:
                raise ValueError("fault times must be non-negative")
        members = set(self.dests)
        for op, node in self.churn_ops:
            if op not in ("join", "leave"):
                raise ValueError(f"unknown churn op {op!r}")
            if not 0 <= node < self.topo.num_nodes:
                raise ValueError(f"churn node {node} outside the topology")
            if node == self.source:
                raise ValueError("the group root never churns")
            if op == "join":
                if node in members:
                    raise ValueError(f"join of existing member {node}")
                members.add(node)
            else:
                if node not in members:
                    raise ValueError(f"leave of non-member {node}")
                if len(members) == 1:
                    raise ValueError("churn must never empty the group")
                members.remove(node)
        # Kinds mirror repro.workloads.arrivals.COLLECTIVE_KINDS (kept as a
        # literal here so the scenario data layer stays import-light).
        for t, kind, root in self.collective_ops:
            if t < 0:
                raise ValueError("collective admit times must be non-negative")
            if kind not in ("broadcast", "allreduce", "barrier"):
                raise ValueError(f"unknown collective kind {kind!r}")
            if not 0 <= root < self.topo.num_nodes:
                raise ValueError(f"collective root {root} outside the topology")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready plain-data form (stable key order via json dumps).

        ``fault_schedule``, ``churn_ops``, and ``collective_ops`` are
        omitted when empty so scenarios without them keep the digests (and
        corpus file names) they had before chaos/churn/collectives mode
        existed; the default VC params
        (``vc_count=1``, ``vc_routing="updown"``) are stripped for the same
        reason -- single-lane scenarios keep their pre-VC digests.
        """
        params = asdict(self.params)
        if params.get("vc_count") == 1:
            params.pop("vc_count")
        if params.get("vc_routing") == "updown":
            params.pop("vc_routing")
        out = {
            "format": FORMAT_VERSION,
            "topology": topology_to_dict(self.topo),
            "params": params,
            "source": self.source,
            "dests": list(self.dests),
            "schemes": [
                {"name": name, "kw": {k: v for k, v in kw}}
                for name, kw in self.schemes
            ],
            "compare_backends": self.compare_backends,
            "degraded_links": list(self.degraded_links),
            "label": self.label,
        }
        if self.fault_schedule:
            out["fault_schedule"] = [[t, lk] for t, lk in self.fault_schedule]
        if self.churn_ops:
            out["churn_ops"] = [[op, n] for op, n in self.churn_ops]
        if self.collective_ops:
            out["collective_ops"] = [
                [t, kind, root] for t, kind, root in self.collective_ops
            ]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzScenario":
        """Inverse of :meth:`to_dict`; validates the format version."""
        if data.get("format") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported scenario format {data.get('format')!r}"
            )
        return cls(
            topo=topology_from_dict(data["topology"]),
            params=SimParams(**data["params"]),
            source=int(data["source"]),
            dests=tuple(int(d) for d in data["dests"]),
            schemes=tuple(
                scheme_spec(s["name"], **s.get("kw", {}))
                for s in data["schemes"]
            ),
            compare_backends=bool(data.get("compare_backends", True)),
            degraded_links=tuple(data.get("degraded_links", ())),
            fault_schedule=tuple(
                (float(t), int(lk))
                for t, lk in data.get("fault_schedule", ())
            ),
            churn_ops=tuple(
                (str(op), int(n)) for op, n in data.get("churn_ops", ())
            ),
            collective_ops=tuple(
                (float(t), str(kind), int(root))
                for t, kind, root in data.get("collective_ops", ())
            ),
            label=str(data.get("label", "")),
        )

    def digest(self) -> str:
        """Stable content hash (sha256 over canonical JSON, sans label)."""
        data = self.to_dict()
        data.pop("label", None)
        payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Shrink-friendly derivation
    # ------------------------------------------------------------------
    def with_changes(self, **changes) -> "FuzzScenario":
        """A copy with fields replaced (params stay synced to the topology)."""
        out = replace(self, **changes)
        if out.params.num_switches != out.topo.num_switches or \
                out.params.num_nodes != out.topo.num_nodes:
            out = replace(
                out,
                params=out.params.replace(
                    num_switches=out.topo.num_switches,
                    num_nodes=out.topo.num_nodes,
                    ports_per_switch=out.topo.ports_per_switch,
                ),
            )
        return out

    def size_key(self) -> tuple[int, ...]:
        """Lexicographic 'cost' used by the minimizer to prefer smaller cases."""
        return (
            self.topo.num_switches,
            len(self.dests),
            self.topo.num_nodes,
            len(self.topo.links),
            self.params.message_flits,
            len(self.churn_ops),
            len(self.collective_ops),
        )
