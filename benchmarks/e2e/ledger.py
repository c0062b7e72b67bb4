"""Per-layer ledger: spans recorded around each layer's entry points.

Nothing under ``src/`` is instrumented.  :func:`install` replaces every entry
point in :data:`ENTRY_POINTS` with a wrapper that opens a span on a
:class:`Ledger`, and returns a function that puts the originals back, so an
untraced pass runs the program exactly as shipped.

A span has a name (``<layer>.<entry>``; the layer is the name up to its last
dot, which is the module path under ``repro``), a start, an end, the span
that was open when it started (its parent) and an operation id shared by
every span under one top-level call.  A span's *self time* is its duration
minus the duration of its child spans, so the self times of all spans add
up exactly to the time of the root spans.  Work outside every wrapped entry
point stays in the self time of the benchmark's own root span,
``traffic.call``.

The table of per-layer metrics, :data:`LAYER_METRICS`, lives here too; this
module imports nothing from ``repro`` until :func:`install` runs, so the
benchmark's parent process can read the table without importing the
program.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "traffic.call"
"""Span the benchmark opens around each call into the program."""

SPAN_CAP = 50_000
"""Spans kept for the Chrome trace export; later spans are only counted."""

LAYERS = (
    "topology", "routing", "sim.network", "multicast", "sim.engine",
    "sim.worm", "sim.resources", "sim.host", "workloads", "collectives",
    "chaos", "metrics", "traffic",
)

# (owner, attribute, span name).  The owner is a module, or ``module:Class``
# for a method; a module-level function is patched where its caller looks it
# up (``schedule_faults`` is called through ``repro.chaos.schedule``,
# ``summarize`` through ``repro.traffic.load``).  The worm solver has no
# public entry point, so ``Worm._expand``, ``Worm._refinalize`` and the
# fault injector's ``_fire`` are wrapped as they are.
ENTRY_POINTS = (
    ("repro.topology", "generate_irregular_topology", "topology.generate"),
    ("repro.topology.faults", "remove_link", "topology.remove_link"),
    ("repro.chaos.schedule", "schedule_faults", "topology.fault_schedule"),
    ("repro.routing.updown:UpDownRouting", "build", "routing.updown_build"),
    ("repro.routing.reachability:ReachabilityTable", "build",
     "routing.reach_build"),
    ("repro.routing.updown:UpDownRouting", "next_hops", "routing.next_hops"),
    ("repro.sim.network:SimNetwork", "__init__", "sim.network.init"),
    ("repro.sim.network:SimNetwork", "reconfigure", "sim.network.reconfigure"),
    ("repro.multicast.kbinomial:NIKBinomialScheme", "plan", "multicast.plan"),
    ("repro.multicast.pathworm:PathWormScheme", "plan", "multicast.plan"),
    ("repro.multicast.treeworm", "plan_tree_worm", "multicast.plan"),
    ("repro.multicast.kbinomial:NIKBinomialScheme", "execute",
     "multicast.execute"),
    ("repro.multicast.treeworm:TreeWormScheme", "execute", "multicast.execute"),
    ("repro.multicast.pathworm:PathWormScheme", "execute", "multicast.execute"),
    ("repro.sim.engine:Engine", "run", "sim.engine.run"),
    ("repro.sim.worm:Worm", "start", "sim.worm.start"),
    ("repro.sim.worm:Worm", "_expand", "sim.worm.expand"),
    ("repro.sim.worm:Worm", "_refinalize", "sim.worm.refinalize"),
    ("repro.sim.worm:Worm", "abort", "sim.worm.abort"),
    ("repro.sim.resources:MultiLaneResource", "request",
     "sim.resources.request"),
    ("repro.sim.resources:FifoResource", "request", "sim.resources.request"),
    ("repro.sim.resources:ThroughputResource", "transfer",
     "sim.resources.transfer"),
    ("repro.sim.host:Host", "launch_worm", "sim.host.launch_worm"),
    ("repro.sim.host:Host", "cpu_task", "sim.host.task"),
    ("repro.sim.host:Host", "ni_task", "sim.host.task"),
    ("repro.sim.host:Host", "dma", "sim.host.task"),
    ("repro.workloads.driver", "collective_baselines", "workloads.baselines"),
    ("repro.workloads.driver", "arrival_schedule", "workloads.schedule"),
    ("repro.workloads.driver", "drive_admissions", "workloads.admit"),
    ("repro.collectives.ops", "broadcast", "collectives.op"),
    ("repro.collectives.ops", "allreduce", "collectives.op"),
    ("repro.collectives.ops", "barrier", "collectives.op"),
    ("repro.chaos.injector:FaultInjector", "_fire", "chaos.fire"),
    ("repro.chaos.delivery:ReliableMulticast", "send", "chaos.send"),
    ("repro.chaos.delivery:ReliableMulticast", "_retry", "chaos.retry"),
    ("repro.traffic.load", "summarize", "metrics.summarize"),
    ("repro.metrics.quantiles:QuantileDigest", "summary", "metrics.summary"),
)

# Per-layer metrics: (name, unit, on the result line).  Units ``count``,
# ``cycles`` and ``ratio`` are deterministic for a seed (``--check`` diffs
# them); ``s`` and ``frac`` are host-time measurements.  Times of layers that
# some workloads never enter read exactly 0.0 there; they are printed and
# saved with the run but left off the result line.
LAYER_METRICS = (
    ("topology.generate_s", "s", True),
    ("topology.fault_schedule_s", "s", False),
    ("topology.remove_link_calls", "count", True),
    ("topology.remove_links_per_fault", "ratio", True),
    ("topology.self_s", "s", False),
    ("routing.updown_build_s", "s", True),
    ("routing.updown_builds", "count", True),
    ("routing.reach_build_s", "s", True),
    ("routing.reach_builds", "count", True),
    ("routing.builds_per_topology", "ratio", True),
    ("routing.next_hops_s", "s", True),
    ("routing.next_hops_calls", "count", True),
    ("routing.self_s", "s", True),
    ("sim.network.self_s", "s", True),
    ("sim.network.inits", "count", True),
    ("sim.network.reconfigs", "count", True),
    ("multicast.plan_s", "s", True),
    ("multicast.plans", "count", True),
    ("multicast.executes", "count", True),
    ("multicast.plans_per_execute", "ratio", True),
    ("multicast.self_s", "s", True),
    ("sim.engine.events", "count", True),
    ("sim.engine.self_s", "s", True),
    ("sim.worm.worms", "count", True),
    ("sim.worm.expands", "count", True),
    ("sim.worm.expand_s", "s", True),
    ("sim.worm.refinalizes", "count", True),
    ("sim.worm.refinalize_s", "s", True),
    ("sim.worm.aborts", "count", True),
    ("sim.worm.self_s", "s", True),
    ("sim.resources.requests", "count", True),
    ("sim.resources.grant_wait_cycles", "cycles", True),
    ("sim.resources.self_s", "s", True),
    ("sim.host.launches", "count", True),
    ("sim.host.self_s", "s", True),
    ("workloads.baseline_s", "s", False),
    ("workloads.schedule_s", "s", False),
    ("workloads.self_s", "s", False),
    ("collectives.ops", "count", True),
    ("collectives.self_s", "s", False),
    ("chaos.faults_fired", "count", True),
    ("chaos.reliable_sends", "count", True),
    ("chaos.self_s", "s", False),
    ("metrics.self_s", "s", False),
    ("traffic.self_s", "s", True),
    ("trace.overhead_frac", "frac", True),
    ("trace.unattributed_frac", "frac", True),
)

DETERMINISTIC_UNITS = ("count", "cycles", "ratio")


def layer_of(span: str) -> str:
    return span.rsplit(".", 1)[0]


class Ledger:
    """Spans, self times and counts for one traced stretch of the program."""

    def __init__(self, keep_spans: int = 0) -> None:
        self.keep_spans = keep_spans
        self.spans: list[list] = []
        """Kept spans: ``[name, start, end, parent index, op id]``."""
        self.dropped = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        """Duration of the outermost span of each name (nested same-name
        spans are not counted twice)."""
        self.calls: Counter[str] = Counter()
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.topologies: dict[int, object] = {}
        """Topologies routing tables were built for, held so ids stay unique."""
        self.root_s = 0.0
        self._stack: list[list] = []
        self._active: Counter[str] = Counter()
        self._op = -1

    def enter(self, name: str) -> None:
        stack = self._stack
        if not stack:
            self._op += 1
        idx = -1
        if len(self.spans) < self.keep_spans:
            idx = len(self.spans)
            parent = stack[-1][3] if stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self._op])
        elif self.keep_spans:
            self.dropped += 1
        self._active[name] += 1
        start = perf_counter()
        if idx >= 0:
            self.spans[idx][1] = start
        stack.append([name, start, 0.0, idx])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, idx = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        self._active[name] -= 1
        if not self._active[name]:
            self.incl_s[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur
        if idx >= 0:
            self.spans[idx][2] = end

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[layer_of(name)] += s
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of this ledger but ``trace.overhead_frac``."""
        calls, incl, counts = self.calls, self.incl_s, self.counts
        m: dict[str, float] = {
            f"{layer}.self_s": s for layer, s in self.layer_self().items()
        }
        faults = calls["chaos.fire"]
        builds, topologies = calls["routing.updown_build"], len(self.topologies)
        plans, executes = calls["multicast.plan"], calls["multicast.execute"]
        m.update({
            "topology.generate_s": incl["topology.generate"],
            "topology.fault_schedule_s": incl["topology.fault_schedule"],
            "topology.remove_link_calls": calls["topology.remove_link"],
            "topology.remove_links_per_fault":
                calls["topology.remove_link"] / faults if faults else 0.0,
            "routing.updown_build_s": incl["routing.updown_build"],
            "routing.updown_builds": builds,
            "routing.reach_build_s": incl["routing.reach_build"],
            "routing.reach_builds": calls["routing.reach_build"],
            "routing.builds_per_topology":
                builds / topologies if topologies else 0.0,
            "routing.next_hops_s": incl["routing.next_hops"],
            "routing.next_hops_calls": calls["routing.next_hops"],
            "sim.network.inits": calls["sim.network.init"],
            "sim.network.reconfigs": calls["sim.network.reconfigure"],
            "multicast.plan_s": incl["multicast.plan"],
            "multicast.plans": plans,
            "multicast.executes": executes,
            "multicast.plans_per_execute":
                plans / executes if executes else 0.0,
            "sim.engine.events": int(counts["sim.engine.events"]),
            "sim.worm.worms": calls["sim.worm.start"],
            "sim.worm.expands": calls["sim.worm.expand"],
            "sim.worm.expand_s": incl["sim.worm.expand"],
            "sim.worm.refinalizes": calls["sim.worm.refinalize"],
            "sim.worm.refinalize_s": incl["sim.worm.refinalize"],
            "sim.worm.aborts": int(counts["sim.worm.aborts"]),
            "sim.resources.requests": calls["sim.resources.request"],
            "sim.resources.grant_wait_cycles":
                counts["sim.resources.grant_wait_cycles"],
            "sim.host.launches": calls["sim.host.launch_worm"],
            "workloads.baseline_s": incl["workloads.baselines"],
            "workloads.schedule_s": incl["workloads.schedule"],
            "collectives.ops": calls["collectives.op"],
            "chaos.faults_fired": faults,
            "chaos.reliable_sends": calls["chaos.send"],
            "trace.unattributed_frac":
                m["traffic.self_s"] / self.root_s if self.root_s else 0.0,
        })
        return m

    def write_chrome_trace(self, path: str, t0: float) -> None:
        """The kept spans as Chrome trace-event JSON (Perfetto opens it)."""
        events = [
            {
                "name": name, "cat": layer_of(name), "ph": "X",
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 1, "args": {"op": op, "parent": parent},
            }
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"spans_dropped": self.dropped},
            }, fh)


def _span(ledger: Ledger, name: str, fn):
    enter, exit_ = ledger.enter, ledger.exit

    def wrapper(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


def _engine_run(ledger: Ledger, name: str, fn):
    """``Engine.run`` also counts the events it fires."""
    enter, exit_, counts = ledger.enter, ledger.exit, ledger.counts

    def run(self, *args, **kwargs):
        before = self.events_fired
        enter(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            exit_()
            counts["sim.engine.events"] += self.events_fired - before

    return run


def _updown_build(ledger: Ledger, name: str, fn):
    """``UpDownRouting.build`` also notes the topology it builds for."""
    enter, exit_, topologies = ledger.enter, ledger.exit, ledger.topologies

    def build(cls, topo, *args, **kwargs):
        topologies[id(topo)] = topo
        enter(name)
        try:
            return fn(cls, topo, *args, **kwargs)
        finally:
            exit_()

    return build


def _worm_abort(ledger: Ledger, name: str, fn):
    """``Worm.abort`` counts only the calls that actually kill a worm."""
    enter, exit_, counts = ledger.enter, ledger.exit, ledger.counts

    def abort(self, *args, **kwargs):
        live = not self.aborted and self.finish_time is None
        enter(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            exit_()
            if live and self.aborted:
                counts["sim.worm.aborts"] += 1

    return abort


def _request(ledger: Ledger, name: str, fn):
    """A resource request also adds its simulated wait until the grant."""
    enter, exit_, counts = ledger.enter, ledger.exit, ledger.counts

    def request(self, on_grant, *args, **kwargs):
        engine = self.engine
        asked = engine.now

        def granted(*grant_args):
            counts["sim.resources.grant_wait_cycles"] += engine.now - asked
            return on_grant(*grant_args)

        enter(name)
        try:
            return fn(self, granted, *args, **kwargs)
        finally:
            exit_()

    return request


_SPECIAL = {
    "routing.updown_build": _updown_build,
    "sim.engine.run": _engine_run,
    "sim.worm.abort": _worm_abort,
    "sim.resources.request": _request,
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def patch(owner, attr: str, make):
    """Replace ``owner.attr`` by ``make(original function)``.

    A classmethod is unwrapped and rewrapped.  Returns a function that
    restores the original attribute.
    """
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    return lambda: setattr(owner, attr, raw)


def install(ledger: Ledger):
    """Wrap every entry point; returns the function that unwraps them."""
    undo = []
    for owner, attr, name in ENTRY_POINTS:
        make = _SPECIAL.get(name, _span)
        undo.append(patch(
            _resolve(owner), attr, lambda fn, m=make, n=name: m(ledger, n, fn)
        ))

    def uninstall() -> None:
        for restore in reversed(undo):
            restore()

    return uninstall
