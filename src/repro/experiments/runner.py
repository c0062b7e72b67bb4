"""Parallel, cached, resumable execution of experiment *cells*.

The figure engines in :mod:`repro.experiments.base` are grids of independent
simulation calls: one :func:`~repro.traffic.single.average_single_multicast_latency`
per (variant, scheme, group size) and one
:func:`~repro.traffic.load.run_load_experiment` per (variant, degree, scheme,
load).  This module gives each such call a first-class identity -- a
:class:`Cell` -- and provides the machinery the whole experiment layer shares:

* **Deterministic per-cell seeds.**  :func:`derive_seed` hashes
  ``(profile.seed, exp_id, draw coordinates)`` with SHA-256, so every cell
  owns an independent, platform-stable random stream.  The *scheme* is
  deliberately excluded from the seed key: the paper's methodology pairs
  scheme comparisons on identical topology/draw sequences, and schemes
  sharing one cell seed preserves that pairing.
* **A content-addressed on-disk cache.**  :class:`CellCache` keys each cell
  by a stable hash of its full descriptor (code fingerprint, sim
  parameters, scheme, coordinates, profile knobs, seed) and stores one
  atomically written JSON file per cell, so an interrupted ``run all``
  resumes from the completed cells, a parameter change invalidates exactly
  the cells it affects, and any edit to the code invalidates every cell.
* **A process-pool executor.**  :func:`execute_cells` fans pending cells out
  over ``jobs`` worker processes and merges values back in submission
  order.  Cells are seeded independently and merged canonically, so the
  parallel result is byte-identical to the serial one (the determinism
  contract DESIGN.md documents).

The active execution policy travels through a :class:`contextvars.ContextVar`
(:func:`execution_context`) so the two dozen registered experiment runners
keep their ``run(profile)`` signatures.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import json
import os
import pathlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator

from repro.params import SimParams

_SEED_SPACE = 2**31
"""Derived seeds live in [0, 2**31); comfortably inside Python's int seeds."""


def _canonical_json(data: object) -> str:
    """Stable, whitespace-free JSON used for hashing descriptors."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@functools.cache
def code_fingerprint() -> str:
    """SHA-256 over every ``*.py`` of the ``repro`` package, in path order.

    Each file contributes its package-relative POSIX path and its bytes, so
    any source edit -- whitespace included -- changes every cell's cache
    key: a spurious miss only costs time, a stale hit would serve results
    the code no longer produces.
    """
    import repro

    root = pathlib.Path(repro.__file__).parent
    files = sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    )
    digest = hashlib.sha256()
    for rel, path in files:
        digest.update(rel.encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def derive_seed(profile_seed: int, exp_id: str, *key: object) -> int:
    """Deterministic per-cell seed from ``(profile.seed, exp_id, cell key)``.

    SHA-256 based (never :func:`hash`, which is salted per process), so the
    same coordinates yield the same seed on every platform and every run.
    """
    payload = _canonical_json([profile_seed, exp_id, list(key)])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


@dataclass(frozen=True)
class Cell:
    """One independent simulation call of an experiment grid.

    A cell is pure data (picklable, hashable content) so it can cross a
    process boundary and serve as its own cache key.
    """

    kind: str
    """Cell family, one branch of :func:`run_cell` each: ``"single"``
    (isolated-multicast latency average), ``"load"`` (one open-loop load
    point), ``"workload"``, ``"churn"``, and the ``extra-*`` studies'
    ``"background"``, ``"fault"`` and ``"regular"``."""

    exp_id: str
    params: SimParams
    scheme: str
    coords: tuple[tuple[str, object], ...]
    """Grid coordinates, e.g. ``(("variant", "R=2"), ("size", 16))`` --
    the cell's position in the figure, used in the cache key."""

    knobs: tuple[tuple[str, object], ...]
    """Profile knobs that shape this cell's simulation (topology count,
    durations, ...); part of the cache key so profile changes invalidate."""

    seed: int
    scheme_kw: tuple[tuple[str, object], ...] = ()

    def descriptor(self) -> dict:
        """Plain-data identity of the cell; the input to the cache hash."""
        return {
            "code": code_fingerprint(),
            "kind": self.kind,
            "exp_id": self.exp_id,
            "params": asdict(self.params),
            "scheme": self.scheme,
            "coords": [list(kv) for kv in self.coords],
            "knobs": [list(kv) for kv in self.knobs],
            "seed": self.seed,
            "scheme_kw": [list(kv) for kv in self.scheme_kw],
        }

    def digest(self) -> str:
        """Content hash naming this cell in the cache."""
        payload = _canonical_json(self.descriptor())
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def knob(self, name: str) -> object:
        for k, v in self.knobs:
            if k == name:
                return v
        raise KeyError(name)

    def coord(self, name: str) -> object:
        for k, v in self.coords:
            if k == name:
                return v
        raise KeyError(name)


def run_cell(cell: Cell) -> dict:
    """Execute one cell and return its plain-data (JSON-able) value.

    Module-level so a :class:`ProcessPoolExecutor` can pickle it; every
    random stream inside is seeded from ``cell.seed``, so the result is a
    pure function of the cell descriptor.
    """
    if cell.kind == "single":
        from repro.traffic.single import average_single_multicast_latency

        summ = average_single_multicast_latency(
            cell.params,
            cell.scheme,
            int(cell.coord("size")),
            n_topologies=int(cell.knob("n_topologies")),
            trials_per_topology=int(cell.knob("trials_per_topology")),
            seed=cell.seed,
            **dict(cell.scheme_kw),
        )
        return {"mean": summ.mean, "p95": summ.p95, "count": summ.count}
    if cell.kind == "load":
        from repro.topology.irregular import generate_topology_family
        from repro.traffic.load import run_load_experiment

        topo = generate_topology_family(cell.params, 1)[0]
        point = run_load_experiment(
            topo,
            cell.params,
            cell.scheme,
            degree=int(cell.coord("degree")),
            effective_load=float(cell.coord("load")),
            duration=int(cell.knob("duration")),
            warmup=int(cell.knob("warmup")),
            seed=cell.seed,
            **dict(cell.scheme_kw),
        )
        return {
            "mean_latency": point.mean_latency,
            "p95_latency": point.p95_latency,
            "issued": point.issued,
            "completed": point.completed,
            "warmup_ops": point.warmup_ops,
            "saturated": point.saturated,
        }
    if cell.kind == "workload":
        from repro.workloads import run_workload_cell

        # One open-loop collective workload point.  The seed key excludes
        # the scheme (pairing rule), so every scheme is offered the
        # byte-identical arrival schedule.
        return run_workload_cell(
            cell.params,
            cell.scheme,
            seed=cell.seed,
            collective=str(cell.coord("collective")),
            rate=float(cell.coord("rate")),
            duration=float(cell.knob("duration")),
            warmup=float(cell.knob("warmup")),
            process=str(cell.knob("process")),
            deadline_factor=float(cell.knob("deadline_factor")),
            fault_count=int(cell.knob("faults")),
            scheme_kw=dict(cell.scheme_kw),
        )
    if cell.kind == "churn":
        from repro.groups import run_paired_churn

        # One paired churn run: a repairing group (path plans graft/prune,
        # tree plans replan) and a replan-every-change twin driven through
        # one seeded membership stream.  The seed key excludes the scheme (the pairing rule), so
        # every scheme sees the identical topology and churn decisions.
        report = run_paired_churn(
            cell.params,
            cell.scheme,
            seed=cell.seed,
            steps=int(cell.knob("steps")),
            group_size=int(cell.coord("size")),
            churn_rate=float(cell.coord("rate")),
            quality_bound=float(cell.knob("quality_bound")),
            table_capacity=cell.knob("table_capacity"),
            table_policy=str(cell.knob("table_policy")),
            scheme_kw=dict(cell.scheme_kw),
        )
        value = report.to_value()
        value["digest"] = report.digest()
        return value
    if cell.kind == "background":
        from repro.experiments.extra_omitted import background_point

        # One foreground multicast amid unicast background load.
        return background_point(
            cell.params,
            cell.scheme,
            float(cell.coord("load")),
            warmup=int(cell.knob("warmup")),
            seed=cell.seed,
        )
    if cell.kind == "fault":
        from repro.experiments.extra_omitted import fault_point

        # One isolated multicast after k links fail and routing is rebuilt.
        return fault_point(
            cell.params, cell.scheme, int(cell.coord("failures")), seed=cell.seed
        )
    if cell.kind == "regular":
        from repro.experiments.extra_omitted import regular_point

        # Mean isolated-multicast latency on one named regular or
        # irregular substrate.
        return regular_point(
            cell.params,
            cell.scheme,
            str(cell.coord("topology")),
            int(cell.coord("size")),
            trials=int(cell.knob("trials")),
            seed=cell.seed,
        )
    raise ValueError(f"unknown cell kind {cell.kind!r}")


_MISS = object()
"""Cache-miss sentinel (cached values may legitimately be None-bearing)."""


class CellCache:
    """Content-addressed store of cell values: one JSON file per cell.

    Writes are atomic (temp file + :func:`os.replace`), so a crash mid-write
    never leaves a half-written value behind -- the resume contract.  A
    corrupt or unreadable entry is treated as a miss and recomputed.
    """

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)

    def _path(self, digest: str) -> pathlib.Path:
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, cell: Cell) -> object:
        """The cached value, or the module-level ``_MISS`` sentinel."""
        path = self._path(cell.digest())
        try:
            data = json.loads(path.read_text())
            value = data["value"]
        except FileNotFoundError:
            return _MISS
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # Corrupt entry: drop it loudly and recompute the cell.
            print(f"cell cache: discarding unreadable {path.name}: {exc}")
            with contextlib.suppress(OSError):
                path.unlink()
            return _MISS
        return value

    def put(self, cell: Cell, value: object) -> None:
        digest = cell.digest()
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        # No sort_keys: the value must round-trip with its key order intact
        # so a cache hit is indistinguishable from a fresh computation.
        payload = json.dumps({"cell": cell.descriptor(), "value": value}, indent=1)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(payload + "\n")
        os.replace(tmp, path)


@dataclass
class ExecutionStats:
    """What a run actually did -- executed vs served from cache."""

    cells_executed: int = 0
    cells_cached: int = 0


@dataclass
class ExecutionContext:
    """Execution policy the sweep engines consult (jobs + cache + stats)."""

    jobs: int = 1
    cache: CellCache | None = None
    stats: ExecutionStats = field(default_factory=ExecutionStats)


_CONTEXT: contextvars.ContextVar[ExecutionContext] = contextvars.ContextVar(
    "repro_execution_context", default=ExecutionContext()
)


def current_context() -> ExecutionContext:
    """The active execution policy (serial and uncached by default)."""
    return _CONTEXT.get()


@contextlib.contextmanager
def execution_context(
    jobs: int = 1, cache: CellCache | None = None
) -> Iterator[ExecutionContext]:
    """Install an execution policy for the duration of a ``with`` block."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    ctx = ExecutionContext(jobs=jobs, cache=cache)
    token = _CONTEXT.set(ctx)
    try:
        yield ctx
    finally:
        _CONTEXT.reset(token)


def parallel_map(fn: Callable, items: list, jobs: int) -> list:
    """``[fn(x) for x in items]`` over a process pool, order preserved.

    ``fn`` and every item must be picklable.  With ``jobs <= 1`` (or a
    trivially small batch) no pool is spawned; a worker exception propagates
    to the caller either way, so failures stay loud.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def execute_cells(cells: list[Cell]) -> list[dict]:
    """Resolve every cell (cache first, then compute) in canonical order.

    The returned list is index-aligned with ``cells`` regardless of how
    many worker processes computed them or which values came from cache --
    the merge step that makes parallel output byte-identical to serial.
    """
    ctx = current_context()
    values: list = [_MISS] * len(cells)
    pending: list[int] = []
    for i, cell in enumerate(cells):
        hit = ctx.cache.get(cell) if ctx.cache is not None else _MISS
        if hit is _MISS:
            pending.append(i)
        else:
            values[i] = hit
    ctx.stats.cells_cached += len(cells) - len(pending)
    computed = parallel_map(run_cell, [cells[i] for i in pending], ctx.jobs)
    for i, value in zip(pending, computed):
        values[i] = value
        if ctx.cache is not None:
            ctx.cache.put(cells[i], value)
    ctx.stats.cells_executed += len(pending)
    return values
