"""Heap bound on a faulted run: simulator state is allocated on use.

Most channels, host CPUs and NIs of a run never queue a requester, and a
unicast route reads a handful of a destination's 2S routing states, so
wait queues are created on the first wait and next hops are kept per
queried state only.  This pins the heap peak (``tracemalloc``) of one
faulted NI broadcast workload at the benchmark's smoke ``faulted-128``
size, so a change that allocates that state up front again fails here.
The byte bound holds for CPython 3.11 to 3.13 (see ``PEAK_BOUND``).
"""

import sys
import tracemalloc

from repro.params import SimParams
from repro.topology.irregular import generate_irregular_topology
from repro.workloads import run_workload

PARAMS = SimParams(num_switches=32, num_nodes=64)

PEAK_BOUND = 580_000
"""Bytes, measured for CPython 3.11, 3.12 and 3.13 (object sizes differ
between interpreters, so a version outside these is unmeasured).  The run
peaks at 463,493 / 461,285 / 463,213 B on 3.11.2 / 3.12.1 / 3.13.0; with a
``deque`` per resource and a dense next-hop list per destination it peaked
at 690,581 / 687,725 / 689,653 B."""


def _faulted_ni_broadcasts(topo):
    return run_workload(
        topo, PARAMS, "ni", seed=1, rate=1e-4, duration=40_000,
        kinds=("broadcast",), fault_count=2, drain_factor=24.0,
    )


def test_faulted_ni_broadcast_heap_peak():
    topo = generate_irregular_topology(PARAMS, seed=1)
    _faulted_ni_broadcasts(topo)  # imports and one-time set-up, untraced
    tracemalloc.start()
    try:
        report = _faulted_ni_broadcasts(topo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.faults_fired == 2 and report.gave_up == 0
    assert report.completed == report.measured == 3
    assert peak < PEAK_BOUND, (
        f"heap peak {peak} B on Python {sys.version.split()[0]}"
    )
