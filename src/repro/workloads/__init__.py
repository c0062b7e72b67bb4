"""Data-center collective workloads under open-loop deadline traffic.

The paper's figures time one multicast at a time; this package asks its
question -- NI support or switch support? -- under the traffic that makes
it urgent today: ML-cluster collectives (broadcast, allreduce, barrier)
arriving as a sustained, *open-loop* stream with per-operation deadlines.

* :mod:`repro.workloads.arrivals` -- the seeded arrival schedule: a
  rate-independent unit-rate clock (Poisson or bursty ML-step, from
  :mod:`repro.traffic.patterns`) plus per-op kind/root draws, so schedules
  at different rates share their op sequence byte for byte.
* :mod:`repro.workloads.driver` -- the engine: admits every scheduled op at
  its arrival time regardless of what is still in flight (the open-loop
  contract), runs it through :mod:`repro.collectives.ops` over the chosen
  multicast scheme, and accounts completions against deadlines into a
  :class:`repro.metrics.QuantileDigest` (p50/p99/p999, miss fraction,
  saturation throughput).

The ``collective-load`` experiment
(:mod:`repro.experiments.collective_load`) sweeps this engine over
(scheme x collective x load) through the cell runner; the end-to-end
benchmark's ``collective-mix`` workload (``benchmarks/e2e``) pins the
engine's event counts.
"""

from repro.workloads.arrivals import (
    COLLECTIVE_KINDS,
    OpArrival,
    arrival_schedule,
    schedule_digest,
)
from repro.workloads.driver import (
    OpRecord,
    WorkloadReport,
    drive_admissions,
    run_workload,
    run_workload_cell,
)

__all__ = [
    "COLLECTIVE_KINDS",
    "OpArrival",
    "OpRecord",
    "WorkloadReport",
    "arrival_schedule",
    "drive_admissions",
    "run_workload",
    "run_workload_cell",
    "schedule_digest",
]
