"""Invariant checking, scenario fuzzing, and cross-engine differential
testing.

The correctness harness every refactor and optimization PR leans on:

* :mod:`repro.validation.invariants` — machine-checked invariants over
  executed timelines (causality, resource exclusivity, memory
  conservation) and cluster reports (request conservation, replica
  serialization, SLO/goodput accounting);
* :mod:`repro.validation.differential` — run one schedule under both
  the legacy and compiled executor engines and diff every observable,
  including OOM error payloads;
* :mod:`repro.validation.pass_differential` — run the schedule-
  optimization pass pipeline (:mod:`repro.passes`) and independently
  re-prove op-multiset conservation, timeline invariants, and makespan
  monotonicity (``repro.cli validate --passes``);
* :mod:`repro.validation.cluster_differential` — run one cluster config
  under the serial and batched fleet engines and diff the
  reports bit-for-bit (records, counters, telemetry, percentiles);
* :mod:`repro.validation.fuzz` — seeded random evaluation points
  (models, machines, workloads, systems, fleets, arrival processes)
  pushed through the checkers above; surfaced as
  ``repro.cli validate --fuzz N``, and as ``validate --chaos N`` for
  the fault-injection campaign (every case a cluster run under a
  fuzzed :class:`~repro.cluster.faults.FaultConfig`);
* :mod:`repro.validation.goldens` — content-addressed golden-trace
  snapshots under ``tests/goldens/`` with an ``--update-goldens``
  refresh flow.
"""

from repro.validation.cluster_differential import (
    ClusterDifferentialResult,
    diff_cluster_reports,
    run_cluster_differential,
)
from repro.validation.differential import (
    DifferentialResult,
    diff_timelines,
    run_differential,
)
from repro.validation.fuzz import FuzzConfig, FuzzReport, run_fuzz
from repro.validation.goldens import (
    GoldenStore,
    snapshot_cluster,
    snapshot_fleet,
    snapshot_schedule,
    snapshot_timeline,
)
from repro.validation.invariants import Violation, check_cluster, check_timeline
from repro.validation.pass_differential import (
    PassDifferentialResult,
    check_conservation,
    run_pass_differential,
)
from repro.validation.scheduler_differential import (
    SchedulerDifferentialResult,
    run_scheduler_differential,
)

__all__ = [
    "Violation",
    "check_timeline",
    "check_cluster",
    "DifferentialResult",
    "diff_timelines",
    "run_differential",
    "ClusterDifferentialResult",
    "diff_cluster_reports",
    "run_cluster_differential",
    "SchedulerDifferentialResult",
    "run_scheduler_differential",
    "PassDifferentialResult",
    "check_conservation",
    "run_pass_differential",
    "FuzzConfig",
    "FuzzReport",
    "run_fuzz",
    "GoldenStore",
    "snapshot_timeline",
    "snapshot_schedule",
    "snapshot_cluster",
    "snapshot_fleet",
]
