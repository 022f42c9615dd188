"""Cross-engine differential testing: legacy vs. compiled executor.

The repository keeps two implementations of the execution semantics — the
legacy per-op engine (the executable specification) and the compiled
vectorized engine (the fast path). :func:`run_differential` executes one
schedule under both and diffs the results op-for-op: start/end times,
busy time, memory usage step functions, peaks, makespan, and — when a
capacity bound is exceeded — the full OOM error payload. Any disagreement
is a bug in one of the engines, and the scenario fuzzer feeds this oracle
randomized-but-seeded schedules from every subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import OutOfMemoryError
from repro.hardware.spec import HardwareSpec
from repro.runtime.executor import Executor, ExecutorConfig
from repro.runtime.schedule import RESOURCES, Schedule
from repro.runtime.timeline import Timeline

ENGINES = ("legacy", "compiled")


@dataclass
class DifferentialResult:
    """Outcome of running one schedule under both engines.

    Attributes:
        diffs: human-readable descriptions of every disagreement
            (empty when the engines agree bit-for-bit).
        oom: True when both engines raised :class:`OutOfMemoryError`.
        timeline: the compiled engine's timeline (None on OOM).
        reference: the legacy engine's timeline (None on OOM).
    """

    diffs: list[str] = field(default_factory=list)
    oom: bool = False
    timeline: Timeline | None = None
    reference: Timeline | None = None

    @property
    def ok(self) -> bool:
        """True when the engines agreed on every observable output."""
        return not self.diffs


def _run_engine(
    engine: str,
    schedule: Schedule,
    hardware: HardwareSpec,
    capacities: dict[str, int] | None,
) -> tuple[Timeline | None, OutOfMemoryError | None]:
    executor = Executor(hardware, ExecutorConfig(engine=engine))
    try:
        return executor.run(schedule, capacities=capacities), None
    except OutOfMemoryError as exc:
        return None, exc


def diff_timelines(
    reference: Timeline, candidate: Timeline, *, max_reports: int = 5
) -> list[str]:
    """Diff two timelines of the same schedule op-for-op.

    Args:
        reference: the trusted timeline (legacy engine).
        candidate: the timeline under test (compiled engine).
        max_reports: cap on reported per-op mismatches.

    Returns:
        Descriptions of every observed disagreement (empty when the
        timelines are bit-identical in every observable).
    """
    diffs: list[str] = []
    ref_starts, ref_ends = reference.starts, reference.ends
    cand_starts, cand_ends = candidate.starts, candidate.ends
    if len(ref_starts) != len(cand_starts):
        diffs.append(f"op count: {len(ref_starts)} != {len(cand_starts)}")
        return diffs

    bad = np.flatnonzero((ref_starts != cand_starts) | (ref_ends != cand_ends))
    for i in bad[:max_reports]:
        # Materializing the per-op view to name the op is fine here: we
        # are already on the (rare) mismatch path.
        diffs.append(
            f"op {i} ({reference.executed[i].op.label}): "
            f"[{ref_starts[i]!r}, {ref_ends[i]!r}] != "
            f"[{cand_starts[i]!r}, {cand_ends[i]!r}]"
        )
    if len(bad) > max_reports:
        diffs.append(f"... {len(bad) - max_reports} more op timing diffs")

    if reference.makespan != candidate.makespan:
        diffs.append(
            f"makespan: {reference.makespan!r} != {candidate.makespan!r}"
        )
    for resource in RESOURCES:
        ref_busy = reference.busy_time.get(resource, 0.0)
        cand_busy = candidate.busy_time.get(resource, 0.0)
        if ref_busy != cand_busy:
            diffs.append(f"busy[{resource}]: {ref_busy!r} != {cand_busy!r}")
    if reference.memory_peak != candidate.memory_peak:
        diffs.append(
            f"memory peaks: {reference.memory_peak} != {candidate.memory_peak}"
        )
    if reference.memory_usage != candidate.memory_usage:
        pools = sorted(
            set(reference.memory_usage) | set(candidate.memory_usage)
        )
        for pool in pools:
            if reference.memory_usage.get(pool) != candidate.memory_usage.get(
                pool
            ):
                diffs.append(f"memory usage differs for pool {pool!r}")
    return diffs


def run_differential(
    schedule: Schedule,
    hardware: HardwareSpec,
    *,
    capacities: dict[str, int] | None = None,
) -> DifferentialResult:
    """Execute ``schedule`` under both engines and diff every observable.

    Args:
        schedule: the op DAG to execute.
        hardware: the simulated machine both engines run against.
        capacities: pool-capacity overrides (near-OOM budgets are the
            interesting case: both engines must agree on whether — and
            exactly how — the run dies).

    Returns:
        A :class:`DifferentialResult`; ``result.ok`` means agreement.
    """
    result = DifferentialResult()
    legacy_t, legacy_err = _run_engine("legacy", schedule, hardware, capacities)
    fast_t, fast_err = _run_engine("compiled", schedule, hardware, capacities)

    if (legacy_err is None) != (fast_err is None):
        which = "legacy" if legacy_err is not None else "compiled"
        err = legacy_err if legacy_err is not None else fast_err
        result.diffs.append(f"only the {which} engine raised OOM: {err}")
        return result
    if legacy_err is not None and fast_err is not None:
        result.oom = True
        if (legacy_err.pool, legacy_err.requested, legacy_err.available) != (
            fast_err.pool,
            fast_err.requested,
            fast_err.available,
        ):
            result.diffs.append(
                "OOM payload mismatch: "
                f"legacy ({legacy_err.pool}, {legacy_err.requested}, "
                f"{legacy_err.available}) != compiled ({fast_err.pool}, "
                f"{fast_err.requested}, {fast_err.available})"
            )
        return result

    result.reference = legacy_t
    result.timeline = fast_t
    result.diffs = diff_timelines(legacy_t, fast_t)
    return result
