"""Executed timelines: per-op start/end times plus derived statistics.

Both executor engines return the same array-backed :class:`Timeline`:
the source schedule, per-op resource codes and start/end times, busy
time, and per-pool memory usage as ``(times, levels)`` arrays. The
per-op :class:`ExecutedOp` list and the ``(time, level)`` usage step
functions are views built from those arrays on first access, so callers
that only need makespan, busy time, idle time, or memory peaks — the
metrics hot path — never pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.schedule import GPU, RESOURCE_CODES, Op, Schedule


@dataclass(frozen=True)
class ExecutedOp:
    """An op together with its simulated start and end times."""

    op: Op
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class IdleGap:
    """A period in which a resource sat idle between two of its ops."""

    resource: str
    start: float
    end: float
    before_op: ExecutedOp  # the op whose start terminated the gap

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """The result of executing a schedule.

    Attributes (all constructor arguments):
        schedule: the executed schedule (source of the :class:`Op` views).
        resources: ``[num_ops]`` resource codes (indices into
            :data:`~repro.runtime.schedule.RESOURCES`).
        starts / ends: ``[num_ops]`` float64 simulated start/end times.
        makespan: end time of the last op.
        busy_time: per-resource total busy seconds.
        usage_arrays: per-pool ``(times float64, levels int64)`` arrays
            in replay order.
        memory_peak: per-pool peak bytes.
    """

    def __init__(
        self,
        schedule: Schedule,
        resources: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        makespan: float,
        busy_time: dict[str, float],
        usage_arrays: dict[str, tuple[np.ndarray, np.ndarray]],
        memory_peak: dict[str, int],
    ):
        self.schedule = schedule
        self.resources = resources
        self.starts = starts
        self.ends = ends
        self.makespan = makespan
        self.busy_time = busy_time
        self.usage_arrays = usage_arrays
        self.memory_peak = memory_peak
        self._executed: list[ExecutedOp] | None = None
        self._memory_usage: dict[str, list[tuple[float, int]]] | None = None

    # ---- lazy views --------------------------------------------------------

    @property
    def executed(self) -> list[ExecutedOp]:
        """Per-op execution records (materialized on first access)."""
        if self._executed is None:
            self._executed = [
                ExecutedOp(op, start, end)
                for op, start, end in zip(
                    self.schedule.ops, self.starts.tolist(), self.ends.tolist()
                )
            ]
        return self._executed

    @property
    def executed_is_materialized(self) -> bool:
        """True when the per-op view has been built (laziness probe)."""
        return self._executed is not None

    @property
    def memory_usage(self) -> dict[str, list[tuple[float, int]]]:
        """Per-pool usage step functions (materialized on first access)."""
        if self._memory_usage is None:
            self._memory_usage = {
                pool: list(zip(times.tolist(), levels.tolist()))
                for pool, (times, levels) in self.usage_arrays.items()
            }
        return self._memory_usage

    def start_of(self, op_id: int) -> float:
        """Start time of one op."""
        return float(self.starts[op_id])

    def end_of(self, op_id: int) -> float:
        """End time of one op."""
        return float(self.ends[op_id])

    # ---- derived statistics ------------------------------------------------

    def ops_on(self, resource: str) -> list[ExecutedOp]:
        return sorted(
            (e for e in self.executed if e.op.resource == resource),
            key=lambda e: (e.start, e.op.op_id),
        )

    def idle_gaps(self, resource: str = GPU, *, min_duration: float = 1e-9) -> list[IdleGap]:
        """Idle periods of ``resource`` between its first and last op."""
        ops = self.ops_on(resource)
        gaps: list[IdleGap] = []
        frontier = None
        for executed in ops:
            if frontier is not None and executed.start - frontier > min_duration:
                gaps.append(IdleGap(resource, frontier, executed.start, executed))
            frontier = executed.end if frontier is None else max(frontier, executed.end)
        return gaps

    def idle_time(self, resource: str = GPU) -> float:
        """Summed idle gaps (longer than 1 ns) of ``resource``."""
        mask = self.resources == RESOURCE_CODES[resource]
        starts = self.starts[mask]
        if starts.size < 2:
            return 0.0
        # Ops on one resource run FIFO, so ends are non-decreasing and the
        # idle frontier is simply the previous op's end.
        gaps = starts[1:] - self.ends[mask][:-1]
        return float(gaps[gaps > 1e-9].sum())

    def utilization(self, resource: str = GPU) -> float:
        """Busy fraction of the resource over the whole makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.busy_time.get(resource, 0.0) / self.makespan

    def memory_at(self, pool: str, time: float) -> int:
        """Pool usage at a given simulated time (step function lookup)."""
        entry = self.usage_arrays.get(pool)
        if entry is None:
            return 0
        times, levels = entry
        idx = int(np.searchsorted(times, time, side="right")) - 1
        return int(levels[idx]) if idx >= 0 else 0
