"""Discrete-event execution of a schedule on simulated hardware.

Each resource (GPU, CPU, PCIe direction, disk) runs its ops FIFO in issue
order — the semantics of CUDA streams. An op starts when (a) its resource
has finished everything issued before it and (b) all its dependencies have
completed; this is exactly the `sync()` behaviour of the paper's
Algorithm 1. Because issue order is a valid topological order (the schedule
IR only allows backward deps), start/end times can be computed in a single
pass.

Two engines implement those semantics:

* the **compiled** engine (default) freezes the schedule, computes
  start/end times in one tight pass over its per-op column lists, then
  replays memory vectorized over the frozen event arrays (a stable sort
  of the flat event stream plus a per-pool ``cumsum``, with capacity
  checks against the vectorized running peaks);
* the **legacy** engine walks materialized :class:`Op` objects one at a
  time and replays memory over a sorted Python event list, packing its
  results into arrays only at the end. It is kept as the executable
  specification — the equivalence property tests assert the compiled
  engine reproduces it bit-for-bit (start/end times, busy time, memory
  usage, peaks, and OOM behaviour).

Both return the same array-backed
:class:`~repro.runtime.timeline.Timeline`, whose per-op view is only
materialized on demand.

Memory effects are replayed in simulated-time order (frees before allocs
at identical times) to produce per-pool usage timelines and detect
capacity violations, reproducing where a real run would raise CUDA OOM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OutOfMemoryError, ScheduleError
from repro.hardware.spec import HardwareSpec
from repro.obs import span
from repro.runtime.schedule import EV_ALLOC, RESOURCE_CODES, RESOURCES, Schedule
from repro.runtime.timeline import ExecutedOp, Timeline

# Pools whose capacity is enforced: DRAM/disk planning errors are
# placement bugs, VRAM overflow is the paper's OOM condition.
ENFORCED_POOLS = ("vram",)


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution options."""

    check_memory: bool = True
    # "compiled" (vectorized fast path) or "legacy" (per-op reference).
    engine: str = "compiled"


class Executor:
    """Runs schedules against a :class:`HardwareSpec`."""

    def __init__(self, hardware: HardwareSpec, config: ExecutorConfig | None = None):
        self.hardware = hardware
        self.config = config or ExecutorConfig()

    def _capacities(self, capacities: dict[str, int] | None) -> dict[str, int]:
        if capacities is not None:
            return capacities
        return {
            "vram": self.hardware.usable_vram(),
            "dram": self.hardware.dram_bytes,
            "disk": self.hardware.disk_bytes,
        }

    def run(
        self,
        schedule: Schedule,
        *,
        capacities: dict[str, int] | None = None,
    ) -> Timeline:
        """Execute ``schedule``; returns the resulting :class:`Timeline`.

        The compiled engine freezes the schedule first (a no-op when it is
        already frozen). ``capacities`` overrides pool capacities
        (defaults to the hardware spec's usable VRAM / DRAM / disk sizes).
        """
        if self.config.engine == "legacy":
            with span("executor.legacy"):
                return self._run_legacy(schedule, capacities)
        with span("schedule.freeze"):
            schedule.freeze()
        return self._run_compiled(schedule, capacities)

    # ---- compiled engine ---------------------------------------------------

    def _run_compiled(
        self, schedule: Schedule, capacities: dict[str, int] | None
    ) -> Timeline:
        starts: list[float] = []
        ends: list[float] = []
        available = [0.0] * len(RESOURCES)
        append_start = starts.append
        append_end = ends.append
        timing_span = span("executor.timing_pass", {"ops": len(schedule)})
        try:
            # ``ends`` only holds already-finished ops, so a forward (or
            # self) dependency fails fast as an IndexError instead of
            # silently reading zero.
            for code, dur, deps in zip(schedule._res, schedule._dur, schedule._deps):
                t = available[code]
                for dep in deps:
                    dep_end = ends[dep]
                    if dep_end > t:
                        t = dep_end
                append_start(t)
                t += dur
                available[code] = t
                append_end(t)
        except IndexError:
            raise ScheduleError(
                f"op {len(ends)} has a forward or self dependency"
            ) from None
        finally:
            timing_span.__exit__()

        starts_arr = np.array(starts, dtype=np.float64)
        ends_arr = np.array(ends, dtype=np.float64)
        # bincount accumulates in array order, matching the legacy engine's
        # sequential ``+=`` float summation exactly.
        busy_arr = np.bincount(
            schedule.resources,
            weights=schedule.durations,
            minlength=len(RESOURCES),
        )
        busy = {resource: float(busy_arr[i]) for i, resource in enumerate(RESOURCES)}
        makespan = max(ends) if ends else 0.0

        with span("executor.memory_replay"):
            usage_arrays, peaks = self._replay_memory_compiled(
                schedule, starts_arr, ends_arr, self._capacities(capacities)
            )
        return Timeline(
            schedule,
            schedule.resources,
            starts_arr,
            ends_arr,
            makespan,
            busy,
            usage_arrays,
            peaks,
        )

    def _replay_memory_compiled(
        self,
        schedule: Schedule,
        starts: np.ndarray,
        ends: np.ndarray,
        capacities: dict[str, int],
    ) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], dict[str, int]]:
        """Vectorized replay: stable argsort by (time, kind), per-pool cumsum."""
        n_events = schedule.ev_op.shape[0]
        usage: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        peaks: dict[str, int] = {}
        if n_events == 0:
            return usage, peaks
        times = np.where(
            schedule.ev_kind == EV_ALLOC,
            starts[schedule.ev_op],
            ends[schedule.ev_op],
        )
        # Event arrays are already in replay (insertion) order, and lexsort
        # is stable, so ties on (time, kind) keep that order — exactly the
        # legacy engine's ``events.sort(key=(time, kind))``.
        order = np.lexsort((schedule.ev_kind, times))
        times_s = times[order]
        deltas_s = schedule.ev_delta[order]
        pools_s = schedule.ev_pool[order]

        oom: tuple[int, str, int, int] | None = None  # (rank, pool, delta, level)
        for code, pool in enumerate(schedule.pool_names):
            mask = pools_s == code
            if not mask.any():
                continue
            levels = np.cumsum(deltas_s[mask])
            peak = int(levels.max())
            if peak > 0:
                peaks[pool] = peak
            usage[pool] = (times_s[mask], levels)
            capacity = capacities.get(pool)
            if (
                self.config.check_memory
                and capacity is not None
                and pool in ENFORCED_POOLS
                and peak > capacity
            ):
                local = int(np.argmax(levels > capacity))
                rank = int(np.flatnonzero(mask)[local])
                if oom is None or rank < oom[0]:
                    oom = (rank, pool, int(deltas_s[mask][local]), int(levels[local]))
        if oom is not None:
            _, pool, delta, level = oom
            raise OutOfMemoryError(pool, delta, capacities[pool] - (level - delta))
        return usage, peaks

    # ---- legacy engine (executable specification) --------------------------

    def _run_legacy(
        self, schedule: Schedule, capacities: dict[str, int] | None
    ) -> Timeline:
        schedule.validate()
        available = {resource: 0.0 for resource in RESOURCES}
        busy = {resource: 0.0 for resource in RESOURCES}
        end_time: list[float] = []
        executed: list[ExecutedOp] = []
        makespan = 0.0

        for op in schedule:
            ready = available[op.resource]
            for dep in op.deps:
                dep_end = end_time[dep]
                if dep_end > ready:
                    ready = dep_end
            finish = ready + op.duration
            available[op.resource] = finish
            busy[op.resource] += op.duration
            end_time.append(finish)
            executed.append(ExecutedOp(op, ready, finish))
            if finish > makespan:
                makespan = finish

        usage, peaks = self._replay_memory(executed, self._capacities(capacities))
        return Timeline(
            schedule,
            np.array(
                [RESOURCE_CODES[e.op.resource] for e in executed], dtype=np.int16
            ),
            np.array([e.start for e in executed], dtype=np.float64),
            np.array([e.end for e in executed], dtype=np.float64),
            makespan,
            busy,
            {
                pool: (
                    np.array([t for t, _ in samples], dtype=np.float64),
                    np.array([v for _, v in samples], dtype=np.int64),
                )
                for pool, samples in usage.items()
            },
            peaks,
        )

    def _replay_memory(
        self,
        executed: list[ExecutedOp],
        capacities: dict[str, int],
    ) -> tuple[dict[str, list[tuple[float, int]]], dict[str, int]]:
        events: list[tuple[float, int, str, int, str]] = []
        for e in executed:
            # Frees sort before allocs at identical times (free-then-alloc
            # steady-state reuse should not double count).
            for effect in e.op.frees:
                events.append((e.end, 0, effect.pool, -effect.nbytes, e.op.label))
            for effect in e.op.allocs:
                events.append((e.start, 1, effect.pool, effect.nbytes, e.op.label))
        events.sort(key=lambda ev: (ev[0], ev[1]))

        usage: dict[str, list[tuple[float, int]]] = {}
        current: dict[str, int] = {}
        peaks: dict[str, int] = {}
        for time, _, pool, delta, label in events:
            level = current.get(pool, 0) + delta
            current[pool] = level
            usage.setdefault(pool, []).append((time, level))
            if level > peaks.get(pool, 0):
                peaks[pool] = level
            capacity = capacities.get(pool)
            if (
                self.config.check_memory
                and capacity is not None
                and pool in ENFORCED_POOLS
                and level > capacity
            ):
                raise OutOfMemoryError(pool, delta, capacity - (level - delta))
        return usage, peaks
