"""Machine-checked invariants over timelines, schedules, and cluster runs.

Each checker re-derives a property of a simulation result from first
principles and returns a list of :class:`Violation` records — an empty
list means the artifact is internally consistent. The checkers are the
reusable backbone of the validation subsystem: the scenario fuzzer runs
them on every generated case, the golden tests run them before snapshot
comparison, and future refactors (new engines, new schedulers) get a
semantic safety net for free.

Timeline invariants (:func:`check_timeline`):

* **causality** — every op starts at or after the latest end of its
  dependencies;
* **resource exclusivity** — ops on one resource never overlap and run
  FIFO in issue order (the CUDA-stream semantics of the executor);
* **duration consistency** — ``end - start`` equals the op's duration
  bit-for-bit (the executor computes ``end = start + duration``);
* **busy-time accounting** — per-resource busy seconds equal the sum of
  op durations on that resource, and the makespan is the max end time;
* **memory conservation** — replaying the alloc/free event stream never
  drives a pool level negative, the recorded peak matches the replay,
  and usage step functions agree with the replayed levels;
* **capacity** — enforced pools stay within their capacities (a timeline
  that exists at all must not have silently overflowed VRAM).

Cluster invariants (:func:`check_cluster`):

* **request conservation** — every submitted request reaches exactly one
  terminal record (``completed``, ``shed``, or ``failed`` under fault
  injection): none lost, none invented, none double-terminated;
* **record causality** — completed records dispatch at or after arrival,
  start at or after dispatch, complete after start, with non-negative
  TTFT and latency; shed/failed records collapse all three timestamps
  onto the terminal decision instant with zero TTFT;
* **replica serialization** — each replica executes its completed groups
  without overlap (one batch-group execution slot per replica);
* **downtime exclusion** — under fault injection, no completed record's
  execution interval overlaps its replica's recorded downtime windows;
* **accounting** — per-replica request counts sum to the completed-record
  count, goodput never exceeds throughput, SLO attainment matches an
  outcome-aware recount (shed/failed count against attainment), and the
  makespan covers the last terminal event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.report import ClusterReport
from repro.runtime.executor import ENFORCED_POOLS
from repro.runtime.schedule import EV_ALLOC, RESOURCES, Schedule
from repro.runtime.timeline import Timeline
from repro.serving.requests import Request

_EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One broken invariant.

    Attributes:
        invariant: short machine-readable invariant name (e.g.
            ``causality``, ``request-conservation``).
        message: human-readable description with the offending values.
    """

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


def check_timeline(
    schedule: Schedule,
    timeline: Timeline,
    *,
    capacities: dict[str, int] | None = None,
) -> list[Violation]:
    """Check every timeline invariant against its source schedule.

    Args:
        schedule: the schedule the timeline was produced from (frozen
            here if it is not already).
        timeline: the executed timeline under scrutiny.
        capacities: pool capacities the execution was bounded by (None
            skips the capacity invariant, which covers
            :data:`~repro.runtime.executor.ENFORCED_POOLS`).

    Returns:
        All violations found (empty when the timeline is consistent).
    """
    schedule.freeze()
    violations: list[Violation] = []
    n = len(schedule)
    starts, ends = timeline.starts, timeline.ends
    if len(starts) != n or len(ends) != n:
        violations.append(
            Violation(
                "op-count",
                f"timeline has {len(starts)} ops, schedule has {n}",
            )
        )
        return violations  # nothing else is meaningfully checkable

    durations = schedule.durations
    resources = schedule.resources

    # Duration consistency: the executor computes end = start + duration,
    # so that exact IEEE sum (not a re-rounded end - start) must hold.
    bad = np.flatnonzero(ends != starts + durations)
    for i in bad[:5]:
        violations.append(
            Violation(
                "duration",
                f"op {i}: end {ends[i]!r} != start {starts[i]!r} + "
                f"duration {durations[i]!r}",
            )
        )

    # Causality: an op starts no earlier than the latest end of its deps.
    indptr, indices = schedule.deps_csr()
    if len(indices):
        dep_ends = ends[indices]
        op_starts = np.repeat(starts, np.diff(indptr))
        bad = np.flatnonzero(op_starts < dep_ends)
        for k in bad[:5]:
            op = int(np.searchsorted(indptr, k, side="right")) - 1
            violations.append(
                Violation(
                    "causality",
                    f"op {op} starts at {op_starts[k]!r} before dep "
                    f"{int(indices[k])} ends at {dep_ends[k]!r}",
                )
            )

    # Resource exclusivity: FIFO, non-overlapping per resource.
    for code, name in enumerate(RESOURCES):
        mask = resources == code
        if mask.sum() < 2:
            continue
        r_starts, r_ends = starts[mask], ends[mask]
        bad = np.flatnonzero(r_starts[1:] < r_ends[:-1])
        for k in bad[:5]:
            violations.append(
                Violation(
                    "resource-exclusivity",
                    f"{name}: op at issue position {k + 1} starts at "
                    f"{r_starts[k + 1]!r} before predecessor ends at "
                    f"{r_ends[k]!r}",
                )
            )

    # Busy-time accounting and makespan.
    busy = np.bincount(resources, weights=durations, minlength=len(RESOURCES))
    for code, name in enumerate(RESOURCES):
        recorded = timeline.busy_time.get(name, 0.0)
        if recorded != float(busy[code]):
            violations.append(
                Violation(
                    "busy-time",
                    f"{name}: recorded busy {recorded!r} != summed "
                    f"durations {float(busy[code])!r}",
                )
            )
    expected_makespan = float(ends.max()) if n else 0.0
    if timeline.makespan != expected_makespan:
        violations.append(
            Violation(
                "makespan",
                f"recorded makespan {timeline.makespan!r} != max end "
                f"{expected_makespan!r}",
            )
        )

    violations.extend(
        _check_memory(schedule, timeline, starts, ends, capacities)
    )
    return violations


def _check_memory(
    schedule: Schedule,
    timeline: Timeline,
    starts: np.ndarray,
    ends: np.ndarray,
    capacities: dict[str, int] | None,
) -> list[Violation]:
    """Replay the memory-effect stream and compare against the timeline."""
    violations: list[Violation] = []
    if schedule.ev_op.shape[0] == 0:
        if timeline.memory_peak:
            violations.append(
                Violation(
                    "memory-replay",
                    f"timeline records peaks {timeline.memory_peak} but the "
                    "schedule has no memory effects",
                )
            )
        return violations

    times = np.where(
        schedule.ev_kind == EV_ALLOC, starts[schedule.ev_op], ends[schedule.ev_op]
    )
    order = np.lexsort((schedule.ev_kind, times))
    times_s = times[order]
    deltas_s = schedule.ev_delta[order]
    pools_s = schedule.ev_pool[order]

    seen_pools = set()
    for code, pool in enumerate(schedule.pool_names):
        mask = pools_s == code
        if not mask.any():
            continue
        seen_pools.add(pool)
        levels = np.cumsum(deltas_s[mask])
        if levels.min() < 0:
            first = int(np.argmax(levels < 0))
            violations.append(
                Violation(
                    "memory-conservation",
                    f"{pool}: level goes negative ({int(levels[first])} "
                    f"bytes) at t={float(times_s[mask][first])!r} — more "
                    "freed than allocated",
                )
            )
        peak = int(levels.max())
        recorded_peak = timeline.memory_peak.get(pool, 0)
        if max(peak, 0) != recorded_peak and not (peak <= 0 and recorded_peak == 0):
            violations.append(
                Violation(
                    "memory-peak",
                    f"{pool}: recorded peak {recorded_peak} != replayed "
                    f"peak {peak}",
                )
            )
        # array_equal also compares shapes: sample counts must match.
        recorded_times, recorded_levels = timeline.usage_arrays.get(
            pool, (np.empty(0), np.empty(0))
        )
        if not (
            np.array_equal(recorded_times, times_s[mask])
            and np.array_equal(recorded_levels, levels)
        ):
            violations.append(
                Violation(
                    "memory-replay",
                    f"{pool}: usage step function disagrees with replay "
                    f"({len(recorded_times)} vs {len(levels)} samples)",
                )
            )
        if capacities is not None and pool in ENFORCED_POOLS:
            capacity = capacities.get(pool)
            if capacity is not None and peak > capacity:
                violations.append(
                    Violation(
                        "capacity",
                        f"{pool}: peak {peak} exceeds capacity {capacity} "
                        "yet the execution did not raise OOM",
                    )
                )
    for pool in timeline.memory_peak:
        if pool not in seen_pools:
            violations.append(
                Violation(
                    "memory-replay",
                    f"{pool}: timeline records a peak but the schedule has "
                    "no effects for this pool",
                )
            )
    return violations


def _peak_overlap(intervals: list[tuple[float, float]]) -> tuple[int, float]:
    """Most half-open ``[start, end)`` intervals alive at one instant.

    A sweep over the sorted endpoints; at equal times ends (-1) sort
    before starts (+1), so an interval ending exactly where another
    begins does not overlap it. Returns ``(peak, first instant)``.
    """
    points = sorted(
        [(start, 1) for start, _ in intervals] + [(end, -1) for _, end in intervals]
    )
    live = peak = 0
    at = 0.0
    for time, delta in points:
        live += delta
        if live > peak:
            peak, at = live, time
    return peak, at


def check_cluster(
    report: ClusterReport, requests: list[Request]
) -> list[Violation]:
    """Check conservation, causality, and accounting of a cluster run.

    Args:
        report: the simulator's aggregate result.
        requests: the exact request stream that was submitted.

    Returns:
        All violations found (empty when the report is consistent).
    """
    violations: list[Violation] = []
    completed = [r for r in report.records if r.outcome == "completed"]

    # Request conservation: exactly one terminal record each (completed,
    # shed, or failed — a non-completed outcome is still terminal), none
    # invented, none terminated twice.
    submitted = {r.request_id: r for r in requests}
    if len(submitted) != len(requests):
        violations.append(
            Violation("request-conservation", "duplicate request ids submitted")
        )
    served: dict[int, int] = {}
    for record in report.records:
        served[record.request.request_id] = (
            served.get(record.request.request_id, 0) + 1
        )
    lost = sorted(set(submitted) - set(served))
    if lost:
        violations.append(
            Violation(
                "request-conservation",
                f"{len(lost)} requests never reached a terminal record "
                f"(first: {lost[:5]})",
            )
        )
    invented = sorted(set(served) - set(submitted))
    if invented:
        violations.append(
            Violation(
                "request-conservation",
                f"records contain unknown request ids {invented[:5]}",
            )
        )
    doubled = sorted(rid for rid, count in served.items() if count > 1)
    if doubled:
        violations.append(
            Violation(
                "double-dispatch",
                f"{len(doubled)} requests terminated more than once "
                f"(first: {doubled[:5]})",
            )
        )

    # Per-record validity and causality (outcome-aware).
    for record in report.records:
        rid = record.request.request_id
        if record.outcome not in ("completed", "shed", "failed"):
            violations.append(
                Violation(
                    "record-outcome",
                    f"request {rid} has unknown outcome {record.outcome!r}",
                )
            )
            continue
        arrival = record.request.arrival_s
        if record.outcome != "completed":
            # Terminal drops collapse every timestamp onto the decision
            # instant; the decision can never precede arrival.
            if not (record.dispatch_s == record.start_s == record.completion_s):
                violations.append(
                    Violation(
                        "record-causality",
                        f"{record.outcome} request {rid} has non-collapsed "
                        f"timestamps ({record.dispatch_s!r}, "
                        f"{record.start_s!r}, {record.completion_s!r})",
                    )
                )
            if record.ttft_s != 0.0:
                violations.append(
                    Violation(
                        "record-causality",
                        f"{record.outcome} request {rid} has nonzero "
                        f"ttft {record.ttft_s!r}",
                    )
                )
            if record.completion_s < arrival - _EPS:
                violations.append(
                    Violation(
                        "record-causality",
                        f"{record.outcome} request {rid} decided at "
                        f"{record.completion_s!r} before arrival {arrival!r}",
                    )
                )
            continue
        if record.dispatch_s < arrival - _EPS:
            violations.append(
                Violation(
                    "record-causality",
                    f"request {rid} dispatched at "
                    f"{record.dispatch_s!r} before arrival {arrival!r}",
                )
            )
        if record.start_s < record.dispatch_s - _EPS:
            violations.append(
                Violation(
                    "record-causality",
                    f"request {rid} starts at "
                    f"{record.start_s!r} before dispatch {record.dispatch_s!r}",
                )
            )
        if record.completion_s < record.start_s - _EPS:
            violations.append(
                Violation(
                    "record-causality",
                    f"request {rid} completes at "
                    f"{record.completion_s!r} before start {record.start_s!r}",
                )
            )
        if record.ttft_s < -_EPS or record.latency_s < -_EPS:
            violations.append(
                Violation(
                    "record-causality",
                    f"request {rid} has negative "
                    f"ttft ({record.ttft_s!r}) or latency "
                    f"({record.latency_s!r})",
                )
            )
        if record.attempts < 1:
            violations.append(
                Violation(
                    "record-outcome",
                    f"completed request {rid} records "
                    f"{record.attempts} attempts",
                )
            )

    # Replica serialization: one execution slot per replica. Requests of
    # one group legitimately share an interval, so records collapse to
    # distinct (start, completion) intervals per replica; the per-replica
    # group count then cross-checks that no *two groups* hid behind one
    # interval (identical positive-duration intervals are by construction
    # a double-booked slot — a correct simulator advances `free_at` past
    # every positive-duration group before starting the next).
    # Only completed records occupy an execution slot — shed/failed
    # records are zero-duration bookkeeping stamps at the decision time
    # and may legitimately fall inside another group's interval.
    # Under the continuous scheduler requests on one replica overlap by
    # design (iteration-level admission interleaves them), so the
    # serialization invariant does not apply. Instead busy time never
    # exceeds the makespan (decode steps do not overlap), and at no
    # instant do more completed half-open [start, completion) intervals
    # overlap than the replica's running-batch capacity.
    continuous = getattr(report, "scheduler", "group") == "continuous"
    by_replica: dict[int, set[tuple[float, float]]] = {}
    for record in completed:
        by_replica.setdefault(record.replica_id, set()).add(
            (record.start_s, record.completion_s)
        )
    stats_by_id = {stats.replica_id: stats for stats in report.replicas}
    if continuous:
        spans: dict[int, list[tuple[float, float]]] = {}
        for record in completed:
            spans.setdefault(record.replica_id, []).append(
                (record.start_s, record.completion_s)
            )
        for stats in report.replicas:
            if stats.busy_s > report.makespan_s + _EPS:
                violations.append(
                    Violation(
                        "replica-serialization",
                        f"replica {stats.replica_id}: busy {stats.busy_s!r} s "
                        f"exceeds makespan {report.makespan_s!r} s "
                        "(overlapping decode steps)",
                    )
                )
            if stats.batch_capacity is None:
                continue
            peak, at = _peak_overlap(spans.get(stats.replica_id, []))
            if peak > stats.batch_capacity:
                violations.append(
                    Violation(
                        "batch-capacity",
                        f"replica {stats.replica_id}: {peak} completed "
                        f"requests running at {at!r} s exceed its batch "
                        f"capacity {stats.batch_capacity}",
                    )
                )
    else:
        for replica_id, intervals in sorted(by_replica.items()):
            ordered = sorted(intervals)
            for (s0, e0), (s1, _e1) in zip(ordered, ordered[1:]):
                if s1 < e0 - _EPS:
                    violations.append(
                        Violation(
                            "replica-serialization",
                            f"replica {replica_id}: group starting {s1!r} "
                            f"overlaps group [{s0!r}, {e0!r}]",
                        )
                    )
            stats = stats_by_id.get(replica_id)
            if stats is not None and stats.groups > len(ordered):
                # More groups than distinct intervals: several groups shared
                # one slot period. Only zero-duration groups may coincide
                # legally, so with every interval positive this is definite
                # double-booking (with zero-duration intervals present the
                # duplicate cannot be attributed, so stay silent).
                if all(end - start > _EPS for start, end in ordered):
                    violations.append(
                        Violation(
                            "replica-serialization",
                            f"replica {replica_id}: {stats.groups} groups "
                            f"share {len(ordered)} distinct positive-duration "
                            "slot intervals (double-booked execution slot)",
                        )
                    )

    # Replica exclusivity: a request completes on one replica only — a
    # completed interval on a second replica means it ran twice.
    completed_on: dict[int, int] = {}
    for record in completed:
        rid = record.request.request_id
        first = completed_on.setdefault(rid, record.replica_id)
        if first != record.replica_id:
            violations.append(
                Violation(
                    "replica-exclusivity",
                    f"request {rid} completed on replicas {first} and "
                    f"{record.replica_id}",
                )
            )

    # Downtime exclusion: a completed group's interval must never
    # overlap a downtime window of its replica — a crash aborts every
    # pending group, so nothing can finish while the replica is down.
    windows = (report.availability or {}).get("downtime_windows", {})
    for replica_id, replica_windows in sorted(windows.items()):
        intervals = sorted(by_replica.get(int(replica_id), ()))
        for w_start, w_end in replica_windows:
            for start, end in intervals:
                if min(end, w_end) - max(start, w_start) > _EPS:
                    violations.append(
                        Violation(
                            "downtime-exclusion",
                            f"replica {replica_id}: completed group "
                            f"[{start!r}, {end!r}] overlaps downtime "
                            f"window [{w_start!r}, {w_end!r}]",
                        )
                    )

    # Accounting sums. Replica stats only count groups that actually ran
    # to completion on the replica (crashes roll aborted groups back), so
    # the recount is against completed records.
    stats_requests = sum(stats.requests for stats in report.replicas)
    if report.replicas and stats_requests != len(completed):
        violations.append(
            Violation(
                "accounting",
                f"replica stats count {stats_requests} requests, report "
                f"has {len(completed)} completed records",
            )
        )
    if report.goodput > report.throughput + _EPS:
        violations.append(
            Violation(
                "accounting",
                f"goodput {report.goodput!r} exceeds throughput "
                f"{report.throughput!r}",
            )
        )
    if not 0.0 <= report.slo_attainment <= 1.0:
        violations.append(
            Violation(
                "accounting",
                f"slo_attainment {report.slo_attainment!r} outside [0, 1]",
            )
        )
    if report.records:
        # Shed/failed requests count against attainment: only completed
        # records can meet the SLO, but the denominator is every request.
        met = sum(1 for r in completed if r.latency_s <= report.slo_s)
        if abs(report.slo_attainment - met / len(report.records)) > _EPS:
            violations.append(
                Violation(
                    "accounting",
                    f"slo_attainment {report.slo_attainment!r} != recount "
                    f"{met / len(report.records)!r}",
                )
            )
        last = max(r.completion_s for r in report.records)
        if report.makespan_s < last - _EPS:
            violations.append(
                Violation(
                    "accounting",
                    f"makespan {report.makespan_s!r} before last "
                    f"terminal event {last!r}",
                )
            )
        tokens = sum(r.request.gen_len for r in completed)
        if report.generated_tokens != tokens:
            violations.append(
                Violation(
                    "accounting",
                    f"generated_tokens {report.generated_tokens} != summed "
                    f"{tokens} over completed records",
                )
            )
    if report.availability:
        counts = {
            "completed": len(completed),
            "shed": sum(1 for r in report.records if r.outcome == "shed"),
            "failed": sum(1 for r in report.records if r.outcome == "failed"),
        }
        for key, expected in counts.items():
            if report.availability.get(key) != expected:
                violations.append(
                    Violation(
                        "accounting",
                        f"availability[{key!r}] = "
                        f"{report.availability.get(key)} != recount "
                        f"{expected}",
                    )
                )
    return violations
