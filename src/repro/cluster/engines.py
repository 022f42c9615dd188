"""The batched execution engine for the cluster simulator.

The serial event loop in :mod:`repro.cluster.simulator` is the semantic
reference: one Python heap, one event at a time. That is exact but slow —
a million-request fleet study spends most of its time popping heap
entries. The ``batched`` engine produces a **bit-identical**
:class:`~repro.cluster.report.ClusterReport` (same records in the same
order, same floats, same counters), proven continuously by
:func:`repro.validation.run_cluster_differential`: when the router can
precompute its assignment
(:meth:`~repro.cluster.routers.Router.plan_assignments`), the stream is
partitioned per replica and each replica is swept by a *group-granular*
greedy scan (one iteration per dispatched group, not per event) that
reproduces the serial loop's grouping, timing, and tie-breaking
analytically; the scans are then merged in dispatching-event order.
Load-coupled routers fall back to the serial event loop itself (whose
queue already reads arrivals by pointer, not by heap).

Why the scan is exact (the equivalence argument the differential harness
re-checks empirically):

1. Every dispatch empties the replica queue — a full dispatch fires at
   exactly ``group_capacity`` queued requests and takes all of them; a
   deadline dispatch takes the whole (shorter) queue. Group membership is
   therefore a greedy partition of the replica's arrival-sorted stream.
2. With the canonical ``(time, kind, seq)`` event key
   (:mod:`repro.cluster.events`), a group headed at sorted index ``i``
   dispatches at the earlier of: the capacity-filling arrival
   ``a[i+cap-1]`` (arrivals outrank deadlines at equal times), or the
   earliest *live* deadline event within the loop's ``DEADLINE_EPS``
   tolerance of the head's deadline. Deadline events fire in arrival
   order, so that earliest event is the first index ``k`` whose arrival
   did not fill a group (fillers push no deadline), whose event is still
   pending when the head arrives (``a[k] + wait >= a[i]`` — older events
   were already consumed as no-ops), and which passes the loop's
   tolerance check ``a[i] + wait <= (a[k] + wait) + DEADLINE_EPS``
   evaluated with the loop's own float expressions (the rounding of the
   additions is part of the semantics — an arrival-scale comparison like
   ``a[k] >= a[i] - eps`` flips at representation boundaries). This
   reproduces even the stale-deadline early fire for arrivals closer
   together than ``DEADLINE_EPS``.
3. Records append during the dispatching event, so the global record
   order is the merge of per-replica groups by the dispatching event's
   ``(time, kind-priority, arrival-index)`` key; completions carry no
   records and their counter is order-independent.

The scans reuse :class:`~repro.cluster.replica.Replica` group timing
(memoized ``InferenceSystem`` runs) and the exact float expressions of
``Replica.dispatch``, which is what makes the reports identical to the
last bit rather than merely close.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import ulp
from typing import TYPE_CHECKING

from repro.cluster.events import ARRIVAL, DEADLINE, DEADLINE_EPS, KIND_PRIORITY
from repro.cluster.report import ClusterReport, ReplicaStats, make_record
from repro.obs import count
from repro.serving.requests import Request
from repro.serving.server import group_shape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.replica import Replica
    from repro.cluster.simulator import ClusterSimulator

#: Engine names accepted by :meth:`ClusterSimulator.run` and the CLI.
ENGINES = ("serial", "batched")

# Group records are only ever triggered by arrivals or deadlines (a
# simulator with an active fault plan or a non-group scheduler never
# reaches this module), so these two ranks order the merge exactly as
# the heap orders the dispatching events.
_P_ARRIVAL = KIND_PRIORITY[ARRIVAL]
_P_DEADLINE = KIND_PRIORITY[DEADLINE]


def run_batched(sim: "ClusterSimulator", requests: list[Request]) -> ClusterReport:
    """Execute ``requests`` on ``sim`` with the batched engine."""
    srt = sorted(requests, key=lambda r: r.arrival_s)
    plan = sim.router.plan_assignments(srt, sim.replicas)
    if plan is None:
        # Load-coupled routing (least-outstanding, affinity with overload
        # fallback) cannot be partitioned without replaying the global
        # event order, so the batched engine runs the serial loop.
        count("cluster.engine.inorder_fallback")
        return sim._run(srt)
    shards: list[list[int]] = [[] for _ in sim.replicas]
    for gi, rid in enumerate(plan):
        shards[rid].append(gi)
    wait = sim.config.max_wait_s
    scans = [
        _scan_replica(replica, srt, shards[rid], wait)
        for rid, replica in enumerate(sim.replicas)
    ]
    return _merge(sim, srt, shards, scans)


def _scan_replica(
    replica: "Replica", srt: list[Request], indices: list[int], wait: float
) -> tuple[list[tuple], ReplicaStats, float, int]:
    """Sweep one replica's assigned sub-stream group by group.

    ``wait`` is the fleet's partial-group deadline, ``max_wait_s``.

    Returns ``(groups, stats, free_at, full_dispatches)``: per-group
    dispatch tuples ``(time, priority, trigger-arrival-index, start,
    completion, prefill, member-lo, member-hi)``, the replica's
    :class:`ReplicaStats`, when it goes idle, and how many groups a
    filling arrival dispatched. An ``OutOfMemoryError`` from the
    underlying system run propagates.
    """
    reqs = [srt[gi] for gi in indices]
    arr = [r.arrival_s for r in reqs]
    m = len(reqs)
    cap = replica.group_capacity
    batch_size = replica.batch_size
    eps_win = min(DEADLINE_EPS, wait)
    resident = replica.resident_experts
    fetch_s = replica.expert_fetch_time_s()

    groups: list[tuple] = []
    timeline: list[tuple[float, int]] = []
    # Queue-depth decimation mirrors Replica.sample_queue_depth: the tick
    # advances per offered sample, so any stride reproduces the serial
    # loop's exact sample selection.
    timeline_stride = replica.timeline_stride
    timeline_tick = 0
    no_deadline = bytearray(m)  # 1 = this arrival filled a group (no event)
    free_at = 0.0
    busy_s = 0.0
    expert_misses = 0
    fulls = 0

    i = 0
    while i < m:
        if cap == 1:
            # Every arrival fills its own group the instant it is routed.
            full, time_s, j, trigger = True, arr[i], i + 1, indices[i]
        else:
            # Earliest live deadline event that can fire this group. The
            # serial loop decides `head.arrival_s + max_wait_s <= now + eps` in
            # plain float arithmetic at deadline magnitude, so the scan
            # must evaluate the very same expressions rather than the
            # algebraically equivalent `arr[k] >= arr[i] - eps` (the two
            # disagree at rounding boundaries — e.g. sub-EPS arrival
            # gaps summed to different paths). A non-filler arrival k
            # triggers the group headed at i iff its event is still
            # pending when the head arrives (arr[k] + wait >= arr[i];
            # earlier events fired as no-ops on an empty or older queue)
            # and the head's deadline sits inside the tolerance. Both
            # predicates are monotone in k, so the first qualifying
            # index wins; the bisect only supplies a conservative
            # starting point (slack covers the rounding of the float
            # predicates against the raw-arrival-scale threshold).
            head_deadline = arr[i] + wait
            k = bisect_left(arr, arr[i] - eps_win - 4.0 * ulp(head_deadline), 0, i)
            while k < i:
                if not no_deadline[k]:
                    dk = arr[k] + wait
                    if dk >= arr[i] and head_deadline <= dk + DEADLINE_EPS:
                        break
                k += 1
            deadline = arr[k] + wait
            last = i + cap - 1
            if last < m and arr[last] <= deadline:
                # The filling arrival outranks an equal-time deadline.
                full, time_s, j, trigger = True, arr[last], i + cap, indices[last]
                no_deadline[last] = 1
            else:
                # Arrivals at exactly the deadline instant enqueue first.
                j = bisect_right(arr, deadline, i, min(i + cap, m))
                full, time_s, trigger = False, deadline, indices[k]

        group = reqs[i:j]
        n_batches, prompt, gen = group_shape(group, batch_size)
        timing = replica._group_timing(n_batches, prompt, gen)
        missing = {
            r.hot_expert
            for r in group
            if r.hot_expert is not None and r.hot_expert not in resident
        }
        penalty = len(missing) * fetch_s
        start = max(time_s, free_at)
        duration = timing.total_s + penalty
        free_at = start + duration
        busy_s += duration
        expert_misses += len(missing)
        fulls += full
        for depth, request in enumerate(group):
            if timeline_tick % timeline_stride == 0:
                timeline.append((request.arrival_s, depth + 1))
            timeline_tick += 1
        if timeline_tick % timeline_stride == 0:
            timeline.append((time_s, 0))
        timeline_tick += 1
        groups.append(
            (
                time_s,
                _P_ARRIVAL if full else _P_DEADLINE,
                trigger,
                start,
                free_at,
                timing.prefill_s + penalty,
                i,
                j,
            )
        )
        i = j

    stats = ReplicaStats(
        replica_id=replica.replica_id,
        hardware=replica.hardware_name,
        system=replica.system_name,
        requests=m,
        groups=len(groups),
        busy_s=busy_s,
        expert_misses=expert_misses,
        resident_experts=tuple(sorted(resident)),
        queue_depth_timeline=timeline,
    )
    return groups, stats, free_at, fulls


def _merge(
    sim: "ClusterSimulator",
    srt: list[Request],
    shards: list[list[int]],
    scans: list[tuple],
) -> ClusterReport:
    """Fold per-replica scans into the serial loop's exact report."""
    report = ClusterReport(router=sim.router.name, slo_s=sim.config.slo_s)
    merged: list[tuple] = []
    for rid, (groups, _stats, _free_at, _fulls) in enumerate(scans):
        for group in groups:
            merged.append((group[0], group[1], group[2], rid, group))
    # Global record order == dispatching-event order. Within one
    # (time, kind) class the serial heap breaks ties FIFO by event seq,
    # which for both arrivals and deadline events is their triggering
    # request's position in the sorted stream.
    merged.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
    records = report.records
    for time_s, _prio, _trigger, rid, group in merged:
        start, completion, prefill, lo, hi = group[3:]
        first_token = start + prefill
        indices = shards[rid]
        for gi in indices[lo:hi]:
            request = srt[gi]
            records.append(
                make_record(
                    request,
                    rid,
                    time_s,
                    start,
                    completion,
                    first_token - request.arrival_s,
                )
            )
    report.replicas = [stats for _groups, stats, _free_at, _fulls in scans]
    report.makespan_s = max(
        (free_at for groups, _stats, free_at, _fulls in scans if groups),
        default=0.0,
    )
    fulls = sum(scan[3] for scan in scans)
    dispatched = len(merged)
    report.counters = {
        "arrivals": len(srt),
        "full_group_dispatches": fulls,
        "deadline_dispatches": dispatched - fulls,
        "dispatched_groups": dispatched,
        "completions": dispatched,
    }
    for name, value in report.counters.items():
        count(f"cluster.{name}", value)
    return report
