"""Fleet-scale execution engines for the cluster simulator.

The serial event loop in :mod:`repro.cluster.simulator` is the semantic
reference: one Python heap, one event at a time. That is exact but slow —
a million-request fleet study spends minutes popping heap entries. This
module provides two faster engines that produce **bit-identical**
:class:`~repro.cluster.report.ClusterReport` objects (same records in the
same order, same floats, same counters), proven continuously by
:func:`repro.validation.run_cluster_differential`:

* ``batched`` — when the router can precompute its assignment
  (:meth:`~repro.cluster.routers.Router.plan_assignments`), the stream is
  partitioned per replica and each replica is swept by a *group-granular*
  greedy scan (one iteration per dispatched group, not per event) that
  reproduces the serial loop's grouping, timing, and tie-breaking
  analytically. Load-coupled routers fall back to the serial event loop
  itself (whose queue already reads arrivals by pointer, not by heap).
* ``sharded`` — the same per-replica scans fanned out over a
  ``multiprocessing`` fork pool, merged deterministically in replica
  order (counters, records, and obs buffers folded shard by shard, the
  same parallel==serial construction as ``experiments.Runner``).

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
   earliest *live* deadline event within the loop's ``_EPS`` tolerance of
   the head's deadline. Deadline events fire in arrival order, so that
   earliest event is the first index ``k`` whose arrival did not fill a
   group (fillers push no deadline), whose event is still pending when
   the head arrives (``a[k] + wait >= a[i]`` — older events were already
   consumed as no-ops), and which passes the loop's tolerance check
   ``a[i] + wait <= (a[k] + wait) + _EPS`` evaluated with the loop's own
   float expressions (the rounding of the additions is part of the
   semantics — an arrival-scale comparison like ``a[k] >= a[i] - eps``
   flips at representation boundaries). This reproduces even the
   stale-deadline early fire for arrivals closer together than ``_EPS``.
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

import os
from bisect import bisect_left, bisect_right
from math import ulp
from multiprocessing import get_context
from typing import TYPE_CHECKING

from repro import obs
from repro.cluster.report import ClusterReport, ReplicaStats, make_record
from repro.errors import OutOfMemoryError
from repro.obs import count
from repro.serving.requests import Request
from repro.serving.server import group_shape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.replica import Replica
    from repro.cluster.simulator import ClusterSimulator

#: Engine names accepted by :meth:`ClusterSimulator.run` and the CLI.
ENGINES = ("serial", "batched", "sharded")

_EPS = 1e-9  # matches the serial loop's deadline tolerance

# Event-kind priorities, mirrored from repro.cluster.events.KIND_PRIORITY
# (plain ints here so group tuples stay cheap to build and pickle). The
# fast engines never see fault/control kinds — a simulator with an
# active fault plan falls back to the faulted serial loop before
# reaching this module — and group records are only ever triggered by
# arrivals or deadlines, so only these two ranks are mirrored; their
# relative order is what matters and matches the heap's.
_P_ARRIVAL = 8
_P_DEADLINE = 9


def run_engine(
    sim: "ClusterSimulator", requests: list[Request], *, engine: str, jobs: int = 1
) -> ClusterReport:
    """Execute ``requests`` on ``sim`` with the named non-serial engine."""
    srt = sorted(requests, key=lambda r: r.arrival_s)
    if engine == "batched":
        return _run_planned(sim, srt, jobs=1)
    if engine == "sharded":
        return _run_planned(sim, srt, jobs=jobs)
    raise ValueError(f"unknown cluster engine {engine!r}; choose from {ENGINES}")


# ---------------------------------------------------------------------------
# planned path: partition per replica, scan groups, merge deterministically
# ---------------------------------------------------------------------------


def _run_planned(
    sim: "ClusterSimulator", srt: list[Request], *, jobs: int
) -> ClusterReport:
    plan = sim.router.plan_assignments(srt, sim.replicas)
    if plan is None:
        # Load-coupled routing (least-outstanding, affinity with overload
        # fallback) cannot be partitioned without replaying the global
        # event order, so both fast engines run the serial loop.
        count("cluster.engine.inorder_fallback")
        return sim._run(srt)
    shards: list[list[int]] = [[] for _ in sim.replicas]
    for gi, rid in enumerate(plan):
        shards[rid].append(gi)
    if jobs > 1:
        outcomes = _scan_pooled(sim, srt, shards, jobs)
    else:
        outcomes = [
            _scan_replica(replica, srt, shards[rid])
            for rid, replica in enumerate(sim.replicas)
        ]
    for outcome in outcomes:
        oom = outcome.get("oom")
        if oom is not None:
            raise OutOfMemoryError(*oom)
    return _merge(sim, srt, shards, outcomes)


def _scan_replica(
    replica: "Replica", srt: list[Request], indices: list[int]
) -> dict:
    """Sweep one replica's assigned sub-stream group by group.

    Returns a compact, picklable outcome: per-group dispatch tuples
    ``(time, priority, trigger-arrival-index, start, completion, prefill,
    member-lo, member-hi)`` plus the replica's queue-depth timeline and
    scalar telemetry. Raises nothing — an OOM from the underlying system
    run is captured in the outcome so pool workers can ship the exact
    constructor fields home (the custom ``OutOfMemoryError.__init__``
    does not survive default exception pickling).
    """
    reqs = [srt[gi] for gi in indices]
    arr = [r.arrival_s for r in reqs]
    m = len(reqs)
    cap = replica.batching.group_capacity
    batch_size = replica.batching.batch_size
    wait = replica.batching.max_wait_s
    eps_win = min(_EPS, wait)
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
    deadline_fires = 0
    outcome = {
        "replica_id": replica.replica_id,
        "groups": groups,
        "timeline": timeline,
        "free_at": 0.0,
        "busy_s": 0.0,
        "expert_misses": 0,
        "requests": m,
        "full_dispatches": 0,
        "deadline_dispatches": 0,
        "oom": None,
    }

    i = 0
    while i < m:
        if cap == 1:
            # Every arrival fills its own group the instant it is routed.
            full, time_s, j, trigger = True, arr[i], i + 1, indices[i]
        else:
            # Earliest live deadline event that can fire this group. The
            # serial loop decides `oldest_deadline() <= now + _EPS` in
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
                    if dk >= arr[i] and head_deadline <= dk + _EPS:
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
        try:
            timing = replica._group_timing(n_batches, prompt, gen)
        except OutOfMemoryError as exc:
            outcome["oom"] = (exc.pool, exc.requested, exc.available)
            break
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
        if full:
            fulls += 1
        else:
            deadline_fires += 1
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

    outcome["free_at"] = free_at
    outcome["busy_s"] = busy_s
    outcome["expert_misses"] = expert_misses
    outcome["full_dispatches"] = fulls
    outcome["deadline_dispatches"] = deadline_fires
    return outcome


def _merge(
    sim: "ClusterSimulator",
    srt: list[Request],
    shards: list[list[int]],
    outcomes: list[dict],
) -> ClusterReport:
    """Fold per-replica outcomes into the serial loop's exact report."""
    report = ClusterReport(router=sim.router.name, slo_s=sim.config.slo_s)
    merged: list[tuple] = []
    for rid, outcome in enumerate(outcomes):
        for group in outcome["groups"]:
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
    report.replicas = [
        ReplicaStats(
            replica_id=replica.replica_id,
            hardware=replica.hardware_name,
            system=replica.system_name,
            requests=outcome["requests"],
            groups=len(outcome["groups"]),
            busy_s=outcome["busy_s"],
            expert_misses=outcome["expert_misses"],
            resident_experts=tuple(sorted(replica.resident_experts)),
            queue_depth_timeline=list(outcome["timeline"]),
        )
        for replica, outcome in zip(sim.replicas, outcomes)
    ]
    report.makespan_s = max(
        (o["free_at"] for o in outcomes if o["groups"]), default=0.0
    )
    fulls = sum(o["full_dispatches"] for o in outcomes)
    deadline_fires = sum(o["deadline_dispatches"] for o in outcomes)
    report.counters = {
        "arrivals": len(srt),
        "full_group_dispatches": fulls,
        "deadline_dispatches": deadline_fires,
        "dispatched_groups": fulls + deadline_fires,
        "completions": fulls + deadline_fires,
    }
    for name, value in report.counters.items():
        count(f"cluster.{name}", value)
    return report


# ---------------------------------------------------------------------------
# sharded path: the same scans across a fork pool, merged in shard order
# ---------------------------------------------------------------------------

# Fork-inherited context: (replicas, sorted requests, per-replica indices).
# Set in the parent right before the pool spawns so workers read it by
# copy-on-write instead of pickling a million Request objects per task.
_SHARD_CONTEXT: tuple | None = None


def _pool_init(tracing: bool) -> None:
    # Drop obs buffers inherited from the parent so each worker reports
    # only its own activity (same discipline as experiments.Runner).
    obs.collect()
    if tracing:
        obs.enable()


def _shard_worker(replica_ids: list[int]) -> tuple[list[dict], dict]:
    replicas, srt, shards = _SHARD_CONTEXT
    outcomes = []
    for rid in replica_ids:
        outcome = _scan_replica(replicas[rid], srt, shards[rid])
        outcomes.append(outcome)
        if outcome["oom"] is not None:
            break
    return outcomes, obs.collect()


def _scan_pooled(
    sim: "ClusterSimulator",
    srt: list[Request],
    shards: list[list[int]],
    jobs: int,
) -> list[dict]:
    global _SHARD_CONTEXT
    n_replicas = len(sim.replicas)
    jobs = max(1, min(jobs, n_replicas, os.cpu_count() or 1))
    try:
        ctx = get_context("fork")
    except ValueError:
        ctx = None
    if jobs == 1 or ctx is None:
        if ctx is None:
            count("cluster.engine.pool_unavailable")
        return [
            _scan_replica(replica, srt, shards[rid])
            for rid, replica in enumerate(sim.replicas)
        ]
    # Contiguous balanced chunks keep the merge order trivially equal to
    # replica order regardless of worker scheduling.
    chunks: list[list[int]] = [[] for _ in range(jobs)]
    for rid in range(n_replicas):
        chunks[rid * jobs // n_replicas].append(rid)
    _SHARD_CONTEXT = (sim.replicas, srt, shards)
    try:
        with ctx.Pool(
            jobs, initializer=_pool_init, initargs=(obs.enabled(),)
        ) as pool:
            results = pool.map(_shard_worker, chunks)
    finally:
        _SHARD_CONTEXT = None
    outcomes: list[dict] = []
    for worker_index, (chunk_outcomes, payload) in enumerate(results):
        outcomes.extend(chunk_outcomes)
        obs.merge(payload, worker=worker_index + 1)
    # A worker stops scanning its chunk at the first OOM; pad so the
    # caller sees one outcome per replica and raises deterministically.
    if len(outcomes) < n_replicas:
        by_id = {o["replica_id"]: o for o in outcomes}
        outcomes = [
            by_id.get(rid)
            or {"replica_id": rid, "groups": [], "oom": None}
            for rid in range(n_replicas)
        ]
        first = min(
            o["replica_id"] for o in by_id.values() if o["oom"] is not None
        )
        outcomes[0], outcomes[first] = outcomes[first], outcomes[0]
    return outcomes
