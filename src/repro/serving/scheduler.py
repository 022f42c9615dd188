"""Iteration-level (continuous-batching) cluster scheduling.

The historical cluster loop (:class:`~repro.cluster.simulator.ClusterSimulator`)
is *group-granular*: a batch group is formed, dispatched, and holds its
replica's execution slot until every member finishes — the straightforward
serving shape of the paper's throughput-oriented design. This module adds
the iteration-level alternative popularized by Orca/vLLM: replicas advance
in *decode steps*, and at every step boundary the scheduler

* **admits** queued requests into the running batch (SLO-class priority:
  interactive tenants are admitted first, FIFO within a class),
* **preempts** running requests when the KV-cache budget is exceeded
  (non-protected classes first, latest-admitted first, ties by request
  id; a preempted request re-enters the queue front with its generation
  progress discarded — squash-and-replay), and
* **completes** requests the moment their last token is generated,
  instead of at the end of their group.

The KV budget is sized from the model's cache footprint
(:meth:`~repro.model.config.ModelConfig.kv_bytes`) against the replica's
usable VRAM, with :class:`~repro.model.kvcache.StreamingConfig` sink+window
retention honored when the replica's system enables sparse attention
(a streaming request's footprint saturates at ``sinks + window``).

Event model: one new kind, :data:`~repro.cluster.events.DECODE_STEP`,
rides the existing ``(time, kind-priority, seq)`` heap. It is ranked
*after* every other kind so all arrivals and retries stamped at time *t*
are routed before the boundary at *t* admits. Step results (token
increments, first-token stamps, completions) are committed when the
boundary event pops and its epoch still matches the replica's — a crash
mid-step bumps the epoch, so the step's work is discarded and its
in-flight requests retry, which is what makes preempt-then-crash-then-
retry sequences conserve requests exactly once.

Fault composition mirrors :mod:`repro.cluster.faults`: crash/recover,
join/drain, straggler windows, transient admission failures with circuit
breakers, retries with seeded backoff, and depth-based load shedding all
behave as in the group loop. Deadline-slack shedding is depth-only here:
with per-step admission a replica's backlog horizon is one decode step,
so the slack signal the group loop sheds on does not exist.

Per-request records keep the causality contract of
:func:`repro.validation.check_cluster`: ``dispatch_s == start_s`` is the
admission boundary, ``completion_s`` the final step's end, and ``ttft_s``
the end of the admission step (prefill happens within it). Requests on
one replica legitimately overlap in time, so instead of the group loop's
replica-serialization invariant the checker bounds ``busy_s`` by the
makespan and the number of overlapping completed intervals by the
replica's batch capacity (``ReplicaStats.batch_capacity``).

Cost per step boundary is proportional to the requests it touches, not
to the queue or batch size: waiting requests sit in per-class FIFO
deques (admission pops heads, preemption pushes a head back), the KV
footprint of the running batch is a counter kept current as requests
join, step and leave, and each running request is filed under the step
on which it will finish, so a commit visits only its finishers. Only
sink+window streaming replicas recount the footprint per entry each
step, since theirs saturates.

Everything is deterministic: same seed, same stream, same report —
bit for bit — which the group-vs-continuous conservation differential
(:func:`repro.validation.run_scheduler_differential`) relies on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, count as counter
from operator import attrgetter, itemgetter

from repro.api.registry import register_scheduler
from repro.cluster.events import (
    ARRIVAL,
    CRASH,
    DECODE_STEP,
    DRAIN,
    JOIN,
    RECOVER,
    RETRY,
    SLOW_END,
    SLOW_START,
    EventQueue,
)
from repro.cluster.report import ClusterReport, ReplicaStats, make_record
from repro.obs import count, span
from repro.serving.requests import Request

_EPS = 1e-9

# Fraction of usable VRAM the derived KV budget may occupy — the rest
# holds weights and activations. Tests that need to force preemption
# pass an explicit ``kv_budget_tokens`` instead of tuning this.
KV_FRACTION = 0.5

# Default per-class latency targets as multiples of the fleet ``slo_s``:
# interactive tenants are held to half the fleet bound, batch tenants
# get double. Unknown classes fall back to 1x.
SLO_CLASS_TARGETS = {"interactive": 0.5, "standard": 1.0, "batch": 2.0}


@dataclass(slots=True, eq=False)
class _Active:
    """One request in a replica's running batch.

    Its generated-token count is implicit: ``steps - start_step`` for the
    replica's committed step count ``steps``. ``alive`` goes False when
    the entry is preempted, so the step it was filed under skips it.
    Identity equality/hash: entries are members of ordered-set dicts.
    """

    request: Request
    admitted_s: float
    start_step: int
    ordinal: int
    first_token_s: float | None = None
    alive: bool = True


def _streaming(replica):
    """The replica system's sink+window retention policy, if enabled."""
    options = getattr(replica.system, "options", None)
    sparse = getattr(options, "sparse_attention", None)
    if sparse is None:
        return None
    return sparse.streaming()


def _footprint(streaming, tokens: int) -> int:
    """KV tokens a request holds after materializing ``tokens`` total."""
    if streaming is None:
        return int(tokens)
    return streaming.retained_tokens(tokens)


class Scheduler:
    """Base class for registry-backed cluster dispatch disciplines.

    A scheduler owns the full event loop for one simulation run. It is
    instantiated per run as ``cls(simulator)`` and consumes the
    simulator's replicas/router/config exactly like the built-in loop.
    """

    name = "base"

    def __init__(self, sim):
        self.sim = sim

    def run(self, requests: list[Request]) -> ClusterReport:
        raise NotImplementedError


@register_scheduler("group")
class GroupScheduler(Scheduler):
    """The historical group-granular loop, as a registry entry.

    ``ClusterSimulator.run`` never diverts for the default ``"group"``
    name (golden safety: that path stays byte-identical), so this class
    exists for registry completeness — ``scheduler_names()`` lists it,
    and driving it directly reproduces the simulator's own loops,
    faulted or not.
    """

    name = "group"

    def run(self, requests: list[Request]) -> ClusterReport:
        sim = self.sim
        if sim.faults is not None and sim.faults.active():
            return sim._run_faulted(requests)
        return sim._run(requests)


@register_scheduler("continuous")
class ContinuousScheduler(Scheduler):
    """Iteration-level admission, preemption, and completion.

    Args:
        sim: the :class:`~repro.cluster.simulator.ClusterSimulator`.
        kv_budget_tokens: explicit per-replica KV budget (tokens);
            ``None`` derives it from the replica's usable VRAM and the
            model's per-token KV bytes. Tests use a tiny explicit budget
            to exercise preemption deterministically.

    Step-timing model, calibrated once per replica from the memoized
    group timing of the reference workload shape (so the underlying
    pipeline simulation is probed exactly once):

    * ``decode_ref_s`` — decode time per step at full batch capacity,
      ``(total_s - prefill_s) / gen_ref``; a step over ``B`` running
      requests costs ``decode_ref_s * B / capacity``.
    * ``prefill_tok_s`` — prefill throughput; a boundary that admits
      requests adds their summed prompt tokens at this rate (chunked
      prefill piggybacking on the step), plus the expert-fetch penalty
      for newly admitted hot experts without residency.

    Both scale with the fault layer's straggler ``slow_factor``.
    """

    name = "continuous"

    def __init__(self, sim, *, kv_budget_tokens: int | None = None):
        super().__init__(sim)
        self.kv_budget_tokens = kv_budget_tokens

    def _kv_budget(self, replica, streaming) -> int:
        if self.kv_budget_tokens is not None:
            return max(1, int(self.kv_budget_tokens))
        scenario = replica.scenario
        per_token = max(1, scenario.model.kv_bytes(1))
        derived = int(scenario.hardware.usable_vram() * KV_FRACTION) // per_token
        # Never derive a budget smaller than one reference request: the
        # scheduler force-admits into an empty batch regardless, but a
        # sub-request budget would preempt every concurrent admission.
        workload = scenario.workload
        floor = _footprint(streaming, workload.prompt_len + workload.gen_len)
        return max(derived, floor, 1)

    def run(self, requests: list[Request]) -> ClusterReport:
        sim = self.sim
        replicas = sim.replicas
        n = len(replicas)
        report = ClusterReport(router=sim.router.name, slo_s=sim.config.slo_s)
        events = EventQueue(sorted(requests, key=lambda r: r.arrival_s))
        push = events.push

        cfg = sim.faults if sim.faults is not None and sim.faults.active() else None
        plan = None
        retry = None
        if cfg is not None:
            from repro.cluster.faults import (
                RetryPolicy,
                compile_fault_plan,
                fault_horizon_s,
            )

            plan = compile_fault_plan(cfg, n, fault_horizon_s(cfg, requests))
            retry = sim.retry or RetryPolicy()
        protect_class = cfg.shed_protect_class if cfg is not None else "interactive"

        # Per-replica calibration (one group-timing probe each, memoized).
        caps = [r.batching.group_capacity for r in replicas]
        streamings = [_streaming(r) for r in replicas]
        budgets = [
            self._kv_budget(r, s) for r, s in zip(replicas, streamings)
        ]
        decode_ref = []
        prefill_tok_s = []
        fetch_s = []
        for replica in replicas:
            workload = replica.scenario.workload
            gen_ref = max(workload.gen_len, 1)
            timing = replica._group_timing(
                replica.batching.group_batches,
                workload.prompt_len,
                workload.gen_len,
            )
            decode_ref.append(
                max(timing.total_s - timing.prefill_s, _EPS) / gen_ref
            )
            prefill_tok_s.append(
                replica.batching.group_capacity
                * max(workload.prompt_len, 1)
                / max(timing.prefill_s, _EPS)
            )
            fetch_s.append(replica.expert_fetch_time_s())

        # Per-replica scheduler state, indexed by replica_id.
        #
        # Waiting requests live in two FIFO deques of ``(key, request)``:
        # the protected class and the rest. Admission takes a prefix of
        # "protected, then the rest", so it only ever pops deque heads.
        # Keys rebuild the single merged queue that crash, drain and the
        # final flush requeue from: appends draw increasing keys from
        # ``back``, preemption's front reinsertions decreasing negative
        # ones from ``front``, so both deques stay key-sorted.
        queue_p = [deque() for _ in range(n)]
        queue_o = [deque() for _ in range(n)]
        queued = [0] * n
        back = counter()
        front = counter(-1, -1)
        # The running batch: admission-ordered dicts used as ordered sets
        # (protected, rest); the latest-admitted non-protected entry is
        # the rest dict's ``popitem()``.
        run_p: list[dict[_Active, None]] = [{} for _ in range(n)]
        run_o: list[dict[_Active, None]] = [{} for _ in range(n)]
        kv_used = [0] * n  # KV tokens the running batch holds
        # Running entries filed by the step count at which they finish,
        # so a step commit touches only its finishers.
        finish_at: list[dict[int, list[_Active]]] = [{} for _ in range(n)]
        ordinal = counter()  # admission order across run_p/run_o
        step_pending = [False] * n
        epoch = [0] * n  # bumped on crash; stale step events are skipped
        steps = [0] * n  # committed decode steps (ReplicaStats.groups)
        completed_on = [0] * n
        last_step_end = [0.0] * n
        up = [True] * n
        draining = [False] * n
        join_s = [0.0] * n
        drain_s: list[float | None] = [None] * n
        crash_open_s: list[float | None] = [None] * n
        down_windows: list[list[tuple[float, float]]] = [[] for _ in range(n)]
        dispatch_seq = [0] * n  # transient-oracle ordinal per replica
        consec_fail = [0] * n
        breaker_until = [0.0] * n
        attempts: dict[int, int] = {}
        budget_used = 0

        counters = {
            "arrivals": 0,
            "admitted_requests": 0,
            "decode_steps": 0,
            "preemptions": 0,
            "completions": 0,
        }
        if cfg is not None:
            counters.update(
                crashes=0,
                recoveries=0,
                joins=0,
                drains=0,
                straggler_windows=0,
                transient_failures=0,
                breaker_trips=0,
                retries_scheduled=0,
                requeued_from_crash=0,
                requeued_from_drain=0,
                shed_requests=0,
                failed_requests=0,
                stranded_requests=0,
            )
            for t, rid in cfg.joins:
                up[rid] = False
                join_s[rid] = t

        if plan is not None:
            for t, kind, rid, value in plan.events:
                push(t, kind, (rid, value))

        def terminal(request: Request, now: float, outcome: str, rid: int) -> None:
            report.records.append(
                make_record(
                    request,
                    rid,
                    now,
                    now,
                    now,
                    0.0,
                    outcome,
                    attempts.get(request.request_id, 0),
                )
            )
            key = "shed_requests" if outcome == "shed" else "failed_requests"
            counters[key] = counters.get(key, 0) + 1

        def retry_or_fail(request: Request, now: float, rid: int) -> None:
            nonlocal budget_used
            done = attempts.get(request.request_id, 0)
            if retry is None or done >= retry.max_attempts:
                terminal(request, now, "failed", rid)
                return
            if retry.retry_budget > 0 and budget_used >= retry.retry_budget:
                terminal(request, now, "failed", rid)
                return
            budget_used += 1
            counters["retries_scheduled"] += 1
            push(now + retry.backoff_s(request.request_id, done), RETRY, request)

        def take_queue(rid: int) -> list[Request]:
            """Empty ``rid``'s queues, returning them in merged queue order."""
            merged = sorted(chain(queue_p[rid], queue_o[rid]), key=itemgetter(0))
            queue_p[rid].clear()
            queue_o[rid].clear()
            queued[rid] = 0
            return [request for _, request in merged]

        def take_running(rid: int) -> list[_Active]:
            """Empty ``rid``'s running batch, returning it in admission order."""
            merged = sorted(chain(run_p[rid], run_o[rid]), key=attrgetter("ordinal"))
            run_p[rid].clear()
            run_o[rid].clear()
            finish_at[rid].clear()
            kv_used[rid] = 0
            return merged

        def kick(rid: int, now: float) -> None:
            """Schedule a boundary at ``now`` unless one is pending.

            A kick carries no step work (``admitted is None``); it exists
            so all same-time arrivals are routed before admission runs —
            DECODE_STEP is the lowest-ranked kind at any timestamp.
            """
            if not step_pending[rid]:
                step_pending[rid] = True
                push(now, DECODE_STEP, (rid, epoch[rid], 0.0, 0, None))

        def route(request: Request, now: float) -> None:
            healthy = [
                rep
                for i, rep in enumerate(replicas)
                if up[i] and not draining[i] and breaker_until[i] <= now
            ]
            if not healthy:
                terminal(request, now, "shed", -1)
                return
            with span("cluster.route"):
                replica = sim.router.choose(request, healthy, now)
            rid = replica.replica_id
            protected = request.slo_class == protect_class
            if cfg is not None and cfg.shed_queue_depth:
                limit = cfg.shed_queue_depth * (2 if protected else 1)
                if queued[rid] >= limit:
                    terminal(request, now, "shed", rid)
                    return
            (queue_p if protected else queue_o)[rid].append((next(back), request))
            queued[rid] += 1
            # The queues are private to this loop, so the replica's
            # router-visible load (``outstanding()``: its always-empty
            # ``queue`` plus ``inflight``) carries queued + running.
            replica.inflight += 1
            replica.sample_queue_depth(now, queued[rid])
            kick(rid, now)

        def boundary(replica, now: float) -> None:
            """Preempt, admit, and schedule the next decode step."""
            rid = replica.replica_id
            if step_pending[rid] or not up[rid]:
                return
            rp = run_p[rid]
            ro = run_o[rid]
            streaming = streamings[rid]
            budget = budgets[rid]
            step = steps[rid]
            used = kv_used[rid]
            queue_touched = False

            # Deterministic preemption under KV pressure: non-protected
            # classes first, latest-admitted first; never preempt the
            # last running request. Progress is discarded and the victim
            # rejoins the front of its class queue.
            while used > budget and len(rp) + len(ro) > 1:
                victim = (ro or rp).popitem()[0]
                victim.alive = False
                request = victim.request
                used -= _footprint(
                    streaming, request.prompt_len + step - victim.start_step
                )
                counters["preemptions"] += 1
                attempts[request.request_id] = (
                    attempts.get(request.request_id, 1) - 1
                )
                queue = queue_p if request.slo_class == protect_class else queue_o
                queue[rid].appendleft((next(front), request))
                queued[rid] += 1
                queue_touched = True

            # Admission: protected class first, FIFO within a class,
            # head-of-line blocking on the KV budget (an empty batch
            # force-admits its head so oversized requests cannot starve).
            admitted: list[_Active] = []
            if not draining[rid] and queued[rid]:
                cap = caps[rid]
                size = len(rp) + len(ro)
                for queue, batch in ((queue_p[rid], rp), (queue_o[rid], ro)):
                    while queue and size < cap:
                        request = queue[0][1]
                        footprint = _footprint(streaming, request.prompt_len)
                        if size and used + footprint > budget:
                            break
                        queue.popleft()
                        used += footprint
                        entry = _Active(request, now, step, next(ordinal))
                        batch[entry] = None
                        admitted.append(entry)
                        size += 1
                        attempts[request.request_id] = (
                            attempts.get(request.request_id, 0) + 1
                        )
                    else:
                        continue
                    break  # head-of-line budget block ends admission
                if admitted:
                    queued[rid] -= len(admitted)
                    queue_touched = True

            # Transient admission failure (per-boundary oracle, same
            # breaker semantics as the group loop's per-dispatch one).
            if admitted and plan is not None:
                seq = dispatch_seq[rid]
                dispatch_seq[rid] += 1
                if plan.transient_fails(rid, seq):
                    counters["transient_failures"] += 1
                    consec_fail[rid] += 1
                    if (
                        cfg.breaker_threshold
                        and consec_fail[rid] >= cfg.breaker_threshold
                    ):
                        breaker_until[rid] = now + cfg.breaker_cooldown_s
                        consec_fail[rid] = 0
                        counters["breaker_trips"] += 1
                    for entry in admitted:
                        request = entry.request
                        batch = rp if request.slo_class == protect_class else ro
                        del batch[entry]
                        used -= _footprint(streaming, request.prompt_len)
                        retry_or_fail(request, now, rid)
                    admitted = []
                else:
                    consec_fail[rid] = 0

            kv_used[rid] = used
            if queue_touched:
                replica.sample_queue_depth(now, queued[rid])
            size = len(rp) + len(ro)
            replica.inflight = queued[rid] + size
            if not size:
                return
            counters["admitted_requests"] += len(admitted)
            missing = {
                e.request.hot_expert
                for e in admitted
                if e.request.hot_expert is not None
                and e.request.hot_expert not in replica.resident_experts
            }
            duration = (
                decode_ref[rid] * (size / caps[rid])
                + sum(e.request.prompt_len for e in admitted)
                / prefill_tok_s[rid]
                + len(missing) * fetch_s[rid]
            ) * replica.slow_factor
            # An entry admitted after ``step`` committed steps has
            # generated ``steps - step`` tokens; it finishes at the commit
            # that brings that to its gen_len.
            finishing = finish_at[rid]
            for entry in admitted:
                due = step + max(entry.request.gen_len, 1)
                finishing.setdefault(due, []).append(entry)
            step_pending[rid] = True
            replica.free_at = now + duration
            push(
                now + duration,
                DECODE_STEP,
                (rid, epoch[rid], duration, len(missing), admitted),
            )

        def commit_step(rid: int, now: float, duration, misses, admitted) -> None:
            replica = replicas[rid]
            rp = run_p[rid]
            ro = run_o[rid]
            streaming = streamings[rid]
            counters["decode_steps"] += 1
            step = steps[rid] + 1
            steps[rid] = step
            replica.busy_s += duration
            replica.expert_misses += misses
            last_step_end[rid] = now
            for entry in admitted:
                entry.first_token_s = now
            if streaming is None:
                kv_used[rid] += len(rp) + len(ro)  # one token each
            # Finishers in admission order (the order they were filed).
            for entry in finish_at[rid].pop(step, ()):
                if not entry.alive:
                    continue  # preempted after it was filed
                request = entry.request
                del (rp if request.slo_class == protect_class else ro)[entry]
                if streaming is None:
                    kv_used[rid] -= request.prompt_len + step - entry.start_step
                completed_on[rid] += 1
                counters["completions"] += 1
                report.records.append(
                    make_record(
                        request,
                        rid,
                        entry.admitted_s,
                        entry.admitted_s,
                        now,
                        entry.first_token_s - request.arrival_s,
                        "completed",
                        attempts.get(request.request_id, 1),
                    )
                )
            if streaming is not None:
                # Sink+window footprints saturate, so recount per entry.
                kv_used[rid] = sum(
                    _footprint(
                        streaming, e.request.prompt_len + step - e.start_step
                    )
                    for e in chain(rp, ro)
                )
            replica.inflight = queued[rid] + len(rp) + len(ro)

        pop = events.pop
        while events:
            now, _, _, kind, payload = pop()
            if kind == ARRIVAL:
                counters["arrivals"] += 1
                route(payload, now)
            elif kind == DECODE_STEP:
                rid, ev_epoch, duration, misses, admitted = payload
                if ev_epoch != epoch[rid]:
                    continue  # step aborted by a crash
                step_pending[rid] = False
                if admitted is not None:
                    commit_step(rid, now, duration, misses, admitted)
                boundary(replicas[rid], now)
            elif kind == RETRY:
                route(payload, now)
            elif kind == CRASH:
                rid, recover_at = payload
                replica = replicas[rid]
                if not up[rid] or draining[rid]:
                    continue  # stale: replica already down or leaving
                up[rid] = False
                crash_open_s[rid] = now
                counters["crashes"] += 1
                epoch[rid] += 1
                step_pending[rid] = False
                victims_running = take_running(rid)
                victims_queued = take_queue(rid)
                replica.inflight = 0
                replica.sample_queue_depth(now, 0)
                replica.free_at = recover_at
                counters["requeued_from_crash"] += len(victims_running) + len(
                    victims_queued
                )
                # In-flight work consumed its admission attempt; queued
                # work did not and re-routes immediately.
                for entry in victims_running:
                    retry_or_fail(entry.request, now, rid)
                for request in victims_queued:
                    route(request, now)
            elif kind == RECOVER:
                rid, _ = payload
                if crash_open_s[rid] is None:
                    continue
                up[rid] = True
                down_windows[rid].append((crash_open_s[rid], now))
                crash_open_s[rid] = None
                counters["recoveries"] += 1
            elif kind == JOIN:
                rid, _ = payload
                up[rid] = True
                replicas[rid].free_at = max(replicas[rid].free_at, now)
                counters["joins"] += 1
            elif kind == DRAIN:
                rid, _ = payload
                replica = replicas[rid]
                if draining[rid]:
                    continue
                draining[rid] = True
                drain_s[rid] = now
                counters["drains"] += 1
                victims = take_queue(rid)
                replica.inflight = len(run_p[rid]) + len(run_o[rid])
                replica.sample_queue_depth(now, 0)
                counters["requeued_from_drain"] += len(victims)
                for request in victims:
                    route(request, now)
            elif kind == SLOW_START:
                rid, factor = payload
                replicas[rid].slow_factor = factor
                counters["straggler_windows"] += 1
            elif kind == SLOW_END:
                rid, _ = payload
                replicas[rid].slow_factor = 1.0

        # Defensive flush: the loop should drain every queue and batch;
        # anything left is a conservation bug surfaced as a counted
        # terminal record rather than a silently lost request.
        for rid, replica in enumerate(replicas):
            stranded = take_queue(rid)
            stranded.extend(entry.request for entry in take_running(rid))
            for request in stranded:
                terminal(request, replica.free_at, "failed", rid)
                counters["stranded_requests"] = (
                    counters.get("stranded_requests", 0) + 1
                )
            replica.inflight = 0
            replica.slow_factor = 1.0

        report.makespan_s = max(
            (r.completion_s for r in report.records), default=0.0
        )
        report.scheduler = self.name
        report.slo_class_targets = {
            cls: sim.config.slo_s * SLO_CLASS_TARGETS.get(cls, 1.0)
            for cls in sorted({r.slo_class for r in requests})
        }
        report.replicas = [
            ReplicaStats(
                replica_id=replica.replica_id,
                hardware=replica.hardware_name,
                system=replica.system_name,
                requests=completed_on[rid],
                groups=steps[rid],
                busy_s=replica.busy_s,
                expert_misses=replica.expert_misses,
                resident_experts=tuple(sorted(replica.resident_experts)),
                queue_depth_timeline=list(replica.queue_depth_timeline),
                batch_capacity=caps[rid],
            )
            for rid, replica in enumerate(replicas)
        ]
        if cfg is not None:
            from repro.cluster.faults import finalize_availability

            drain_bill_end = [
                max(drain_s[rid], last_step_end[rid])
                if drain_s[rid] is not None
                else None
                for rid in range(n)
            ]
            finalize_availability(
                report,
                crash_open_s,
                down_windows,
                join_s,
                drain_bill_end,
                counters["retries_scheduled"],
            )
        report.counters = counters
        for name, value in counters.items():
            count(f"cluster.{name}", value)
        return report
