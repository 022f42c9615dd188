"""Cluster dispatch policies: group-granular and iteration-level batching.

:meth:`ClusterSimulator._run <repro.cluster.simulator.ClusterSimulator._run>`
is the one event loop: it owns the report, the event queue, the fault
layer and routing. A registered :class:`Scheduler` is the dispatch policy
that decides what runs when. :class:`GroupScheduler` (``group``, the
default) forms batch groups that hold their replica's execution slot
until every member finishes — the paper's throughput-oriented serving
shape, and the reference of the batched engine in
:mod:`repro.cluster.engines`. :class:`ContinuousScheduler`
(``continuous``) is the iteration-level alternative popularized by
Orca/vLLM: replicas advance in *decode steps*, and at every step boundary
the policy

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

Its event kind, :data:`~repro.cluster.events.DECODE_STEP`, is ranked
*after* every other kind, so all arrivals and retries stamped at time *t*
are routed before the boundary at *t* admits. Step results (token
increments, first-token stamps, completions) are committed when the
boundary event pops and its epoch still matches the replica's — a crash
mid-step bumps the epoch, so the step's work is discarded and its
in-flight requests retry, which is what makes preempt-then-crash-then-
retry sequences conserve requests exactly once. Its shedding is
depth-only: with per-step admission a replica's backlog horizon is one
decode step.

Continuous records keep the causality contract of
:func:`repro.validation.check_cluster`: ``dispatch_s == start_s`` is the
admission boundary, ``completion_s`` the final step's end, and ``ttft_s``
the end of the admission step (prefill happens within it). Requests on
one replica legitimately overlap in time, so instead of the group
policy's replica-serialization invariant the checker bounds ``busy_s`` by
the makespan and the number of overlapping completed intervals by the
replica's batch capacity (``ReplicaStats.batch_capacity``).

A continuous step boundary costs in proportion to the requests it
touches, not to the queue or batch size: waiting requests sit in per-class
FIFO deques, the running batch's KV footprint is a counter kept current
as requests join, step and leave, and each running request is filed
under the step on which it will finish. Only sink+window streaming
replicas recount the footprint per entry each step, since theirs
saturates.

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
from repro.cluster.events import COMPLETION, DEADLINE, DEADLINE_EPS, DECODE_STEP
from repro.cluster.report import ClusterReport, make_record
from repro.obs import span
from repro.serving.requests import Request

_FLOOR_S = 1e-9  # keeps per-token rates finite on zero-length timings

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
    """Base class for registry-backed dispatch policies.

    A policy is instantiated per run as ``cls(simulator)``; :meth:`run`
    drives the simulator's one event loop with it. The loop owns routing
    and calls the policy:

    * ``start(requests, layer, events, report)`` once the run's
      :class:`~repro.cluster.faults.FaultLayer` exists; it returns the
      policy's event handlers, ``{kind: handler(payload, now)}``;
    * ``admit(request, replica, now)`` for every routed request, after
      ``load(replica, now) -> (depth, backlog)`` when shedding is on
      (``backlog`` is ``None`` when the policy has no slack signal);
    * the handler of each event of its own kinds;
    * ``evict`` / ``release`` / ``strand`` / ``last_end`` from the fault
      layer;
    * at the end ``close(report)``, then ``stats(rid)`` (its own
      :class:`~repro.cluster.report.ReplicaStats` fields) per replica
      and ``counters()``.
    """

    name = "base"

    def __init__(self, sim):
        self.sim = sim

    def run(self, requests: list[Request]) -> ClusterReport:
        with span("serving.scheduler.run", {"scheduler": self.name}):
            return self.sim._run(requests, self)

    def close(self, report: ClusterReport) -> None:
        """Final fix-ups of the report before the loop fills its stats."""


@register_scheduler("group")
class GroupScheduler(Scheduler):
    """Group-granular dispatch: the default policy and the engines' reference.

    A routed request joins its replica's FIFO queue. A full group
    dispatches at once; otherwise a ``DEADLINE`` event (a no-op once
    stale) dispatches the partial group at exactly ``oldest.arrival_s +
    max_wait_s``. A dispatch commits the head group to the replica's
    execution slot and appends its records; a ``COMPLETION`` releases it.
    A dispatch may fail transiently (its members retry); a crash turns
    the aborted groups' records into tombstones, compacted at the end.
    Shedding sees the queue depth and the backlog ``free_at - now``.
    """

    name = "group"

    def start(self, requests, layer, events, report) -> dict:
        self.layer = layer
        self.wait = self.sim.config.max_wait_s
        self.up, self.epoch = layer.up, layer.epoch
        self.push = events.push
        self.records = report.records
        # Per replica, for each in-flight group in dispatch (= completion)
        # order: the index of its first record and the replica's busy
        # time before it was dispatched.
        self.pending = [deque() for _ in self.sim.replicas]
        self.full = self.deadline = self.completions = self.dead = 0
        return {DEADLINE: self._deadline, COMPLETION: self._complete}

    def admit(self, request: Request, replica, now: float) -> None:
        if replica.enqueue(request, now):
            self.full += self._dispatch(replica, now)
        else:
            # A retried or requeued request may re-enqueue after its
            # batching deadline; clamping to `now` keeps event time
            # monotone (an arrival's deadline is never before it).
            deadline = request.arrival_s + self.wait
            if deadline < now:
                deadline = now
            self.push(deadline, DEADLINE, replica)

    def load(self, replica, now: float) -> tuple[int, float]:
        return len(replica.queue), replica.free_at - now

    def _deadline(self, replica, now: float) -> None:
        # Fires when the queue head's batching deadline has passed.
        queue = replica.queue
        if (
            queue
            and queue[0].arrival_s + self.wait <= now + DEADLINE_EPS
            and self.up[replica.replica_id]
        ):
            self.deadline += self._dispatch(replica, now)

    def _complete(self, payload, now: float) -> None:
        replica, group, group_epoch = payload
        rid = replica.replica_id
        if group_epoch == self.epoch[rid]:  # else aborted by a crash
            self.completions += 1
            replica.complete(group)
            self.pending[rid].popleft()

    def _dispatch(self, replica, now: float) -> int:
        """Commit the replica's head group; 0 if it failed transiently."""
        layer = self.layer
        rid = replica.replica_id
        attempts = layer.attempts
        if layer.transient and layer.transient_fails(rid, now):
            members = replica.queue[: replica.group_capacity]
            del replica.queue[: len(members)]
            replica.sample_queue_depth(now, len(replica.queue))
            for request in members:
                attempts[request.request_id] = attempts.get(request.request_id, 0) + 1
                layer.retry_or_fail(request, now, rid)
            return 0
        records = self.records
        self.pending[rid].append((len(records), replica.busy_s))
        with span("cluster.dispatch", {"replica": rid}):
            group = replica.dispatch(now)
        self.push(group.completion_s, COMPLETION, (replica, group, layer.epoch[rid]))
        start, completion = group.start_s, group.completion_s
        first_token = start + group.prefill_s
        faulted, append = layer.active, records.append
        n = 1  # fault-free runs never retry
        for request in group.requests:
            if faulted:
                n = attempts[request.request_id] = (
                    attempts.get(request.request_id, 0) + 1
                )
            ttft = first_token - request.arrival_s
            append(make_record(request, rid, now, start, completion, ttft, attempts=n))
        return 1

    def evict(self, rid: int, now: float) -> tuple[list, list]:
        replica = self.sim.replicas[rid]
        slots = self.pending[rid]
        self.pending[rid] = deque()
        running: list[Request] = []
        if slots:
            # In-flight groups are the newest ones on the replica.
            first = len(replica.groups) - len(slots)
            aborted = replica.groups[first:]
            del replica.groups[first:]
            # Restored, not subtracted: float subtraction leaves a residue.
            replica.busy_s = slots[0][1]
            records = self.records
            for group, (slot, _) in zip(aborted, slots):
                size = len(group.requests)
                replica.inflight -= size
                replica.expert_misses -= group.expert_misses
                records[slot : slot + size] = [None] * size
                running.extend(group.requests)
            self.dead += len(running)
        return running, self.release(rid, now)

    def release(self, rid: int, now: float) -> list[Request]:
        queued = self.strand(rid)
        self.sim.replicas[rid].sample_queue_depth(now, 0)
        return queued

    def strand(self, rid: int) -> list[Request]:
        queue = self.sim.replicas[rid].queue
        queued = queue[:]
        queue.clear()
        return queued

    def last_end(self, rid: int) -> float:
        groups = self.sim.replicas[rid].groups
        return groups[-1].completion_s if groups else 0.0

    def close(self, report: ClusterReport) -> None:
        if self.dead:
            report.records = [r for r in report.records if r is not None]

    def stats(self, rid: int) -> dict:
        groups = self.sim.replicas[rid].groups
        return {"requests": sum(len(g.requests) for g in groups), "groups": len(groups)}

    def counters(self) -> dict:
        return {
            "full_group_dispatches": self.full,
            "deadline_dispatches": self.deadline,
            "dispatched_groups": self.full + self.deadline,
            "completions": self.completions,
        }


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
    group timing of its scenario's workload — the replica's group shape
    and reference lengths (so the underlying pipeline simulation is
    probed exactly once):

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

    def start(self, requests, layer, events, report) -> dict:
        replicas = self.replicas = self.sim.replicas
        n = len(replicas)
        self.layer = layer
        self.push = events.push
        self.records = report.records
        self.protect_class = layer.config.shed_protect_class
        report.slo_class_targets = {
            cls: self.sim.config.slo_s * SLO_CLASS_TARGETS.get(cls, 1.0)
            for cls in sorted({r.slo_class for r in requests})
        }

        # Per-replica calibration (one group-timing probe each, memoized).
        self.caps = [r.group_capacity for r in replicas]
        self.streamings = [_streaming(r) for r in replicas]
        self.budgets = [
            self._kv_budget(r, s) for r, s in zip(replicas, self.streamings)
        ]
        self.decode_ref, self.prefill_tok_s = [], []
        for replica in replicas:
            workload = replica.scenario.workload
            timing = replica._group_timing(
                workload.num_batches, workload.prompt_len, workload.gen_len
            )
            decode_s = max(timing.total_s - timing.prefill_s, _FLOOR_S)
            self.decode_ref.append(decode_s / max(workload.gen_len, 1))
            prompt_tokens = workload.total_sequences * max(workload.prompt_len, 1)
            self.prefill_tok_s.append(prompt_tokens / max(timing.prefill_s, _FLOOR_S))
        self.fetch_s = [r.expert_fetch_time_s() for r in replicas]

        # Per-replica state, indexed by replica_id. Waiting requests live
        # in two FIFO deques of ``(key, request)``: the protected class
        # and the rest. Admission takes a prefix of "protected, then the
        # rest", so it only ever pops deque heads. Keys rebuild the single
        # merged queue that crash, drain and the final flush requeue from:
        # appends draw increasing keys from ``back``, preemption's front
        # reinsertions decreasing negative ones from ``front``, so both
        # deques stay key-sorted.
        self.queue_p = [deque() for _ in range(n)]
        self.queue_o = [deque() for _ in range(n)]
        self.queued = [0] * n
        self.back = counter()
        self.front = counter(-1, -1)
        # The running batch: admission-ordered dicts used as ordered sets
        # (protected, rest); the latest-admitted non-protected entry is
        # the rest dict's ``popitem()``.
        self.run_p: list[dict[_Active, None]] = [{} for _ in range(n)]
        self.run_o: list[dict[_Active, None]] = [{} for _ in range(n)]
        self.kv_used = [0] * n  # KV tokens the running batch holds
        # Running entries filed by the step count at which they finish,
        # so a step commit touches only its finishers.
        self.finish_at: list[dict[int, list[_Active]]] = [{} for _ in range(n)]
        self.ordinal = counter()  # admission order across run_p/run_o
        self.step_pending = [False] * n
        self.steps = [0] * n  # committed decode steps (ReplicaStats.groups)
        self.completed_on = [0] * n
        self.last_step_end = [0.0] * n
        self.counts = dict.fromkeys(
            ("admitted_requests", "decode_steps", "preemptions", "completions"), 0
        )
        return {DECODE_STEP: self._step}

    def _take_queue(self, rid: int) -> list[Request]:
        """Empty ``rid``'s queues, returning them in merged queue order."""
        queue_p, queue_o = self.queue_p[rid], self.queue_o[rid]
        merged = sorted(chain(queue_p, queue_o), key=itemgetter(0))
        queue_p.clear()
        queue_o.clear()
        self.queued[rid] = 0
        return [request for _, request in merged]

    def _take_running(self, rid: int) -> list[Request]:
        """Empty ``rid``'s running batch, returning it in admission order."""
        run_p, run_o = self.run_p[rid], self.run_o[rid]
        merged = sorted(chain(run_p, run_o), key=attrgetter("ordinal"))
        run_p.clear()
        run_o.clear()
        self.finish_at[rid].clear()
        self.kv_used[rid] = 0
        return [entry.request for entry in merged]

    def evict(self, rid: int, now: float) -> tuple[list, list]:
        self.step_pending[rid] = False
        return self._take_running(rid), self.release(rid, now)

    def release(self, rid: int, now: float) -> list[Request]:
        waiting = self._take_queue(rid)
        self.replicas[rid].inflight = len(self.run_p[rid]) + len(self.run_o[rid])
        self.replicas[rid].sample_queue_depth(now, 0)
        return waiting

    def strand(self, rid: int) -> list[Request]:
        stranded = self._take_queue(rid) + self._take_running(rid)
        self.replicas[rid].inflight = 0
        return stranded

    def last_end(self, rid: int) -> float:
        return self.last_step_end[rid]

    def _kick(self, rid: int, now: float) -> None:
        """Schedule a boundary at ``now`` unless one is pending.

        A kick carries no step work (``admitted is None``); it exists
        so all same-time arrivals are routed before admission runs —
        DECODE_STEP is the lowest-ranked kind at any timestamp.
        """
        if not self.step_pending[rid]:
            self.step_pending[rid] = True
            self.push(now, DECODE_STEP, (rid, self.layer.epoch[rid], 0.0, 0, None))

    def admit(self, request: Request, replica, now: float) -> None:
        rid = replica.replica_id
        protected = request.slo_class == self.protect_class
        queue = (self.queue_p if protected else self.queue_o)[rid]
        queue.append((next(self.back), request))
        queued = self.queued[rid] = self.queued[rid] + 1
        # The queues are private to this policy, so the replica's
        # router-visible load (``outstanding()``: its always-empty
        # ``queue`` plus ``inflight``) carries queued + running.
        replica.inflight += 1
        replica.sample_queue_depth(now, queued)
        self._kick(rid, now)

    def load(self, replica, now: float) -> tuple[int, None]:
        return self.queued[replica.replica_id], None

    def _step(self, payload, now: float) -> None:
        rid, ev_epoch, duration, misses, admitted = payload
        if ev_epoch != self.layer.epoch[rid]:
            return  # step aborted by a crash
        self.step_pending[rid] = False
        if admitted is not None:
            self._commit(rid, now, duration, misses, admitted)
        self._boundary(self.replicas[rid], now)

    def _boundary(self, replica, now: float) -> None:
        """Preempt, admit, and schedule the next decode step."""
        rid = replica.replica_id
        layer = self.layer
        if self.step_pending[rid] or not layer.up[rid]:
            return
        rp = self.run_p[rid]
        ro = self.run_o[rid]
        queue_p, queue_o = self.queue_p, self.queue_o
        attempts = layer.attempts
        protect_class = self.protect_class
        streaming = self.streamings[rid]
        budget = self.budgets[rid]
        step = self.steps[rid]
        used = self.kv_used[rid]
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
            self.counts["preemptions"] += 1
            attempts[request.request_id] = attempts.get(request.request_id, 1) - 1
            queue = queue_p if request.slo_class == protect_class else queue_o
            queue[rid].appendleft((next(self.front), request))
            self.queued[rid] += 1
            queue_touched = True

        # Admission: protected class first, FIFO within a class,
        # head-of-line blocking on the KV budget (an empty batch
        # force-admits its head so oversized requests cannot starve).
        admitted: list[_Active] = []
        if not layer.draining[rid] and self.queued[rid]:
            cap = self.caps[rid]
            size = len(rp) + len(ro)
            ordinal = self.ordinal
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
                self.queued[rid] -= len(admitted)
                queue_touched = True

        # Transient admission failure (per-boundary oracle, same
        # breaker semantics as the group policy's per-dispatch one).
        if admitted and layer.transient and layer.transient_fails(rid, now):
            for entry in admitted:
                request = entry.request
                batch = rp if request.slo_class == protect_class else ro
                del batch[entry]
                used -= _footprint(streaming, request.prompt_len)
                layer.retry_or_fail(request, now, rid)
            admitted = []

        self.kv_used[rid] = used
        if queue_touched:
            replica.sample_queue_depth(now, self.queued[rid])
        size = len(rp) + len(ro)
        replica.inflight = self.queued[rid] + size
        if not size:
            return
        self.counts["admitted_requests"] += len(admitted)
        missing = {
            e.request.hot_expert
            for e in admitted
            if e.request.hot_expert is not None
            and e.request.hot_expert not in replica.resident_experts
        }
        duration = (
            self.decode_ref[rid] * (size / self.caps[rid])
            + sum(e.request.prompt_len for e in admitted) / self.prefill_tok_s[rid]
            + len(missing) * self.fetch_s[rid]
        ) * replica.slow_factor
        # An entry admitted after ``step`` committed steps has
        # generated ``steps - step`` tokens; it finishes at the commit
        # that brings that to its gen_len.
        finishing = self.finish_at[rid]
        for entry in admitted:
            due = step + max(entry.request.gen_len, 1)
            finishing.setdefault(due, []).append(entry)
        self.step_pending[rid] = True
        replica.free_at = now + duration
        self.push(
            now + duration,
            DECODE_STEP,
            (rid, layer.epoch[rid], duration, len(missing), admitted),
        )

    def _commit(self, rid: int, now: float, duration, misses, admitted) -> None:
        replica = self.replicas[rid]
        rp = self.run_p[rid]
        ro = self.run_o[rid]
        streaming = self.streamings[rid]
        protect_class = self.protect_class
        counts = self.counts
        attempts = self.layer.attempts
        append = self.records.append
        kv_used = self.kv_used
        counts["decode_steps"] += 1
        step = self.steps[rid] + 1
        self.steps[rid] = step
        replica.busy_s += duration
        replica.expert_misses += misses
        self.last_step_end[rid] = now
        for entry in admitted:
            entry.first_token_s = now
        if streaming is None:
            kv_used[rid] += len(rp) + len(ro)  # one token each
        # Finishers in admission order (the order they were filed).
        for entry in self.finish_at[rid].pop(step, ()):
            if not entry.alive:
                continue  # preempted after it was filed
            request = entry.request
            del (rp if request.slo_class == protect_class else ro)[entry]
            if streaming is None:
                kv_used[rid] -= request.prompt_len + step - entry.start_step
            self.completed_on[rid] += 1
            counts["completions"] += 1
            start = entry.admitted_s  # dispatch and start: the admission
            ttft = entry.first_token_s - request.arrival_s
            n = attempts.get(request.request_id, 1)
            append(make_record(request, rid, start, start, now, ttft, attempts=n))
        if streaming is not None:
            # Sink+window footprints saturate, so recount per entry.
            kv_used[rid] = sum(
                _footprint(streaming, e.request.prompt_len + step - e.start_step)
                for e in chain(rp, ro)
            )
        replica.inflight = self.queued[rid] + len(rp) + len(ro)

    def stats(self, rid: int) -> dict:
        return {
            "requests": self.completed_on[rid],
            "groups": self.steps[rid],
            "batch_capacity": self.caps[rid],
        }

    def counters(self) -> dict:
        return self.counts
