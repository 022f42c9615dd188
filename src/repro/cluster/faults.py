"""Deterministic fault injection, retries, failover, and load shedding.

The cluster simulator models a perfect fleet; this module makes it lie
less. A :class:`FaultConfig` (registry-backed via ``@register_fault_preset``,
part of the declarative ``ClusterConfig``) is compiled by
:func:`compile_fault_plan` into a :class:`FaultPlan` — a concrete,
seed-deterministic schedule of replica fail-stop **crashes** (with
recovery after a downtime), **straggler** slowdown windows (per-replica
service-time multipliers), autoscaling **join/drain** events, plus a
deterministic per-dispatch **transient failure** oracle. The plan's
events are first-class entries in the existing ``(time, kind-priority,
seq)`` event queue of :mod:`repro.cluster.events`, so a faulted run is
exactly as reproducible as a fault-free one: same seed, same report,
bit for bit.

Recovery semantics layered on top:

* :class:`RetryPolicy` — bounded attempts with seeded exponential
  backoff + jitter and an optional global retry budget. Work in flight
  on a crashed replica (and groups hit by a transient dispatch failure)
  re-enters routing through a ``RETRY`` event; queued work re-routes
  immediately without consuming an attempt.
* **Health-aware routing** — routers only ever see the healthy subset of
  the fleet (up, not draining, circuit breaker closed), so every router
  policy is failover-capable without modification. A per-replica circuit
  breaker opens after ``breaker_threshold`` consecutive transient
  failures and closes after ``breaker_cooldown_s``.
* **Admission control** — queue-depth and deadline-slack load shedding
  with SLO-class-aware drops (``interactive`` requests get a doubled
  depth bound and are exempt from slack shedding). Shed requests are
  terminal ``shed`` records, never silently lost.

Every request terminates exactly once as ``completed`` | ``shed`` |
``failed`` — the conservation invariant enforced by
:func:`repro.validation.check_cluster` and fuzzed by ``validate
--chaos`` — and reports gain availability metrics (downtime windows,
retried/shed/failed counts, per-replica up-time billing). The fast
engines (:mod:`repro.cluster.engines`) do not model faults; a simulator
with an active fault config deterministically falls back to the faulted
serial loop here, which the differential harness treats as trivially
engine-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.api.registry import register_fault_preset
from repro.cluster.events import (
    ARRIVAL,
    COMPLETION,
    CRASH,
    DEADLINE,
    DRAIN,
    JOIN,
    RECOVER,
    RETRY,
    SLOW_END,
    SLOW_START,
    EventQueue,
)
from repro.cluster.report import ClusterReport, make_record
from repro.obs import count, span
from repro.serving.requests import Request

_EPS = 1e-9  # matches the serial loop's deadline tolerance

# Sub-stream tags for np.random.default_rng([seed, tag, ...]) so the
# crash, straggler, transient, and jitter streams are independent.
_TAG_CRASH = 3
_TAG_STRAGGLER = 5
_TAG_TRANSIENT = 13
_TAG_JITTER = 11


def _pairs(value, label: str) -> tuple[tuple[float, int], ...]:
    """Normalize join/drain schedules to ``((time_s, replica_id), ...)``."""
    out = []
    for entry in value:
        try:
            t, rid = entry
        except (TypeError, ValueError):
            raise ValueError(
                f"{label} entries must be (time_s, replica_id) pairs"
            ) from None
        t, rid = float(t), int(rid)
        if t < 0:
            raise ValueError(f"{label} times must be >= 0")
        if rid < 0:
            raise ValueError(f"{label} replica ids must be >= 0")
        out.append((t, rid))
    if len({rid for _, rid in out}) != len(out):
        raise ValueError(f"{label} lists at most one entry per replica")
    return tuple(out)


@dataclass(frozen=True)
class FaultConfig:
    """Declarative fault model for one cluster run (JSON-safe, seeded).

    All stochastic schedules (crashes, stragglers, transient failures)
    are driven purely by ``seed`` — two runs with the same config and
    request stream produce byte-identical reports. The default config is
    inert: :meth:`active` is False and the simulator takes its normal
    fault-free path, bit-identical to a run with no fault config at all.

    Attributes:
        seed: root seed for every fault sub-stream.
        crash_rate_per_hour: per-replica fail-stop rate (Poisson).
        crash_downtime_s: downtime before a crashed replica recovers.
        straggler_rate_per_hour: per-replica slowdown-window rate.
        straggler_duration_s: length of each slowdown window.
        straggler_factor: service-time multiplier inside a window.
        transient_failure_prob: per-dispatch failure probability; the
            group's requests re-enter routing via the retry policy.
        breaker_threshold: consecutive transient failures that open a
            replica's circuit breaker (0 disables the breaker).
        breaker_cooldown_s: how long an open breaker excludes the
            replica from routing.
        joins: ``(time_s, replica_id)`` pairs — the replica starts down
            and joins the fleet at ``time_s`` (autoscale-up).
        drains: ``(time_s, replica_id)`` pairs — the replica stops
            admitting at ``time_s``, requeues its backlog, and finishes
            in-flight work (autoscale-down).
        shed_queue_depth: admission bound on a replica's queue depth
            (0 disables; protected-class requests get a doubled bound).
        shed_slack_s: shed a non-protected request when its chosen
            replica's backlog exceeds this many seconds (0 disables).
        shed_protect_class: the ``Request.slo_class`` shielded from
            slack shedding and given the doubled depth bound.
    """

    seed: int = 0
    crash_rate_per_hour: float = 0.0
    crash_downtime_s: float = 30.0
    straggler_rate_per_hour: float = 0.0
    straggler_duration_s: float = 60.0
    straggler_factor: float = 2.0
    transient_failure_prob: float = 0.0
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    joins: tuple[tuple[float, int], ...] = ()
    drains: tuple[tuple[float, int], ...] = ()
    shed_queue_depth: int = 0
    shed_slack_s: float = 0.0
    shed_protect_class: str = "interactive"

    def __post_init__(self):
        if self.crash_rate_per_hour < 0 or self.straggler_rate_per_hour < 0:
            raise ValueError("fault rates must be >= 0")
        if self.crash_downtime_s < 0:
            raise ValueError("crash_downtime_s must be >= 0")
        if self.straggler_duration_s < 0:
            raise ValueError("straggler_duration_s must be >= 0")
        if self.straggler_factor <= 0:
            raise ValueError("straggler_factor must be positive")
        if not 0.0 <= self.transient_failure_prob <= 1.0:
            raise ValueError("transient_failure_prob must be in [0, 1]")
        if self.breaker_threshold < 0 or self.breaker_cooldown_s < 0:
            raise ValueError("breaker knobs must be >= 0")
        if self.shed_queue_depth < 0 or self.shed_slack_s < 0:
            raise ValueError("shedding knobs must be >= 0")
        object.__setattr__(self, "joins", _pairs(self.joins, "joins"))
        object.__setattr__(self, "drains", _pairs(self.drains, "drains"))

    def active(self) -> bool:
        """Whether this config changes anything at all.

        An inactive config keeps the simulator on its fault-free path —
        the property the "empty plan reproduces the goldens" invariant
        rests on.
        """
        return bool(
            self.crash_rate_per_hour > 0
            or self.straggler_rate_per_hour > 0
            or self.transient_failure_prob > 0
            or self.joins
            or self.drains
            or self.shed_queue_depth > 0
            or self.shed_slack_s > 0
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "crash_rate_per_hour": self.crash_rate_per_hour,
            "crash_downtime_s": self.crash_downtime_s,
            "straggler_rate_per_hour": self.straggler_rate_per_hour,
            "straggler_duration_s": self.straggler_duration_s,
            "straggler_factor": self.straggler_factor,
            "transient_failure_prob": self.transient_failure_prob,
            "breaker_threshold": self.breaker_threshold,
            "breaker_cooldown_s": self.breaker_cooldown_s,
            "joins": [[t, r] for t, r in self.joins],
            "drains": [[t, r] for t, r in self.drains],
            "shed_queue_depth": self.shed_queue_depth,
            "shed_slack_s": self.shed_slack_s,
            "shed_protect_class": self.shed_protect_class,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultConfig":
        """Strict constructor: unknown keys raise (replay-blob safety)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown FaultConfig keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**data)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, seeded retry schedule for crashed/failed dispatches.

    ``backoff_s`` for attempt *a* (1-based count of attempts already
    consumed) is ``backoff_base_s * backoff_multiplier**(a - 1)`` scaled
    by a deterministic jitter draw in ``[1, 1 + jitter_frac]``. The
    jitter stream is keyed by (seed, request id, attempt), so schedules
    are reproducible and per-request independent.

    Attributes:
        max_attempts: dispatch attempts per request before a terminal
            ``failed`` outcome (>= 1; 1 means never retry).
        backoff_base_s: delay before the first retry.
        backoff_multiplier: exponential growth per subsequent retry.
        jitter_frac: upper bound of the multiplicative jitter.
        retry_budget: global cap on scheduled retries across the run
            (0 = unbounded); exhaustion fails requests immediately.
        seed: jitter stream seed.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.5
    backoff_multiplier: float = 2.0
    jitter_frac: float = 0.1
    retry_budget: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_multiplier < 1:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.jitter_frac < 0:
            raise ValueError("jitter_frac must be >= 0")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")

    def backoff_s(self, request_id: int, attempt: int) -> float:
        """Deterministic backoff before retry number ``attempt`` (>= 1)."""
        base = self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)
        if self.jitter_frac == 0:
            return base
        draw = float(
            np.random.default_rng(
                [self.seed, _TAG_JITTER, request_id, attempt]
            ).random()
        )
        return base * (1.0 + self.jitter_frac * draw)

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base_s": self.backoff_base_s,
            "backoff_multiplier": self.backoff_multiplier,
            "jitter_frac": self.jitter_frac,
            "retry_budget": self.retry_budget,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown RetryPolicy keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**data)


@dataclass
class FaultPlan:
    """A compiled, concrete fault schedule for one run.

    Attributes:
        config: the source :class:`FaultConfig`.
        num_replicas: fleet size the plan was compiled for.
        horizon_s: sampling horizon (crashes/stragglers beyond it are
            not scheduled).
        events: ``(time_s, kind, replica_id, value)`` tuples — for
            ``CRASH`` the value is the recovery time, for ``SLOW_START``
            the slowdown factor, otherwise 0.0.
    """

    config: FaultConfig
    num_replicas: int
    horizon_s: float
    events: list[tuple[float, str, int, float]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        """No scheduled events and no per-dispatch/admission effects."""
        return not self.events and not (
            self.config.transient_failure_prob > 0
            or self.config.shed_queue_depth > 0
            or self.config.shed_slack_s > 0
        )

    def transient_fails(self, replica_id: int, dispatch_seq: int) -> bool:
        """Deterministic per-dispatch transient-failure oracle.

        Keyed by (seed, replica, the replica's dispatch ordinal), so the
        oracle is a pure function of the schedule — replays and repeated
        runs agree bit-for-bit.
        """
        prob = self.config.transient_failure_prob
        if prob <= 0:
            return False
        draw = np.random.default_rng(
            [self.config.seed, _TAG_TRANSIENT, replica_id, dispatch_seq]
        ).random()
        return bool(draw < prob)


def _sample_windows(
    rng: np.random.Generator, rate_per_hour: float, width_s: float, horizon_s: float
) -> list[tuple[float, float]]:
    """Non-overlapping Poisson windows of ``width_s`` over the horizon."""
    windows = []
    if rate_per_hour <= 0 or horizon_s <= 0:
        return windows
    scale = 3600.0 / rate_per_hour
    t = float(rng.exponential(scale))
    while t < horizon_s:
        windows.append((t, t + width_s))
        # Next event is sampled after the window closes so windows on
        # one replica never overlap (an already-down replica can't
        # crash again; an already-slow replica can't get slower).
        t = t + width_s + float(rng.exponential(scale))
    return windows


def compile_fault_plan(
    config: FaultConfig, num_replicas: int, horizon_s: float
) -> FaultPlan:
    """Compile a :class:`FaultConfig` into a concrete event schedule.

    Sampling is per replica with an independent seeded sub-stream, so
    the schedule for replica *i* does not depend on the fleet size seen
    by other replicas' streams.

    Args:
        config: the declarative fault model.
        num_replicas: fleet size; join/drain entries naming replicas
            outside the fleet raise — a config/fleet mismatch is a user
            error, not a silent no-op.
        horizon_s: how far past the last arrival to sample fault
            windows.

    Returns:
        The deterministic :class:`FaultPlan` for this fleet.

    Raises:
        ValueError: join/drain entry with ``replica_id >= num_replicas``.
    """
    for label, pairs in (("joins", config.joins), ("drains", config.drains)):
        for t, rid in pairs:
            if rid >= num_replicas:
                raise ValueError(
                    f"{label} entry names replica {rid} but the fleet has "
                    f"{num_replicas} replicas"
                )
    plan = FaultPlan(config=config, num_replicas=num_replicas, horizon_s=horizon_s)
    for t, rid in config.joins:
        plan.events.append((t, JOIN, rid, 0.0))
    for t, rid in config.drains:
        plan.events.append((t, DRAIN, rid, 0.0))
    for rid in range(num_replicas):
        crash_rng = np.random.default_rng([config.seed, _TAG_CRASH, rid])
        for start, end in _sample_windows(
            crash_rng, config.crash_rate_per_hour, config.crash_downtime_s, horizon_s
        ):
            plan.events.append((start, CRASH, rid, end))
            plan.events.append((end, RECOVER, rid, 0.0))
        slow_rng = np.random.default_rng([config.seed, _TAG_STRAGGLER, rid])
        for start, end in _sample_windows(
            slow_rng,
            config.straggler_rate_per_hour,
            config.straggler_duration_s,
            horizon_s,
        ):
            plan.events.append((start, SLOW_START, rid, config.straggler_factor))
            plan.events.append((end, SLOW_END, rid, 0.0))
    return plan


def fault_horizon_s(config: FaultConfig, requests: list[Request]) -> float:
    """How far past time zero to sample a run's fault windows.

    The last arrival plus one crash downtime, one straggler window, and a
    minute of slack — long enough that faults can still hit the tail of
    the stream. Every loop that compiles a plan for a request stream uses
    this one formula, so the group and continuous disciplines see the
    same schedule for the same config and stream.
    """
    last = max((r.arrival_s for r in requests), default=0.0)
    return last + config.crash_downtime_s + config.straggler_duration_s + 60.0


def finalize_availability(
    report: ClusterReport,
    crash_open_s: list,
    down_windows: list,
    join_s: list,
    drain_bill_end: list,
    retries_scheduled: int,
) -> None:
    """Fill per-replica up-time billing and ``report.availability``.

    Shared by the faulted group loop and the continuous scheduler's
    fault path so both produce the same availability surface. Expects
    ``report.makespan_s`` and ``report.replicas`` to be final; mutates
    ``report.replicas[*].up_time_s`` and ``report.availability``.

    Args:
        report: the report under assembly.
        crash_open_s: per-replica open-crash start (None: currently up).
        down_windows: per-replica closed ``(start, end)`` crash windows.
        join_s: per-replica billing start (0.0 unless a late join).
        drain_bill_end: per-replica billing end (None: the makespan).
        retries_scheduled: the loop's retry counter, surfaced verbatim.
    """
    outcome_counts = {"completed": 0, "shed": 0, "failed": 0}
    retried = 0
    for record in report.records:
        outcome_counts[record.outcome] += 1
        if record.attempts > 1:
            retried += 1

    total_down = 0.0
    downtime_s: dict[str, float] = {}
    windows_out: dict[str, list[list[float]]] = {}
    for rid, stats in enumerate(report.replicas):
        if crash_open_s[rid] is not None:
            # Still down at the end of the run: close the window at the
            # makespan (or at the crash instant if traffic ended first).
            down_windows[rid].append(
                (crash_open_s[rid], max(report.makespan_s, crash_open_s[rid]))
            )
        start = join_s[rid]
        end = (
            drain_bill_end[rid]
            if drain_bill_end[rid] is not None
            else report.makespan_s
        )
        end = max(end, start)
        down = 0.0
        for w_start, w_end in down_windows[rid]:
            down += max(0.0, min(w_end, end) - max(w_start, start))
        stats.up_time_s = max(0.0, end - start - down)
        total_down += down
        if down_windows[rid]:
            downtime_s[str(rid)] = down
            windows_out[str(rid)] = [[s, e] for s, e in down_windows[rid]]

    fleet_span = len(report.replicas) * report.makespan_s
    report.availability = {
        "completed": outcome_counts["completed"],
        "shed": outcome_counts["shed"],
        "failed": outcome_counts["failed"],
        "retried_requests": retried,
        "retries_scheduled": retries_scheduled,
        "downtime_s": downtime_s,
        "downtime_windows": windows_out,
        "availability": (
            1.0 - total_down / fleet_span if fleet_span > 0 else 1.0
        ),
        "goodput_under_faults_tok_s": report.goodput,
    }


def run_faulted(sim, requests: list[Request], plan: FaultPlan, retry: RetryPolicy):
    """The faulted serial event loop (reference semantics under faults).

    Mirrors ``ClusterSimulator._run`` exactly on the happy path and adds
    the fault/control kinds. Every request submitted terminates exactly
    once — ``completed``, ``shed``, or ``failed`` — which
    :func:`repro.validation.check_cluster` verifies.

    Args:
        sim: the :class:`~repro.cluster.simulator.ClusterSimulator`.
        requests: the request stream (any order; sorted internally).
        plan: the compiled fault schedule.
        retry: the retry policy for crashed/failed dispatches.

    Returns:
        A :class:`~repro.cluster.report.ClusterReport` with availability
        metrics populated.
    """
    cfg = plan.config
    replicas = sim.replicas
    n = len(replicas)
    report = ClusterReport(router=sim.router.name, slo_s=sim.config.slo_s)
    events = EventQueue(sorted(requests, key=lambda r: r.arrival_s))

    # Per-replica health/bookkeeping state, indexed by replica_id.
    up = [True] * n
    draining = [False] * n
    join_s = [0.0] * n
    drain_bill_end: list[float | None] = [None] * n
    crash_open_s: list[float | None] = [None] * n
    down_windows: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    epoch = [0] * n  # bumped on crash; stale completions are skipped
    pending_groups: list[list] = [[] for _ in range(n)]
    dispatch_seq = [0] * n  # transient-oracle ordinal per replica
    consec_fail = [0] * n
    breaker_until = [0.0] * n
    attempts: dict[int, int] = {}
    budget_used = 0

    counters = {
        "arrivals": 0,
        "full_group_dispatches": 0,
        "deadline_dispatches": 0,
        "completions": 0,
        "crashes": 0,
        "recoveries": 0,
        "joins": 0,
        "drains": 0,
        "straggler_windows": 0,
        "transient_failures": 0,
        "breaker_trips": 0,
        "retries_scheduled": 0,
        "requeued_from_crash": 0,
        "requeued_from_drain": 0,
        "shed_requests": 0,
        "failed_requests": 0,
        "stranded_requests": 0,
    }

    for t, rid in cfg.joins:
        up[rid] = False  # joins start down; the JOIN event brings them up
        join_s[rid] = t
    for t, kind, rid, value in plan.events:
        events.push(t, kind, (rid, value))

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
        if outcome == "shed":
            counters["shed_requests"] += 1
        else:
            counters["failed_requests"] += 1

    def retry_or_fail(request: Request, now: float, rid: int) -> None:
        nonlocal budget_used
        done = attempts.get(request.request_id, 0)
        if done >= retry.max_attempts:
            terminal(request, now, "failed", rid)
            return
        if retry.retry_budget > 0 and budget_used >= retry.retry_budget:
            terminal(request, now, "failed", rid)
            return
        budget_used += 1
        counters["retries_scheduled"] += 1
        events.push(now + retry.backoff_s(request.request_id, done), RETRY, request)

    def commit_dispatch(replica, now: float, full: bool) -> None:
        rid = replica.replica_id
        seq = dispatch_seq[rid]
        dispatch_seq[rid] += 1
        if plan.transient_fails(rid, seq):
            capacity = replica.batching.group_capacity
            members = replica.queue[:capacity]
            del replica.queue[: len(members)]
            replica.sample_queue_depth(now, len(replica.queue))
            counters["transient_failures"] += 1
            consec_fail[rid] += 1
            if cfg.breaker_threshold and consec_fail[rid] >= cfg.breaker_threshold:
                breaker_until[rid] = now + cfg.breaker_cooldown_s
                consec_fail[rid] = 0
                counters["breaker_trips"] += 1
            for request in members:
                attempts[request.request_id] = attempts.get(request.request_id, 0) + 1
                retry_or_fail(request, now, rid)
            return
        consec_fail[rid] = 0
        counters["full_group_dispatches" if full else "deadline_dispatches"] += 1
        with span("cluster.dispatch", {"replica": rid}):
            group = replica.dispatch(now)
        for request in group.requests:
            attempts[request.request_id] = attempts.get(request.request_id, 0) + 1
        pending_groups[rid].append(group)
        events.push(group.completion_s, COMPLETION, (replica, group, epoch[rid]))

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
        protected = request.slo_class == cfg.shed_protect_class
        if cfg.shed_queue_depth:
            limit = cfg.shed_queue_depth * (2 if protected else 1)
            if len(replica.queue) >= limit:
                terminal(request, now, "shed", rid)
                return
        if cfg.shed_slack_s > 0 and not protected:
            if replica.free_at - now > cfg.shed_slack_s:
                terminal(request, now, "shed", rid)
                return
        replica.enqueue(request, now)
        if replica.group_ready():
            commit_dispatch(replica, now, full=True)
        else:
            # Retried requests may re-enqueue long after their batching
            # deadline; clamping to `now` keeps event time monotone (a
            # plain arrival's deadline is always >= its arrival time).
            events.push(
                max(now, request.arrival_s + replica.batching.max_wait_s),
                DEADLINE,
                replica,
            )

    pop = events.pop
    while events:
        now, _, _, kind, payload = pop()
        if kind == ARRIVAL:
            counters["arrivals"] += 1
            route(payload, now)
        elif kind == DEADLINE:
            replica = payload
            rid = replica.replica_id
            if (
                up[rid]
                and replica.queue
                and replica.oldest_deadline() <= now + _EPS
            ):
                commit_dispatch(replica, now, full=False)
        elif kind == COMPLETION:
            replica, group, ev_epoch = payload
            rid = replica.replica_id
            if ev_epoch != epoch[rid]:
                continue  # group was aborted by a crash
            counters["completions"] += 1
            replica.complete(group)
            pending_groups[rid].remove(group)
            for request in group.requests:
                report.records.append(
                    make_record(
                        request,
                        rid,
                        group.dispatch_s,
                        group.start_s,
                        group.completion_s,
                        group.start_s + group.prefill_s - request.arrival_s,
                        "completed",
                        attempts[request.request_id],
                    )
                )
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
            aborted = pending_groups[rid]
            pending_groups[rid] = []
            if aborted:
                aborted_ids = {id(g) for g in aborted}
                replica.groups = [
                    g for g in replica.groups if id(g) not in aborted_ids
                ]
                for g in aborted:
                    replica.busy_s -= g.completion_s - g.start_s
                    replica.inflight -= len(g.requests)
                    replica.expert_misses -= g.expert_misses
            victims_queued = replica.queue[:]
            replica.queue.clear()
            replica.sample_queue_depth(now, 0)
            replica.free_at = recover_at
            counters["requeued_from_crash"] += len(victims_queued) + sum(
                len(g.requests) for g in aborted
            )
            # In-flight work consumed its dispatch attempt; queued work
            # did not and re-routes immediately through the router.
            for g in aborted:
                for request in g.requests:
                    retry_or_fail(request, now, rid)
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
            replica = replicas[rid]
            up[rid] = True
            replica.free_at = max(replica.free_at, now)
            counters["joins"] += 1
        elif kind == DRAIN:
            rid, _ = payload
            replica = replicas[rid]
            if draining[rid]:
                continue
            draining[rid] = True
            counters["drains"] += 1
            drain_bill_end[rid] = max(
                [now] + [g.completion_s for g in pending_groups[rid]]
            )
            victims = replica.queue[:]
            replica.queue.clear()
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

    # Defensive flush: the loop's deadline/crash/drain handling should
    # drain every queue; anything left is a conservation bug we surface
    # as a counted terminal record rather than a silently lost request.
    for replica in replicas:
        for request in replica.queue:
            terminal(request, replica.free_at, "failed", replica.replica_id)
            counters["stranded_requests"] += 1
        replica.queue.clear()
        replica.slow_factor = 1.0

    # Makespan is the last terminal event, not replica free_at — a crash
    # sets free_at to its recovery time, which may outlive all traffic.
    report.makespan_s = max((r.completion_s for r in report.records), default=0.0)
    report.replicas = [sim._replica_stats(r) for r in replicas]

    finalize_availability(
        report,
        crash_open_s,
        down_windows,
        join_s,
        drain_bill_end,
        counters["retries_scheduled"],
    )
    counters["dispatched_groups"] = (
        counters["full_group_dispatches"] + counters["deadline_dispatches"]
    )
    report.counters = counters
    for name, value in counters.items():
        count(f"cluster.{name}", value)
    return report


# ---------------------------------------------------------------------------
# Built-in fault presets (`ClusterConfig.faults = "<name>"`,
# `serve --faults <name>`). Registered as zero-argument factories so the
# registry hands out fresh immutable configs.


@register_fault_preset("chaos")
def _chaos_preset() -> FaultConfig:
    """A bit of everything: crashes, stragglers, flaky dispatch, shedding."""
    return FaultConfig(
        crash_rate_per_hour=120.0,
        crash_downtime_s=10.0,
        straggler_rate_per_hour=120.0,
        straggler_duration_s=8.0,
        straggler_factor=3.0,
        transient_failure_prob=0.05,
        shed_queue_depth=16,
    )


@register_fault_preset("crashes")
def _crashes_preset() -> FaultConfig:
    """Fail-stop crashes with 15 s recovery; nothing else."""
    return FaultConfig(crash_rate_per_hour=240.0, crash_downtime_s=15.0)


@register_fault_preset("stragglers")
def _stragglers_preset() -> FaultConfig:
    """Slowdown windows (3x service time) with no hard failures."""
    return FaultConfig(
        straggler_rate_per_hour=240.0,
        straggler_duration_s=12.0,
        straggler_factor=3.0,
    )


@register_fault_preset("flaky-network")
def _flaky_network_preset() -> FaultConfig:
    """Transient dispatch failures aggressive enough to trip breakers."""
    return FaultConfig(
        transient_failure_prob=0.2,
        breaker_threshold=2,
        breaker_cooldown_s=10.0,
    )


@register_fault_preset("load-shed")
def _load_shed_preset() -> FaultConfig:
    """Admission control only: depth and slack shedding, no faults."""
    return FaultConfig(shed_queue_depth=8, shed_slack_s=60.0)
