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
retried/shed/failed counts, per-replica up-time billing).

:class:`FaultLayer` applies all of this to one run. The one event loop
(:meth:`~repro.cluster.simulator.ClusterSimulator._run`) builds it and
routes every health, retry and shedding decision through it, under
either dispatch policy (:mod:`repro.serving.scheduler`). The batched
engine (:mod:`repro.cluster.engines`) does not model faults; a simulator
with an active fault config deterministically falls back to the serial
group loop, which the differential harness treats as trivially
engine-identical.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.api.config import parse, to_plain
from repro.api.registry import register_fault_preset
from repro.cluster.events import (
    CRASH,
    DRAIN,
    JOIN,
    RECOVER,
    RETRY,
    SLOW_END,
    SLOW_START,
)
from repro.cluster.report import ClusterReport, make_record
from repro.obs import count
from repro.serving.requests import Request


# Sub-stream tags for np.random.default_rng([seed, tag, ...]) so the
# crash, straggler, transient, and jitter streams are independent.
_TAG_CRASH = 3
_TAG_STRAGGLER = 5
_TAG_TRANSIENT = 13
_TAG_JITTER = 11

# Report counters a faulted run always carries (fault-free runs add a
# terminal-outcome key only if one occurs).
FAULT_COUNTERS = (
    "crashes", "recoveries", "joins", "drains", "straggler_windows",
    "transient_failures", "breaker_trips", "retries_scheduled",
    "requeued_from_crash", "requeued_from_drain", "shed_requests",
    "failed_requests", "stranded_requests",
)


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
    inert: :meth:`active` is False and the run's :class:`FaultLayer` is
    the inactive one, bit-identical to a run with no fault config at all.

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

        An inactive config yields the inactive :class:`FaultLayer` — the
        property the "empty plan reproduces the goldens" invariant rests
        on.
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
        """Plain-JSON form (``joins``/``drains`` as ``[time_s, id]`` lists)."""
        return to_plain(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultConfig":
        """Strictly parse a fault dict (:func:`repro.api.config.parse`)."""
        return parse(cls, data, what="fault config")


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
        """Plain-JSON form."""
        return to_plain(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        """Strictly parse a retry dict (:func:`repro.api.config.parse`)."""
        return parse(cls, data, what="retry policy")


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


class FaultLayer:
    """Health, retries and shedding for one cluster run.

    Built per run by the event loop
    (:meth:`~repro.cluster.simulator.ClusterSimulator._run`), it is the
    only code that reads the fault config, replica health and retry state.
    Without an active config it is the inactive layer: no events, every
    replica healthy, nothing shed or failed, no fault keys in the report
    — faults off is the same loop, not another one.

    The loop lends the layer its ``route(request, now)`` and its dispatch
    ``policy`` (a :class:`~repro.serving.scheduler.Scheduler`), which keeps
    the queues and in-flight work: ``policy.evict(rid, now)`` empties a
    crashed replica and returns its ``(in-flight, queued)`` requests,
    ``policy.release(rid, now)`` empties a draining replica's queue and
    returns it, ``policy.strand(rid)`` returns whatever is left at the
    end, and ``policy.last_end(rid)`` is when the replica's last committed
    work ended.

    Attributes:
        active: whether the run injects faults at all.
        config: the fault config (the inert default when inactive).
        up: per-replica up flag (down while crashed or before a join).
        draining: per-replica drain flag.
        epoch: per-replica crash count; work stamped with an older epoch
            was aborted.
        attempts: dispatch attempts consumed per request id; the loop
            counts each dispatch or admission here.
        shedding: whether admission control can shed at all.
        transient: whether dispatches can fail transiently.
    """

    def __init__(self, sim, requests, events, report, *, route, policy):
        config = sim.faults
        n = len(sim.replicas)
        self.active = config is not None and config.active()
        self.config = cfg = config if self.active else FaultConfig()
        self.retry_policy = sim.retry or RetryPolicy()
        self.replicas, self.events, self.report = sim.replicas, events, report
        self.route, self.policy = route, policy
        self.up = [True] * n
        self.draining = [False] * n
        self.epoch = [0] * n
        self.attempts: dict[int, int] = {}
        self.join_s = [0.0] * n
        self.drain_s: list[float | None] = [None] * n
        self.crash_open_s: list[float | None] = [None] * n
        self.down_windows: list[list[tuple[float, float]]] = [[] for _ in range(n)]
        self.dispatch_seq = [0] * n  # transient-oracle ordinal per replica
        self.consec_fail = [0] * n
        self.breaker_until = [0.0] * n
        self.budget_used = 0
        # healthy() caches its list until health changes (which sets
        # _expires to -inf) or ``now`` reaches the earliest breaker expiry.
        self._healthy = sim.replicas
        self._expires = float("inf")
        self.shedding = cfg.shed_queue_depth > 0 or cfg.shed_slack_s > 0
        self.transient = cfg.transient_failure_prob > 0
        self.counters: dict[str, int] = {}
        self.plan = None
        if not self.active:
            return
        self.counters = dict.fromkeys(FAULT_COUNTERS, 0)
        self._expires = float("-inf")
        for t, rid in cfg.joins:
            self.up[rid] = False  # joins start down; the JOIN event brings them up
            self.join_s[rid] = t
        # Sample faults up to the last arrival plus one crash downtime,
        # one straggler window and a minute of slack, so they can still
        # hit the tail of the stream.
        last = max((r.arrival_s for r in requests), default=0.0)
        horizon = last + cfg.crash_downtime_s + cfg.straggler_duration_s + 60.0
        self.plan = compile_fault_plan(cfg, n, horizon)
        for t, kind, rid, value in self.plan.events:
            events.push(t, kind, (rid, value))

    # ---- routing and admission ---------------------------------------------

    def healthy(self, now: float) -> list:
        """Replicas a router may choose at ``now``: up, not draining, and
        breaker closed (a breaker closes at exactly ``breaker_until``)."""
        if now >= self._expires:
            up, draining, until = self.up, self.draining, self.breaker_until
            self._healthy = [
                replica
                for i, replica in enumerate(self.replicas)
                if up[i] and not draining[i] and until[i] <= now
            ]
            self._expires = min((t for t in until if t > now), default=float("inf"))
        return self._healthy

    def shed(
        self, request: Request, rid: int, now: float, depth: int, backlog=None
    ) -> bool:
        """Shed ``request`` (recording it) when replica ``rid``'s queue
        ``depth`` — or, if the caller passes it, its ``backlog`` in
        seconds — is over its bound; the protected class gets a doubled
        depth bound and is never slack-shed."""
        cfg = self.config
        protected = request.slo_class == cfg.shed_protect_class
        limit = cfg.shed_queue_depth * (2 if protected else 1)
        slack = cfg.shed_slack_s
        if (limit and depth >= limit) or (
            backlog is not None and slack > 0 and not protected and backlog > slack
        ):
            self.terminal(request, now, "shed", rid)
            return True
        return False

    def transient_fails(self, rid: int, now: float) -> bool:
        """Draw the transient oracle for ``rid``'s next dispatch; a failure
        is counted and may open the replica's circuit breaker."""
        seq = self.dispatch_seq[rid]
        self.dispatch_seq[rid] = seq + 1
        if not self.plan.transient_fails(rid, seq):
            self.consec_fail[rid] = 0
            return False
        cfg = self.config
        self.counters["transient_failures"] += 1
        self.consec_fail[rid] += 1
        if cfg.breaker_threshold and self.consec_fail[rid] >= cfg.breaker_threshold:
            self.breaker_until[rid] = now + cfg.breaker_cooldown_s
            self.consec_fail[rid] = 0
            self.counters["breaker_trips"] += 1
            self._expires = float("-inf")
        return True

    # ---- terminal outcomes and retries ---------------------------------------

    def terminal(self, request: Request, now: float, outcome: str, rid: int) -> None:
        """Record ``request``'s ``shed`` or ``failed`` outcome at ``now``."""
        attempts = self.attempts.get(request.request_id, 0)
        self.report.records.append(
            make_record(request, rid, now, now, now, 0.0, outcome, attempts)
        )
        key = "shed_requests" if outcome == "shed" else "failed_requests"
        self.counters[key] = self.counters.get(key, 0) + 1

    def retry_or_fail(self, request: Request, now: float, rid: int) -> None:
        """Schedule a backed-off retry, or fail the request once its
        attempts or the run's retry budget are spent."""
        policy = self.retry_policy
        done = self.attempts.get(request.request_id, 0)
        if done >= policy.max_attempts or (
            policy.retry_budget > 0 and self.budget_used >= policy.retry_budget
        ):
            self.terminal(request, now, "failed", rid)
            return
        self.budget_used += 1
        self.counters["retries_scheduled"] += 1
        delay = policy.backoff_s(request.request_id, done)
        self.events.push(now + delay, RETRY, request)

    # ---- fault and control events --------------------------------------------

    def handle(self, kind: str, payload, now: float) -> None:
        """Apply one fault or control event the loop popped."""
        if kind == RETRY:
            self.route(payload, now)
            return
        rid, value = payload
        replica = self.replicas[rid]
        counters = self.counters
        if kind == SLOW_START:
            replica.slow_factor = value
            counters["straggler_windows"] += 1
            return
        if kind == SLOW_END:
            replica.slow_factor = 1.0
            return
        if kind == CRASH:
            if not self.up[rid] or self.draining[rid]:
                return  # stale: replica already down or leaving
            self.up[rid] = False
            self._expires = float("-inf")  # health changed
            self.crash_open_s[rid] = now
            counters["crashes"] += 1
            self.epoch[rid] += 1
            running, queued = self.policy.evict(rid, now)
            replica.free_at = value  # the recovery time
            counters["requeued_from_crash"] += len(running) + len(queued)
            # In-flight work consumed its dispatch attempt; queued work
            # did not and re-routes immediately through the router.
            for request in running:
                self.retry_or_fail(request, now, rid)
            for request in queued:
                self.route(request, now)
        elif kind == RECOVER:
            if self.crash_open_s[rid] is None:
                return
            self.up[rid] = True
            self._expires = float("-inf")
            self.down_windows[rid].append((self.crash_open_s[rid], now))
            self.crash_open_s[rid] = None
            counters["recoveries"] += 1
        elif kind == JOIN:
            self.up[rid] = True
            self._expires = float("-inf")
            replica.free_at = max(replica.free_at, now)
            counters["joins"] += 1
        else:  # DRAIN
            if self.draining[rid]:
                return
            self.draining[rid] = True
            self._expires = float("-inf")
            self.drain_s[rid] = now
            counters["drains"] += 1
            queued = self.policy.release(rid, now)
            counters["requeued_from_drain"] += len(queued)
            for request in queued:
                self.route(request, now)

    # ---- end of run ----------------------------------------------------------

    def finish(self, report: ClusterReport) -> None:
        """Close the run: fail stranded work, set the makespan, fill the
        availability (fault runs only) and fold in the fault counters.

        Expects ``report.replicas`` and the loop's ``report.counters``.
        """
        counters = self.counters
        # Defensive flush: the loop should drain every queue; anything
        # left is a conservation bug surfaced as a counted terminal
        # record rather than a silently lost request.
        for rid, replica in enumerate(self.replicas):
            for request in self.policy.strand(rid):
                self.terminal(request, replica.free_at, "failed", rid)
                counters["stranded_requests"] = counters.get("stranded_requests", 0) + 1
            replica.slow_factor = 1.0
        # Makespan is the last terminal event, not replica free_at — a
        # crash sets free_at to its recovery time, which may outlive all
        # traffic.
        report.makespan_s = max(
            map(attrgetter("completion_s"), report.records), default=0.0
        )
        if self.active:
            self._availability(report)
        report.counters.update(counters)
        for name, value in report.counters.items():
            count(f"cluster.{name}", value)
        # The loop's route and the policy refer back to this layer: drop
        # them so the run's state is freed by reference counting, not
        # left for the cyclic collector.
        self.route = self.policy = None

    def _availability(self, report: ClusterReport) -> None:
        """Per-replica up-time billing and ``report.availability``."""
        outcomes = Counter(record.outcome for record in report.records)
        retried = sum(1 for record in report.records if record.attempts > 1)
        total_down = 0.0
        downtime_s: dict[str, float] = {}
        windows_out: dict[str, list[list[float]]] = {}
        for rid, stats in enumerate(report.replicas):
            windows = self.down_windows[rid]
            opened = self.crash_open_s[rid]
            if opened is not None:
                # Still down at the end of the run: close the window at the
                # makespan (or at the crash instant if traffic ended first).
                windows.append((opened, max(report.makespan_s, opened)))
            start = self.join_s[rid]
            drained = self.drain_s[rid]
            end = report.makespan_s
            if drained is not None:
                end = max(drained, self.policy.last_end(rid))
            end = max(end, start)
            down = 0.0
            for w_start, w_end in windows:
                down += max(0.0, min(w_end, end) - max(w_start, start))
            stats.up_time_s = max(0.0, end - start - down)
            total_down += down
            if windows:
                downtime_s[str(rid)] = down
                windows_out[str(rid)] = [[s, e] for s, e in windows]

        fleet_span = len(report.replicas) * report.makespan_s
        report.availability = {
            "completed": outcomes["completed"],
            "shed": outcomes["shed"],
            "failed": outcomes["failed"],
            "retried_requests": retried,
            "retries_scheduled": self.counters["retries_scheduled"],
            "downtime_s": downtime_s,
            "downtime_windows": windows_out,
            "availability": (
                1.0 - total_down / fleet_span if fleet_span > 0 else 1.0
            ),
            "goodput_under_faults_tok_s": report.goodput,
        }


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
