"""Cluster-level serving metrics: latency SLOs, utilization, and cost.

Serving metrics for a fleet of any size (one machine is a one-replica
fleet): per-replica utilization and queue-depth timelines, cluster-wide
TTFT and latency percentiles (p50/p95/p99), *goodput* — throughput counting
only requests that met a latency SLO — and a cost-per-token estimate from
per-hardware dollar rates. Everything is exportable as plain dicts for the
CLI's ``--json`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import span
from repro.serving.requests import Request

# Rough on-demand cloud $/hour per simulated environment; used for the
# cost-per-token estimate, overridable via the ``rates`` argument of
# :meth:`ClusterReport.cost_usd` / :meth:`ClusterReport.cost_per_token`.
HARDWARE_COST_PER_HOUR = {
    "env1-rtx3090": 0.6,
    "env2-h800": 3.2,
}
DEFAULT_COST_PER_HOUR = 1.0


@dataclass(frozen=True)
class RequestRecord:
    """Lifecycle of one request through the cluster.

    Every request terminates exactly once: ``completed`` (served),
    ``shed`` (dropped by admission control before any execution), or
    ``failed`` (retries exhausted after crashes/transient faults). For
    non-completed outcomes the three timestamps all equal the terminal
    decision time, so ``latency_s`` reads as time-in-system until the
    drop. Fault-free runs only ever produce ``completed`` records.

    Attributes:
        request: the served request.
        replica_id: replica that executed it (-1: dropped before any
            replica was chosen, e.g. shed with no healthy replica).
        dispatch_s: group committed to the replica's execution slot.
        start_s: machine actually began the group.
        completion_s: request finished (or terminal drop time).
        ttft_s: arrival -> first output token (start + group prefill);
            0.0 for non-completed outcomes.
        outcome: ``completed`` | ``shed`` | ``failed``.
        attempts: dispatch attempts consumed (1 when fault-free).
    """

    request: Request
    replica_id: int
    dispatch_s: float  # group committed to the replica's execution slot
    start_s: float  # machine actually began the group
    completion_s: float
    ttft_s: float  # arrival -> first output token (start + group prefill)
    outcome: str = "completed"
    attempts: int = 1

    @property
    def latency_s(self) -> float:
        return self.completion_s - self.request.arrival_s

    @property
    def queueing_s(self) -> float:
        return self.start_s - self.request.arrival_s


def make_record(
    request: Request,
    replica_id: int,
    dispatch_s: float,
    start_s: float,
    completion_s: float,
    ttft_s: float,
    outcome: str = "completed",
    attempts: int = 1,
) -> RequestRecord:
    """Fast :class:`RequestRecord` constructor for the simulation engines.

    A frozen dataclass pays one ``object.__setattr__`` per field in
    ``__init__``; at a record per request that is the single largest cost
    of a million-request report. Writing ``__dict__`` wholesale produces
    an identical instance (``__eq__``/``__hash__`` read the same
    attributes) at a fraction of the cost. Requires RequestRecord to stay
    a plain (non-``slots``) dataclass.
    """
    record = RequestRecord.__new__(RequestRecord)
    # In-place dict update: rebinding __dict__ would route through the
    # frozen __setattr__ and raise.
    record.__dict__.update(
        request=request,
        replica_id=replica_id,
        dispatch_s=dispatch_s,
        start_s=start_s,
        completion_s=completion_s,
        ttft_s=ttft_s,
        outcome=outcome,
        attempts=attempts,
    )
    return record


@dataclass
class ReplicaStats:
    """Per-replica utilization and queue telemetry.

    Attributes:
        replica_id: position in the fleet.
        hardware: environment preset name.
        system: inference-system name.
        requests: requests served.
        groups: batch groups executed.
        busy_s: cumulative execution time.
        expert_misses: hot-expert requests served without residency.
        resident_experts: expert ids pinned in this replica's VRAM.
        queue_depth_timeline: (time, queue depth) samples.
        up_time_s: billable serving time — makespan minus crash downtime,
            clipped to the replica's join/drain window. ``None`` (the
            fault-free default) means the full makespan.
        batch_capacity: most requests the replica may run at once under
            iteration-level scheduling (set by the continuous scheduler,
            checked by :func:`repro.validation.check_cluster`; never
            serialized). ``None`` for group-granular reports.
    """

    replica_id: int
    hardware: str
    system: str
    requests: int = 0
    groups: int = 0
    busy_s: float = 0.0
    expert_misses: int = 0
    resident_experts: tuple[int, ...] = ()
    queue_depth_timeline: list[tuple[float, int]] = field(default_factory=list)
    up_time_s: float | None = None
    batch_capacity: int | None = None

    def utilization(self, makespan_s: float) -> float:
        if makespan_s <= 0:
            return 0.0
        return min(1.0, self.busy_s / makespan_s)

    def max_queue_depth(self) -> int:
        return max((d for _, d in self.queue_depth_timeline), default=0)

    def to_dict(self, makespan_s: float) -> dict:
        out = {
            "replica_id": self.replica_id,
            "hardware": self.hardware,
            "system": self.system,
            "requests": self.requests,
            "groups": self.groups,
            "busy_s": self.busy_s,
            "utilization": self.utilization(makespan_s),
            "expert_misses": self.expert_misses,
            "resident_experts": list(self.resident_experts),
            "max_queue_depth": self.max_queue_depth(),
            "queue_depth_timeline": [
                [t, d] for t, d in self.queue_depth_timeline
            ],
        }
        # Emitted only under fault injection so fault-free report dicts
        # (and the fleet goldens that hash them) stay byte-identical.
        if self.up_time_s is not None:
            out["up_time_s"] = self.up_time_s
        return out


@dataclass
class ClusterReport:
    """Aggregate result of one cluster simulation.

    Attributes:
        router: routing-policy name.
        slo_s: latency bound used for goodput accounting.
        records: one :class:`RequestRecord` per served request.
        replicas: per-replica telemetry.
        makespan_s: last completion time.
        counters: event-loop counts (arrivals, dispatches by trigger,
            completions), deterministic per request stream.
        availability: fault-injection availability metrics (terminal
            outcome counts, downtime seconds/windows per replica, fleet
            availability, goodput under faults); empty — and never
            serialized — on fault-free runs.
        scheduler: scheduling discipline that produced the records —
            ``group`` (the default batch-group dispatch) or
            ``continuous`` (iteration-level admission; see
            :mod:`repro.serving.scheduler`). Serialized only when not
            ``group`` so existing report dicts stay byte-identical.
        slo_class_targets: per-SLO-class latency targets (seconds) used
            for the per-class attainment split; empty (the default) means
            every class is held to ``slo_s``. Set by the continuous
            scheduler, serialized only alongside it.
    """

    router: str
    slo_s: float
    records: list[RequestRecord] = field(default_factory=list)
    replicas: list[ReplicaStats] = field(default_factory=list)
    makespan_s: float = 0.0
    # Event-loop counters (arrivals, dispatches by trigger, completions,
    # routed requests). Deterministic per request stream — unlike the
    # process-wide memo counters, which live in the CLI manifest because
    # their hit/miss split depends on what ran earlier in the process.
    counters: dict = field(default_factory=dict)
    # Fault-injection availability metrics (downtime windows, terminal
    # outcome counts, ...). Empty — and never serialized — on fault-free
    # runs, so existing goldens hash the exact same report dict.
    availability: dict = field(default_factory=dict)
    scheduler: str = "group"
    slo_class_targets: dict = field(default_factory=dict)

    # ---- latency ----------------------------------------------------------

    def invalidate_metrics(self) -> None:
        """Mark cached metric arrays stale after an in-place mutation.

        Appending records invalidates the cache automatically (it is
        keyed on record count); an engine that *replaces* a record — a
        retry flipping an existing record's outcome, say — leaves the
        count unchanged and must bump this dirty tick or the cached
        latency/goodput arrays silently serve the pre-mutation values.
        """
        self.__dict__["_dirty_tick"] = self.__dict__.get("_dirty_tick", 0) + 1

    def _metrics(self) -> dict:
        """Arrays/sums over completed records, built once per record set.

        ``percentile_*``, the mean properties, and ``to_dict`` otherwise
        rebuild the full array from ``records`` on every call — quadratic
        -ish in report rendering for million-request fleets. The cache is
        an undeclared instance attribute, so dataclass ``__eq__`` (which
        compares declared fields only) is unaffected; it is invalidated
        by record-count changes plus the explicit dirty tick engines bump
        via :meth:`invalidate_metrics` for count-preserving mutations.
        """
        tick = self.__dict__.get("_dirty_tick", 0)
        cache = self.__dict__.get("_metric_cache")
        if (
            cache is not None
            and cache["n"] == len(self.records)
            and cache["tick"] == tick
        ):
            return cache
        completed = [r for r in self.records if r.outcome == "completed"]
        latencies = np.array([r.latency_s for r in completed])
        cache = {
            "n": len(self.records),
            "tick": tick,
            "latencies": latencies,
            "ttfts": np.array([r.ttft_s for r in completed]),
            "tokens": sum(r.request.gen_len for r in completed),
            "met": sum(1 for r in completed if r.latency_s <= self.slo_s),
            "good_tokens": sum(
                r.request.gen_len for r in completed if r.latency_s <= self.slo_s
            ),
        }
        self.__dict__["_metric_cache"] = cache
        return cache

    def _class_metrics(self) -> dict:
        """Per-SLO-class latency/TTFT arrays, cached like :meth:`_metrics`.

        Built lazily (and separately from the main cache) so group-mode
        fleets that never ask for a per-class split pay nothing.
        """
        tick = self.__dict__.get("_dirty_tick", 0)
        cache = self.__dict__.get("_class_cache")
        if (
            cache is not None
            and cache["n"] == len(self.records)
            and cache["tick"] == tick
        ):
            return cache["classes"]
        grouped: dict[str, dict] = {}
        for record in self.records:
            cls = grouped.setdefault(
                record.request.slo_class,
                {"records": 0, "latencies": [], "ttfts": []},
            )
            cls["records"] += 1
            if record.outcome == "completed":
                cls["latencies"].append(record.latency_s)
                cls["ttfts"].append(record.ttft_s)
        classes = {
            name: {
                "records": data["records"],
                "latencies": np.array(data["latencies"]),
                "ttfts": np.array(data["ttfts"]),
            }
            for name, data in grouped.items()
        }
        self.__dict__["_class_cache"] = {
            "n": len(self.records), "tick": tick, "classes": classes,
        }
        return classes

    def latencies(self) -> np.ndarray:
        """Latency array over completed records (cached; treat read-only)."""
        return self._metrics()["latencies"]

    def ttfts(self) -> np.ndarray:
        """TTFT array over completed records (cached; treat read-only)."""
        return self._metrics()["ttfts"]

    def percentile_latency(self, q: float, slo_class: str | None = None) -> float:
        """Latency percentile, optionally restricted to one SLO class."""
        if slo_class is None:
            arr = self.latencies()
        else:
            data = self._class_metrics().get(slo_class)
            arr = data["latencies"] if data is not None else np.array([])
        if arr.size == 0:
            return 0.0
        return float(np.percentile(arr, q))

    def percentile_ttft(self, q: float, slo_class: str | None = None) -> float:
        """TTFT percentile, optionally restricted to one SLO class."""
        if slo_class is None:
            arr = self.ttfts()
        else:
            data = self._class_metrics().get(slo_class)
            arr = data["ttfts"] if data is not None else np.array([])
        if arr.size == 0:
            return 0.0
        return float(np.percentile(arr, q))

    def slo_class_metrics(self) -> dict:
        """Per-SLO-class latency/TTFT percentiles and attainment.

        Each class is held to its ``slo_class_targets`` entry (falling
        back to the fleet-wide ``slo_s``), so interactive and batch
        tenants report attainment against *their own* targets. Shed and
        failed requests of a class count against its attainment, exactly
        like the fleet-wide number.
        """
        out = {}
        for name, data in sorted(self._class_metrics().items()):
            target = float(self.slo_class_targets.get(name, self.slo_s))
            latencies, ttfts = data["latencies"], data["ttfts"]
            met = int((latencies <= target).sum()) if latencies.size else 0
            out[name] = {
                "requests": data["records"],
                "completed": int(latencies.size),
                "slo_target_s": target,
                "slo_attainment": (
                    met / data["records"] if data["records"] else 0.0
                ),
                "mean_latency_s": (
                    float(latencies.mean()) if latencies.size else 0.0
                ),
                "p50_latency_s": self.percentile_latency(50, name),
                "p95_latency_s": self.percentile_latency(95, name),
                "p99_latency_s": self.percentile_latency(99, name),
                "mean_ttft_s": float(ttfts.mean()) if ttfts.size else 0.0,
                "p95_ttft_s": self.percentile_ttft(95, name),
            }
        return out

    @property
    def mean_latency_s(self) -> float:
        arr = self.latencies()
        if arr.size == 0:
            return 0.0
        return float(arr.mean())

    @property
    def mean_ttft_s(self) -> float:
        arr = self.ttfts()
        if arr.size == 0:
            return 0.0
        return float(arr.mean())

    # ---- throughput, goodput, cost ---------------------------------------

    @property
    def generated_tokens(self) -> int:
        """Tokens actually generated (completed requests only)."""
        return self._metrics()["tokens"]

    @property
    def throughput(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.generated_tokens / self.makespan_s

    @property
    def slo_attainment(self) -> float:
        """Fraction of terminal requests that completed within the SLO.

        Shed and failed requests count against attainment — a dropped
        request never met its SLO — which is what makes this the
        goodput-under-faults headline number.
        """
        if not self.records:
            return 0.0
        return self._metrics()["met"] / len(self.records)

    @property
    def goodput(self) -> float:
        """Tokens/s counting only requests that met the latency SLO."""
        if self.makespan_s <= 0:
            return 0.0
        return self._metrics()["good_tokens"] / self.makespan_s

    def cost_usd(self, rates: dict[str, float] | None = None) -> float:
        """Fleet cost of the run: each replica billed for its up time.

        Fault-free (``up_time_s`` unset on every replica) this bills
        every replica for the full makespan, exactly as before; under
        join/drain/crash schedules a replica only pays for the window it
        was actually serving.
        """
        rates = rates or HARDWARE_COST_PER_HOUR
        total = 0.0
        for stats in self.replicas:
            up = stats.up_time_s if stats.up_time_s is not None else self.makespan_s
            total += rates.get(stats.hardware, DEFAULT_COST_PER_HOUR) * (
                up / 3600.0
            )
        return total

    def cost_per_token(self, rates: dict[str, float] | None = None) -> float:
        tokens = self.generated_tokens
        if tokens == 0:
            return 0.0
        return self.cost_usd(rates) / tokens

    @property
    def expert_misses(self) -> int:
        return sum(stats.expert_misses for stats in self.replicas)

    # ---- rendering --------------------------------------------------------

    def summary(self) -> str:
        lines = [
            f"cluster: {len(self.replicas)} replicas, router={self.router}, "
            f"{len(self.records)} requests in {self.makespan_s:.1f} s",
            f"throughput {self.throughput:.2f} tok/s, goodput "
            f"{self.goodput:.2f} tok/s ({self.slo_attainment:.0%} of requests "
            f"met the {self.slo_s:.0f} s SLO)",
            f"TTFT mean {self.mean_ttft_s:.1f} s / p95 "
            f"{self.percentile_ttft(95):.1f} s; latency p50 "
            f"{self.percentile_latency(50):.1f} / p95 "
            f"{self.percentile_latency(95):.1f} / p99 "
            f"{self.percentile_latency(99):.1f} s",
            f"cost ${self.cost_usd():.4f} "
            f"(${1e3 * self.cost_per_token():.4f} per 1k tokens), "
            f"{self.expert_misses} expert fetch misses",
        ]
        if self.scheduler != "group":
            lines.append(f"scheduler: {self.scheduler}")
            for name, m in self.slo_class_metrics().items():
                lines.append(
                    f"  class {name}: {m['requests']} reqs, "
                    f"{m['slo_attainment']:.0%} within {m['slo_target_s']:.0f} s, "
                    f"TTFT p95 {m['p95_ttft_s']:.1f} s, latency p99 "
                    f"{m['p99_latency_s']:.1f} s"
                )
        if self.availability:
            a = self.availability
            lines.append(
                f"faults: {a.get('completed', 0)} completed / "
                f"{a.get('shed', 0)} shed / {a.get('failed', 0)} failed "
                f"({a.get('retried_requests', 0)} retried), fleet "
                f"availability {a.get('availability', 1.0):.1%}"
            )
        if self.counters:
            lines.append(
                "events: "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
            )
        for stats in self.replicas:
            lines.append(
                f"  replica {stats.replica_id} [{stats.hardware}] "
                f"{stats.requests} reqs in {stats.groups} groups, util "
                f"{stats.utilization(self.makespan_s):.0%}, max queue "
                f"{stats.max_queue_depth()}, misses {stats.expert_misses}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        with span("cluster.report.metrics", {"records": len(self.records)}):
            return self._to_dict()

    def _to_dict(self) -> dict:
        # Fault-related keys (availability, per-request outcome/attempts)
        # are emitted only when fault injection actually ran: fault-free
        # report dicts — and the goldens hashing them — stay identical.
        faulted = bool(self.availability)

        def request_entry(r: RequestRecord) -> dict:
            entry = {
                "request_id": r.request.request_id,
                "replica_id": r.replica_id,
                "arrival_s": r.request.arrival_s,
                "start_s": r.start_s,
                "completion_s": r.completion_s,
                "ttft_s": r.ttft_s,
                "latency_s": r.latency_s,
            }
            if faulted:
                entry["outcome"] = r.outcome
                entry["attempts"] = r.attempts
            return entry

        out = {
            "router": self.router,
            "slo_s": self.slo_s,
            "num_replicas": len(self.replicas),
            "num_requests": len(self.records),
            "makespan_s": self.makespan_s,
            "generated_tokens": self.generated_tokens,
            "throughput_tok_s": self.throughput,
            "goodput_tok_s": self.goodput,
            "slo_attainment": self.slo_attainment,
            "mean_latency_s": self.mean_latency_s,
            "p50_latency_s": self.percentile_latency(50),
            "p95_latency_s": self.percentile_latency(95),
            "p99_latency_s": self.percentile_latency(99),
            "mean_ttft_s": self.mean_ttft_s,
            "p95_ttft_s": self.percentile_ttft(95),
            "cost_usd": self.cost_usd(),
            "cost_per_token_usd": self.cost_per_token(),
            "expert_misses": self.expert_misses,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "replicas": [r.to_dict(self.makespan_s) for r in self.replicas],
            "requests": [request_entry(r) for r in self.records],
        }
        if faulted:
            out["availability"] = self.availability
        # Scheduler keys follow the same conditional-emission discipline
        # as the fault keys: the default group scheduler's report dicts —
        # and the fleet goldens hashing them — stay byte-identical.
        if self.scheduler != "group":
            out["scheduler"] = self.scheduler
            out["slo_classes"] = self.slo_class_metrics()
        return out
