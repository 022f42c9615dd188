"""Event-driven multi-replica cluster simulation.

``ClusterSimulator`` drives N :class:`~repro.cluster.replica.Replica`
objects — each wrapping any :class:`~repro.systems.InferenceSystem` on its
own (possibly heterogeneous) hardware — against one shared request stream.

Event model (see :mod:`repro.cluster.events`): a single time-ordered heap
carries request *arrivals*, per-request batching *deadlines*, and group
*completions*. On arrival the router picks a replica and the request joins
its FIFO queue; a full group dispatches immediately, otherwise a deadline
event guarantees the partial group dispatches at exactly
``oldest.arrival_s + max_wait_s`` — the continuous group-formation loop
that replaces the serial batch-wait logic of the single-machine server.
Deadlines are validated lazily, so stale ones (their group already
dispatched) are no-ops.

Expert residency: when ``partition_experts`` is on, the fleet pins hot
experts (popularity-rank order, :mod:`repro.routing.popularity`) round-robin
across replicas' VRAM slots, so every hot expert is resident *somewhere*
and the expert-affinity router can exploit it; otherwise each replica keeps
whatever its own placement plan makes resident. All randomness lives in the
request generators — the simulator itself is deterministic, so a fixed seed
reproduces byte-identical reports across router policies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.cluster.events import ARRIVAL, COMPLETION, DEADLINE, EventQueue
from repro.cluster.faults import FaultLayer
from repro.cluster.replica import Replica
from repro.cluster.report import ClusterReport, ReplicaStats, make_record
from repro.cluster.routers import Router
from repro.hardware.spec import HardwareSpec
from repro.model.config import ModelConfig
from repro.obs import count, span
from repro.routing.popularity import zipf_weights
from repro.routing.workload import Workload
from repro.scenario import Scenario
from repro.serving.requests import Request
from repro.serving.server import BatchingConfig

_EPS = 1e-9


@dataclass(frozen=True)
class ClusterConfig:
    """Fleet-level policy knobs.

    Per-replica knobs (batching, the prompt-length memoization quantum)
    live on :class:`~repro.cluster.replica.Replica` and are set through
    :func:`build_cluster`.

    Attributes:
        slo_s: end-to-end latency bound for goodput accounting.
        partition_experts: shard hot-expert residency across replicas.
        expert_slots_per_replica: residency slots per replica (None:
            derive from each replica's placement).
        scheduler: dispatch discipline — ``"group"`` (the historical
            group-granular event loop) or any other name registered in
            ``repro.api.SCHEDULERS`` (e.g. ``"continuous"`` for
            iteration-level batching). The group path is untouched when
            this is ``"group"``, keeping fleet goldens byte-identical.
    """

    slo_s: float = 120.0  # end-to-end latency bound for goodput accounting
    partition_experts: bool = True  # shard hot-expert residency across replicas
    expert_slots_per_replica: int | None = None  # None: derive from placement
    scheduler: str = "group"  # dispatch discipline (SCHEDULERS registry)

    def __post_init__(self):
        if self.slo_s <= 0:
            raise ValueError("slo_s must be positive")


def build_cluster(
    model: ModelConfig,
    environments: list[HardwareSpec],
    batching: BatchingConfig,
    *,
    system_factory=None,
    prompt_len: int = 512,
    gen_len: int = 8,
    seed: int = 0,
    prompt_quantum: int = 64,
    shared_cache: dict | None = None,
    timeline_stride: int = 1,
) -> list[Replica]:
    """Build one replica per environment.

    Group timings are memoized in the process-wide cache shared by every
    replica whose (system, environment, model, seed, batching shape,
    prompt quantum) agree — see
    :func:`repro.cluster.replica.clear_group_timing_memo` — so N-replica
    fleets, and successive fleets in one process, never re-simulate an
    identical group.

    Args:
        model: model preset served by every replica.
        environments: one hardware spec per replica (heterogeneous OK).
        batching: group-formation policy shared by the fleet.
        system_factory: called once per replica (default: Klotski); pass
            a list of factories for a mixed-system fleet.
        prompt_len: mean prompt length used for group timing.
        gen_len: generated tokens per request.
        seed: scenario routing seed.
        prompt_quantum: prompt-length bucket for timing memoization.
        shared_cache: group-timing cache shared by the fleet (default:
            the process-wide memo; pass a dict to isolate this fleet,
            e.g. for determinism checks).
        timeline_stride: keep every N-th queue-depth sample per replica
            (1 keeps all — the goldens' exact behaviour).

    Returns:
        The list of replicas, ready for :class:`ClusterSimulator`.
    """
    if not environments:
        raise ValueError("at least one environment is required")
    if system_factory is None:
        from repro.core.engine import KlotskiSystem

        system_factory = KlotskiSystem
    factories = (
        system_factory
        if isinstance(system_factory, list)
        else [system_factory] * len(environments)
    )
    if len(factories) != len(environments):
        raise ValueError("need one system factory per environment")
    workload = Workload(
        batching.batch_size, batching.group_batches, prompt_len, gen_len
    )
    return [
        Replica(
            replica_id=i,
            scenario=Scenario(model, env, workload, seed=seed),
            system=factory(),
            batching=batching,
            prompt_quantum=prompt_quantum,
            shared_cache=shared_cache,
            timeline_stride=timeline_stride,
        )
        for i, (env, factory) in enumerate(zip(environments, factories))
    ]


class ClusterSimulator:
    """Route one request stream across a fleet of replicas.

    Args:
        replicas: the fleet (at least one :class:`Replica`).
        router: request-routing policy.
        config: fleet-level knobs (default :class:`ClusterConfig`).
        faults: optional :class:`~repro.cluster.faults.FaultConfig`,
            applied by the run's :class:`~repro.cluster.faults.FaultLayer`
            (an active config forces the serial event loop).
        retry: optional :class:`~repro.cluster.faults.RetryPolicy` used
            under fault injection (default policy when omitted).
    """

    def __init__(
        self,
        replicas: list[Replica],
        router: Router,
        config: ClusterConfig | None = None,
        *,
        faults=None,
        retry=None,
    ):
        if not replicas:
            raise ValueError("at least one replica is required")
        self.replicas = replicas
        self.router = router
        self.config = config or ClusterConfig()
        self.faults = faults
        self.retry = retry
        self._consumed = False
        self._assign_residency()

    def _assign_residency(self) -> None:
        """Pin expert residency per replica before any traffic flows."""
        if not self.config.partition_experts:
            for replica in self.replicas:
                replica.resident_experts = replica.derive_resident_experts()
            return
        # Popularity-mass partition: expert index == popularity rank (the
        # convention of assign_hot_experts). Experts are assigned hottest
        # first to the replica with the least accumulated popularity mass
        # and a free slot, so no replica owns a disproportionate share of
        # the traffic its affinity attracts.
        slots = []
        for replica in self.replicas:
            explicit = self.config.expert_slots_per_replica
            slots.append(
                explicit
                if explicit is not None
                else max(1, len(replica.derive_resident_experts()))
            )
        assigned: list[set[int]] = [set() for _ in self.replicas]
        mass = [0.0] * len(self.replicas)
        num_experts = min(r.scenario.model.num_experts for r in self.replicas)
        weights = zipf_weights(num_experts, self.replicas[0].scenario.skew)
        for expert in range(num_experts):
            open_replicas = [
                i for i, a in enumerate(assigned) if len(a) < slots[i]
            ]
            if not open_replicas:
                break
            target = min(open_replicas, key=lambda i: (mass[i], i))
            assigned[target].add(expert)
            mass[target] += float(weights[expert])
        for replica, experts in zip(self.replicas, assigned):
            replica.resident_experts = frozenset(experts)

    # ---- event loop -------------------------------------------------------

    def run(
        self,
        requests: list[Request],
        *,
        engine: str = "serial",
        jobs: int = 1,
    ) -> ClusterReport:
        """Simulate the stream to completion and aggregate the report.

        Args:
            requests: the request stream (any order; sorted internally).
            engine: ``serial`` (the reference event loop), ``batched``
                (group-granular per-replica scan), or ``sharded`` (the
                scans across a ``multiprocessing`` pool). The fast
                engines produce bit-identical reports — see
                :mod:`repro.cluster.engines` and
                :func:`repro.validation.run_cluster_differential`.
            jobs: worker processes for the sharded engine (ignored
                otherwise).

        Raises:
            RuntimeError: on fleet reuse. Replica state (queues, groups,
                busy time) accumulates across runs and silently corrupts
                the second report, so a simulator serves exactly one
                stream — build a fresh fleet (:func:`build_cluster` /
                ``repro.api.build_fleet``) per run.

        With an active fault config every engine deterministically runs
        the serial loop (the fast engines do not model faults); the
        fallback is counted as ``cluster.engine.fault_fallback``.
        A non-default ``config.scheduler`` likewise always runs its own
        serial event loop (counted ``cluster.engine.scheduler_fallback``
        when a fast engine was requested).
        """
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self._consumed or any(
            r.groups or r.queue or r.busy_s or r.queue_depth_timeline
            or r._timeline_tick
            for r in self.replicas
        ):
            raise RuntimeError(
                "this fleet has already served a stream: replica state "
                "(queues, groups, busy time) accumulates across run() "
                "calls and would corrupt the report — build a fresh "
                "fleet per run (build_cluster / repro.api.build_fleet)"
            )
        self._consumed = True
        with span(
            "cluster.run",
            {
                "replicas": len(self.replicas),
                "requests": len(requests),
                "engine": engine,
            },
        ):
            if self.config.scheduler != "group":
                # Registered schedulers own their full event loop
                # (including fault handling); the group path below stays
                # byte-identical for golden safety.
                from repro.api.registry import SCHEDULERS

                if engine != "serial":
                    count("cluster.engine.scheduler_fallback")
                scheduler_cls = SCHEDULERS.get(self.config.scheduler)
                return scheduler_cls(self).run(requests)
            if engine == "serial":
                return self._run(requests)
            if self.faults is not None and self.faults.active():
                count("cluster.engine.fault_fallback")
                return self._run(requests)
            from repro.cluster.engines import run_engine

            return run_engine(self, requests, engine=engine, jobs=jobs)

    def _run(self, requests: list[Request]) -> ClusterReport:
        """The group event loop: the reference for every engine, faulted
        or not (the :class:`~repro.cluster.faults.FaultLayer` is inactive
        without faults)."""
        report = ClusterReport(router=self.router.name, slo_s=self.config.slo_s)
        records = report.records
        append = records.append
        events = EventQueue(sorted(requests, key=lambda r: r.arrival_s))
        push, pop = events.push, events.pop
        choose, replicas = self.router.choose, self.replicas
        # Per replica, the index of the first record of each in-flight
        # group, in dispatch (= completion) order: a crash turns the
        # aborted groups' records into tombstones, compacted once at the
        # end.
        pending: list[deque] = [deque() for _ in replicas]
        # Event-loop accounting: folded into the report (deterministic per
        # stream) and mirrored to the process counters for the manifest.
        arrivals = full_dispatches = deadline_dispatches = completions = 0
        dead = 0

        def route(request: Request, now: float) -> None:
            nonlocal full_dispatches
            healthy = replicas
            if faulted:
                healthy = layer.healthy(now)
                if not healthy:
                    layer.terminal(request, now, "shed", -1)
                    return
            with span("cluster.route"):
                replica = choose(request, healthy, now)
            if shedding and layer.shed(
                request,
                replica.replica_id,
                now,
                len(replica.queue),
                replica.free_at - now,
            ):
                return
            if replica.enqueue(request, now):
                full_dispatches += dispatch(replica, now)
            else:
                # A retried or requeued request may re-enqueue after its
                # batching deadline; clamping to `now` keeps event time
                # monotone (an arrival's deadline is never before it).
                deadline = request.arrival_s + replica.batching.max_wait_s
                if deadline < now:
                    deadline = now
                push(deadline, DEADLINE, replica)

        def dispatch(replica: Replica, now: float) -> int:
            """Commit the replica's head group; 0 if it failed transiently."""
            rid = replica.replica_id
            if transient and layer.transient_fails(rid, now):
                members = replica.queue[: replica.batching.group_capacity]
                del replica.queue[: len(members)]
                replica.sample_queue_depth(now, len(replica.queue))
                for request in members:
                    attempts[request.request_id] = (
                        attempts.get(request.request_id, 0) + 1
                    )
                    layer.retry_or_fail(request, now, rid)
                return 0
            with span("cluster.dispatch", {"replica": rid}):
                group = replica.dispatch(now)
            pending[rid].append(len(records))
            push(group.completion_s, COMPLETION, (replica, group, epoch[rid]))
            start, completion = group.start_s, group.completion_s
            first_token = start + group.prefill_s
            n = 1  # fault-free runs never retry
            for request in group.requests:
                if faulted:
                    n = attempts[request.request_id] = (
                        attempts.get(request.request_id, 0) + 1
                    )
                append(
                    make_record(
                        request,
                        rid,
                        now,
                        start,
                        completion,
                        first_token - request.arrival_s,
                        "completed",
                        n,
                    )
                )
            return 1

        def evict(rid: int, now: float) -> tuple[list, list]:
            nonlocal dead
            replica = replicas[rid]
            slots = pending[rid]
            pending[rid] = deque()
            running: list[Request] = []
            if slots:
                # In-flight groups are the newest ones on the replica.
                first = len(replica.groups) - len(slots)
                aborted = replica.groups[first:]
                del replica.groups[first:]
                for group, slot in zip(aborted, slots):
                    size = len(group.requests)
                    replica.busy_s -= group.completion_s - group.start_s
                    replica.inflight -= size
                    replica.expert_misses -= group.expert_misses
                    records[slot : slot + size] = [None] * size
                    running.extend(group.requests)
                dead += len(running)
            return running, release(rid, now)

        def release(rid: int, now: float) -> list[Request]:
            replica = replicas[rid]
            queued = strand(rid)
            replica.sample_queue_depth(now, 0)
            return queued

        def strand(rid: int) -> list[Request]:
            queue = replicas[rid].queue
            queued = queue[:]
            queue.clear()
            return queued

        def last_end(rid: int) -> float:
            groups = replicas[rid].groups
            return groups[-1].completion_s if groups else 0.0

        layer = FaultLayer(
            self,
            requests,
            events,
            report,
            route=route,
            evict=evict,
            release=release,
            strand=strand,
            last_end=last_end,
        )
        up, epoch, attempts = layer.up, layer.epoch, layer.attempts
        faulted = layer.active
        shedding, transient, handle = layer.shedding, layer.transient, layer.handle

        while events:
            now, _, _, kind, payload = pop()
            if kind == ARRIVAL:
                arrivals += 1
                route(payload, now)
            elif kind == DEADLINE:
                # Fires when the queue head's batching deadline has passed.
                queue = payload.queue
                if (
                    queue
                    and queue[0].arrival_s + payload.batching.max_wait_s
                    <= now + _EPS
                    and up[payload.replica_id]
                ):
                    deadline_dispatches += dispatch(payload, now)
            elif kind == COMPLETION:
                replica, group, group_epoch = payload
                rid = replica.replica_id
                if group_epoch == epoch[rid]:  # else aborted by a crash
                    completions += 1
                    replica.complete(group)
                    pending[rid].popleft()
            else:
                handle(kind, payload, now)

        if dead:
            report.records = [r for r in records if r is not None]
        report.replicas = [self._replica_stats(r) for r in replicas]
        report.counters = {
            "arrivals": arrivals,
            "full_group_dispatches": full_dispatches,
            "deadline_dispatches": deadline_dispatches,
            "dispatched_groups": full_dispatches + deadline_dispatches,
            "completions": completions,
        }
        layer.finish(report)
        return report

    @staticmethod
    def _replica_stats(replica: Replica) -> ReplicaStats:
        return ReplicaStats(
            replica_id=replica.replica_id,
            hardware=replica.hardware_name,
            system=replica.system_name,
            requests=sum(len(g.requests) for g in replica.groups),
            groups=len(replica.groups),
            busy_s=replica.busy_s,
            expert_misses=replica.expert_misses,
            resident_experts=tuple(sorted(replica.resident_experts)),
            queue_depth_timeline=list(replica.queue_depth_timeline),
        )
