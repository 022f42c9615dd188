"""Event-driven multi-replica cluster simulation.

``ClusterSimulator`` drives N :class:`~repro.cluster.replica.Replica`
objects — each wrapping any :class:`~repro.systems.InferenceSystem` on its
own (possibly heterogeneous) hardware — against one shared request stream.

Event model (see :mod:`repro.cluster.events`): one event loop,
:meth:`ClusterSimulator._run`, pops a single time-ordered heap. It routes
every *arrival* (health, router, shedding), hands fault events to the
run's :class:`~repro.cluster.faults.FaultLayer`, and leaves each routed
request and the rest of the events to a dispatch policy
(:mod:`repro.serving.scheduler`): group batching by default, or
continuous batching. One machine serving a stream is a one-replica fleet.

Expert residency: when ``partition_experts`` is on, the fleet pins hot
experts (popularity-rank order, :mod:`repro.routing.popularity`) round-robin
across replicas' VRAM slots, so every hot expert is resident *somewhere*
and the expert-affinity router can exploit it; otherwise each replica keeps
whatever its own placement plan makes resident. All randomness lives in the
request generators — the simulator itself is deterministic, so a fixed seed
reproduces byte-identical reports across router policies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.engines import ENGINES, run_batched
from repro.cluster.events import ARRIVAL, EventQueue
from repro.cluster.faults import FaultLayer
from repro.cluster.replica import Replica
from repro.cluster.report import ClusterReport, ReplicaStats
from repro.cluster.routers import Router
from repro.hardware.spec import HardwareSpec
from repro.model.config import ModelConfig
from repro.obs import count, span
from repro.routing.popularity import zipf_weights
from repro.routing.workload import Workload
from repro.scenario import Scenario
from repro.serving.requests import Request
from repro.serving.server import BatchingConfig


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
        scheduler: dispatch policy the event loop runs under —
            ``"group"`` (group-granular batching, the only policy the
            batched engine reproduces) or any other name registered in
            ``repro.api.SCHEDULERS`` (e.g. ``"continuous"`` for
            iteration-level batching).
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
    ) -> ClusterReport:
        """Simulate the stream to completion and aggregate the report.

        Args:
            requests: the request stream (any order; sorted internally).
            engine: ``serial`` (the reference event loop) or
                ``batched`` (group-granular per-replica scan). Both
                produce bit-identical reports — see
                :mod:`repro.cluster.engines` and
                :func:`repro.validation.run_cluster_differential`.

        Raises:
            RuntimeError: on fleet reuse. Replica state (queues, groups,
                busy time) accumulates across runs and silently corrupts
                the second report, so a simulator serves exactly one
                stream — build a fresh fleet (:func:`build_cluster` /
                ``repro.api.build_fleet``) per run.

        With an active fault config every engine deterministically runs
        the serial loop (the batched engine does not model faults); the
        fallback is counted as ``cluster.engine.fault_fallback``.
        A non-default ``config.scheduler`` likewise always runs the serial
        loop under its policy, entered through the policy's ``run``
        (counted ``cluster.engine.scheduler_fallback`` when the batched
        engine was requested).
        """
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
                # Other policies only run on the serial loop; the batched
                # engine reproduces the group policy alone.
                from repro.api.registry import SCHEDULERS

                if engine != "serial":
                    count("cluster.engine.scheduler_fallback")
                return SCHEDULERS.get(self.config.scheduler)(self).run(requests)
            if engine == "serial":
                return self._run(requests)
            if self.faults is not None and self.faults.active():
                count("cluster.engine.fault_fallback")
                return self._run(requests)
            if engine != "batched":
                raise ValueError(
                    f"unknown cluster engine {engine!r}; choose from {ENGINES}"
                )
            return run_batched(self, requests)

    def _run(self, requests: list[Request], policy=None) -> ClusterReport:
        """The one event loop, under a dispatch ``policy``.

        The loop owns the report, the event queue, the run's
        :class:`~repro.cluster.faults.FaultLayer`, arrival counting,
        routing (health, ``router.choose``, shedding) and the replica
        stats. The :class:`~repro.serving.scheduler.Scheduler` policy
        (default: group, which the batched engine reproduces) owns what
        happens to a routed request and to its own event kinds.
        """
        if policy is None:
            from repro.serving.scheduler import GroupScheduler

            policy = GroupScheduler(self)
        report = ClusterReport(
            router=self.router.name, slo_s=self.config.slo_s, scheduler=policy.name
        )
        events = EventQueue(sorted(requests, key=lambda r: r.arrival_s))
        choose, replicas = self.router.choose, self.replicas

        def route(request: Request, now: float) -> None:
            healthy = replicas
            if faulted:
                healthy = layer.healthy(now)
                if not healthy:
                    layer.terminal(request, now, "shed", -1)
                    return
            with span("cluster.route"):
                replica = choose(request, healthy, now)
            if shedding and layer.shed(
                request, replica.replica_id, now, *load(replica, now)
            ):
                return
            admit(request, replica, now)

        layer = FaultLayer(self, requests, events, report, route=route, policy=policy)
        faulted, shedding, handle = layer.active, layer.shedding, layer.handle
        own = policy.start(requests, layer, events, report)
        admit, load = policy.admit, policy.load

        pop = events.pop
        arrivals = 0
        while events:
            now, _, _, kind, payload = pop()
            if kind == ARRIVAL:
                arrivals += 1
                route(payload, now)
            elif kind in own:
                own[kind](payload, now)
            else:
                handle(kind, payload, now)

        policy.close(report)
        report.replicas = [
            ReplicaStats(
                replica_id=replica.replica_id,
                hardware=replica.hardware_name,
                system=replica.system_name,
                busy_s=replica.busy_s,
                expert_misses=replica.expert_misses,
                resident_experts=tuple(sorted(replica.resident_experts)),
                queue_depth_timeline=list(replica.queue_depth_timeline),
                **policy.stats(rid),
            )
            for rid, replica in enumerate(replicas)
        ]
        report.counters = {"arrivals": arrivals, **policy.counters()}
        layer.finish(report)
        return report
