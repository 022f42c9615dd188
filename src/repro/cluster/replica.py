"""One serving replica: an inference system bound to a hardware environment.

A replica owns a FIFO request queue and a single batch-group execution slot
(the underlying :class:`~repro.systems.InferenceSystem` processes one group
at a time), filled by :class:`~repro.serving.scheduler.GroupScheduler`.
The replica's group shape is its scenario's workload: groups of
``batch_size × num_batches`` requests. Group processing times come from
running the wrapped system on the replica's scenario and are memoized in
a cluster-shared cache keyed by (hardware, model, system, group shape);
prompt lengths are bucketed to ``prompt_quantum`` so heterogeneous
request lengths do not defeat the cache.

Replicas also expose the set of expert indices their VRAM keeps resident
(derived from the placement planner, or assigned by the cluster when
experts are partitioned across the fleet); dispatching a group whose
requests touch non-resident hot experts pays an explicit fetch penalty
— one PCIe transfer of the expert's weights per layer — which is the
signal the expert-affinity router optimizes against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.tensors import EXPERT
from repro.obs import count, span
from repro.serving.requests import Request
from repro.serving.server import group_shape
from repro.routing.workload import Workload
from repro.scenario import Scenario
from repro.systems import InferenceSystem

# Process-wide group-timing memo. Replicas with identical
# (system, environment, model, scenario seed, group shape,
# prompt quantum) produce identical timings, so N-replica fleets — and
# successive simulator runs comparing router policies on the same fleet —
# share one cache instead of re-simulating N identical groups.
_GROUP_TIMING_MEMO: dict = {}

# Process-wide resident-expert memo. Residency derivation runs a full
# placement plan; a homogeneous 64-replica fleet would otherwise solve
# the identical plan 64 times before a single request is simulated.
_RESIDENCY_MEMO: dict = {}


def clear_group_timing_memo() -> None:
    """Drop the process-wide group-timing and residency memos
    (test/benchmark hygiene)."""
    _GROUP_TIMING_MEMO.clear()
    _RESIDENCY_MEMO.clear()


@dataclass
class GroupTiming:
    """Memoized timing of one batch-group shape on one replica class.

    Attributes:
        total_s: end-to-end group execution time.
        prefill_s: prefill portion (drives TTFT).
    """

    total_s: float
    prefill_s: float


@dataclass
class DispatchedGroup:
    """A batch group committed to a replica's execution slot.

    Attributes:
        requests: the member requests.
        dispatch_s: when the group was committed.
        start_s: when the machine actually began the group.
        completion_s: when the group finishes.
        prefill_s: prefill portion of the group's execution.
        expert_misses: hot-expert requests not resident on the replica.
    """

    requests: list[Request]
    dispatch_s: float
    start_s: float
    completion_s: float
    prefill_s: float
    expert_misses: int


class Replica:
    """A single cluster member wrapping one inference system.

    Args:
        replica_id: position in the fleet.
        scenario: model/hardware/workload evaluation point served here;
            its workload is the group shape (``batch_size`` sequences
            per batch, ``num_batches`` batches per full group).
        system: the inference system executing batch groups.
        prompt_quantum: prompt-length bucket for timing memoization.
        shared_cache: override for the group-timing cache (default: the
            process-wide memo shared by every replica; pass a dict to
            isolate).
        timeline_stride: keep every N-th queue-depth sample (1, the
            default, keeps all of them — the exact behaviour the fleet
            goldens pin). Million-request runs otherwise grow
            ``queue_depth_timeline`` without bound.
    """

    def __init__(
        self,
        replica_id: int,
        scenario: Scenario,
        system: InferenceSystem,
        *,
        prompt_quantum: int = 64,
        shared_cache: dict | None = None,
        timeline_stride: int = 1,
    ):
        self.replica_id = replica_id
        self.scenario = scenario
        self.system = system
        self.prompt_quantum = max(1, prompt_quantum)
        self.timeline_stride = max(1, timeline_stride)
        self._cache = shared_cache if shared_cache is not None else _GROUP_TIMING_MEMO
        self.resident_experts: frozenset[int] = frozenset()

        # Simulation state.
        self.queue: list[Request] = []
        self.free_at = 0.0
        self.busy_s = 0.0
        self.inflight = 0  # requests dispatched but not yet completed
        self.expert_misses = 0
        self.groups: list[DispatchedGroup] = []
        self.queue_depth_timeline: list[tuple[float, int]] = []
        self._timeline_tick = 0
        # Straggler service-time multiplier (1.0 = nominal). Set by the
        # fault layer for the duration of a slowdown window; multiplying
        # by the default 1.0 is an exact float identity, so fault-free
        # runs stay bit-identical to pre-fault-layer reports.
        self.slow_factor = 1.0

    # ---- identity ---------------------------------------------------------

    @property
    def hardware_name(self) -> str:
        return self.scenario.hardware.name

    @property
    def system_name(self) -> str:
        return self.system.name

    # ---- group shape ------------------------------------------------------

    @property
    def batch_size(self) -> int:
        """Sequences per batch (the scenario workload's ``B``)."""
        return self.scenario.workload.batch_size

    @property
    def group_capacity(self) -> int:
        """Requests in a full group, ``B × n`` (read per routed request)."""
        workload = self.scenario.workload
        return workload.batch_size * workload.num_batches

    # ---- expert residency -------------------------------------------------

    def derive_resident_experts(self) -> frozenset[int]:
        """Expert indices the placement planner keeps VRAM-resident.

        An expert index counts as resident when at least half of its
        per-layer tensors land in VRAM under the replica's own placement
        plan for a full batch group. The result is memoized process-wide
        (the plan is a pure function of the scenario), so homogeneous
        fleets plan once, not once per replica.
        """
        scenario = self.scenario
        key = (
            scenario.hardware,
            scenario.model,
            self.system.cache_key(),
            scenario.seed,
            scenario.skew,
            scenario.correlation,
            scenario.prefill_token_cap,
            scenario.workload,
        )
        cached = _RESIDENCY_MEMO.get(key)
        if cached is not None:
            count("memo.residency.hit")
            return cached
        count("memo.residency.miss")
        result = self._derive_resident_experts()
        _RESIDENCY_MEMO[key] = result
        return result

    def _derive_resident_experts(self) -> frozenset[int]:
        try:
            plan = self.system.make_placement(self.scenario, self.scenario.workload)
        except Exception:
            return frozenset()
        num_layers = self.scenario.model.num_layers
        per_expert: dict[int, int] = {}
        for spec in self.scenario.inventory():
            if spec.kind == EXPERT and plan.is_resident(spec.tensor_id):
                per_expert[spec.expert] = per_expert.get(spec.expert, 0) + 1
        return frozenset(
            e for e, layers in per_expert.items() if layers * 2 >= num_layers
        )

    def expert_fetch_time_s(self) -> float:
        """Time to pull one expert's weights over PCIe for every layer."""
        model = self.scenario.model
        per_layer = self.scenario.hardware.pcie_h2d.transfer_time(
            model.expert_bytes()
        )
        return per_layer * model.num_layers

    # ---- queue & dispatch -------------------------------------------------

    def outstanding(self) -> int:
        """Requests routed here but not yet completed (queue + in flight)."""
        return len(self.queue) + self.inflight

    def sample_queue_depth(self, now: float, depth: int) -> None:
        """Record a ``(time, depth)`` sample, stride-decimated.

        With the default stride of 1 every sample is kept, byte-identical
        to the historical always-append behaviour; larger strides keep
        every N-th sample so the timeline stays bounded on fleet-scale
        streams. The tick advances on every *offered* sample, so the
        serial loop and the batched scan (which replays the same offer
        sequence) decimate identically.
        """
        tick = self._timeline_tick
        self._timeline_tick = tick + 1
        if tick % self.timeline_stride == 0:
            self.queue_depth_timeline.append((now, depth))

    def enqueue(self, request: Request, now: float) -> bool:
        """Queue ``request``; True when a full group is now waiting."""
        queue = self.queue
        queue.append(request)
        self.sample_queue_depth(now, len(queue))
        return len(queue) >= self.group_capacity

    def _group_timing(self, n_batches: int, prompt: int, gen: int) -> GroupTiming:
        prompt = -(-prompt // self.prompt_quantum) * self.prompt_quantum
        # The key must fully identify the simulated computation: the full
        # (frozen, hashable) hardware/model specs, the system's
        # configuration fingerprint, and every scenario knob that shapes
        # routing — names alone would let two differently-configured
        # same-named systems collide across fleets.
        scenario = self.scenario
        key = (
            scenario.hardware,
            scenario.model,
            self.system.cache_key(),
            scenario.seed,
            scenario.skew,
            scenario.correlation,
            scenario.prefill_token_cap,
            self.batch_size,
            self.prompt_quantum,
            n_batches,
            prompt,
            gen,
        )
        if key not in self._cache:
            count("memo.group_timing.miss")
            with span(
                "replica.group_timing",
                {"replica": self.replica_id, "n_batches": n_batches},
            ):
                workload = Workload(self.batch_size, n_batches, prompt, gen)
                result = self.system.run(self.scenario.with_workload(workload))
            self._cache[key] = GroupTiming(
                total_s=result.metrics.total_time_s,
                prefill_s=result.metrics.prefill_time_s,
            )
        else:
            count("memo.group_timing.hit")
        return self._cache[key]

    def dispatch(self, now: float) -> DispatchedGroup:
        """Commit the oldest full-or-partial group to the execution slot."""
        capacity = self.group_capacity
        group = self.queue[:capacity]
        del self.queue[:capacity]
        self.sample_queue_depth(now, len(self.queue))

        n_batches, prompt, gen = group_shape(group, self.batch_size)
        timing = self._group_timing(n_batches, prompt, gen)

        missing = {
            r.hot_expert
            for r in group
            if r.hot_expert is not None and r.hot_expert not in self.resident_experts
        }
        penalty = len(missing) * self.expert_fetch_time_s()

        start = max(now, self.free_at)
        duration = (timing.total_s + penalty) * self.slow_factor
        self.free_at = start + duration
        self.busy_s += duration
        self.inflight += len(group)
        self.expert_misses += len(missing)
        dispatched = DispatchedGroup(
            requests=group,
            dispatch_s=now,
            start_s=start,
            completion_s=self.free_at,
            prefill_s=(timing.prefill_s + penalty) * self.slow_factor,
            expert_misses=len(missing),
        )
        self.groups.append(dispatched)
        return dispatched

    def complete(self, group: DispatchedGroup) -> None:
        self.inflight -= len(group.requests)
