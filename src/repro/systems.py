"""Common machinery for inference systems (Klotski and all baselines).

An :class:`InferenceSystem` turns a :class:`~repro.scenario.Scenario` into
:class:`~repro.runtime.metrics.InferenceMetrics` by building a schedule and
executing it on the simulated hardware. Two execution shapes exist:

* **group systems** (Klotski, FlexGen-like) process all ``num_batches``
  batches as one batch group with shared weights;
* **sequential systems** (Accelerate-, FastGen-, MoE-Infinity-,
  Fiddler-like) generate each batch independently, one after another.

``run_safe`` converts simulated OOM into an explicit result, reproducing
the paper's observation that expert-only-offloading systems cannot run
large batches (§9.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.sparse_attention import SparseAttentionConfig
from repro.core.pipeline import BuildResult, PipelineBuilder, PipelineFeatures
from repro.core.placement import PlacementPlan
from repro.core.prefetcher import ExpertPrefetcher
from repro.errors import OutOfMemoryError
from repro.obs import span
from repro.routing.workload import Workload
from repro.runtime.executor import Executor
from repro.runtime.metrics import InferenceMetrics, metrics_from_timeline
from repro.runtime.schedule import Schedule
from repro.runtime.timeline import Timeline
from repro.scenario import Scenario


@dataclass
class BuiltRun:
    """A schedule built for a scenario, ready for (or instead of) execution.

    Attributes:
        schedule: the op DAG the system emitted.
        build: builder artifacts (step boundaries, group counts).
        prefetcher: the prefetcher instance used while building (None for
            systems without one).
        placement: the placement plan the schedule was built against.
    """

    schedule: Schedule
    build: BuildResult
    prefetcher: ExpertPrefetcher | None
    placement: PlacementPlan | None


@dataclass
class SystemResult:
    """Metrics plus run artifacts (timeline, plan data, prefetch stats)."""

    system: str
    metrics: InferenceMetrics | None
    timeline: Timeline | None = None
    build: BuildResult | None = None
    prefetcher: ExpertPrefetcher | None = None
    placement: PlacementPlan | None = None
    oom: bool = False
    oom_reason: str = ""
    # Per-pass accept/reject provenance when the optimizer pipeline ran
    # (a repro.passes.PipelineResult); None when passes were disabled.
    passes: object | None = None

    @property
    def throughput(self) -> float:
        return self.metrics.throughput if self.metrics else 0.0

    @property
    def latency_s(self) -> float:
        return self.metrics.latency_s if self.metrics else float("inf")


class InferenceSystem:
    """Base class; subclasses configure placement/features/prefetching."""

    name = "base"
    sequential = False  # True: one batch at a time
    # Sequential systems whose prefetcher is coupled to the per-batch
    # oracle stream (e.g. SiDA's offline predictor) get a fresh instance
    # per batch instead of one shared learner.
    fresh_prefetcher_per_batch = False
    # Ordered schedule-optimization pass queue (repro.passes registry
    # names) applied between build and execute; set by
    # SystemConfig.build() when the config carries a non-empty
    # ``passes`` list. Empty: execute the schedule exactly as authored.
    passes: tuple = ()

    def cache_key(self) -> tuple:
        """Hashable fingerprint of this system's configuration.

        Keys process-wide memo caches (e.g. the cluster group-timing
        memo), so it must uniquely identify the simulated behaviour:
        subclasses with constructor parameters extend it.
        """
        base = (type(self).__module__, type(self).__qualname__, self.name)
        return base + (("passes",) + tuple(self.passes) if self.passes else ())

    def make_placement(self, scenario: Scenario, group: Workload) -> PlacementPlan:
        raise NotImplementedError

    def make_features(self, scenario: Scenario) -> PipelineFeatures:
        raise NotImplementedError

    def make_prefetcher(
        self, scenario: Scenario, batch_offset: int = 0
    ) -> ExpertPrefetcher | None:
        """Prefetcher for one run (sequential systems get one per batch,
        so oracle-coupled predictors can track their own batch stream)."""
        return None

    def make_sparse_attention(self, scenario: Scenario) -> SparseAttentionConfig:
        """Sink+window sparse attention policy; disabled by default."""
        return SparseAttentionConfig()

    # ---- execution ----------------------------------------------------------

    def build(self, scenario: Scenario) -> BuiltRun:
        """Build the scenario's schedule without executing it.

        This is the system's planning/emission half of :meth:`run`; the
        validation subsystem uses it to run one schedule through several
        executor engines (differential testing) and invariant checkers.

        Args:
            scenario: the evaluation point to build for.

        Returns:
            The emitted schedule plus builder artifacts as a
            :class:`BuiltRun`.
        """
        workload = scenario.workload
        schedule = Schedule()
        with span("core.prefetcher.warmup"):
            prefetcher = self.make_prefetcher(scenario)
        if self.sequential:
            group = Workload(
                workload.batch_size, 1, workload.prompt_len, workload.gen_len
            )
        else:
            group = workload
        with span("core.placement.plan"):
            placement = self.make_placement(scenario, group)
        builder = PipelineBuilder(
            cost_model=scenario.cost_model(),
            inventory=scenario.inventory(),
            oracle=scenario.make_oracle(),
            workload=group,
            placement=placement,
            prefetcher=prefetcher,
            features=self.make_features(scenario),
            sparse_attention=self.make_sparse_attention(scenario),
        )
        # Sequential systems decide every batch on one builder, each with
        # its own oracle stream (and, if coupled to it, its own
        # prefetcher); every group is then materialized at once.
        build = BuildResult(schedule=schedule)
        with span("core.pipeline.decide"):
            for b in range(workload.num_batches if self.sequential else 1):
                if b > 0:
                    builder.oracle = scenario.make_oracle(batch_offset=b)
                    if self.fresh_prefetcher_per_batch:
                        with span("core.prefetcher.warmup"):
                            prefetcher = self.make_prefetcher(scenario, batch_offset=b)
                        builder.prefetcher = prefetcher
                heads = builder.decide()
                if b == 0:
                    build.step_last_op = heads
                build.groups_built += 1
        with span("core.pipeline.materialize"):
            builder.materialize(schedule)
        return BuiltRun(
            schedule=schedule,
            build=build,
            prefetcher=prefetcher,
            placement=placement,
        )

    def run(self, scenario: Scenario) -> SystemResult:
        workload = scenario.workload
        with span("system.build", {"system": self.name}):
            built = self.build(scenario)
        schedule, build = built.schedule, built.build
        prefetcher, placement = built.prefetcher, built.placement

        pipeline_result = None
        if self.passes:
            # Optimize between build and execute; the pipeline executes
            # the baseline (and every accepted candidate) itself, so the
            # final timeline comes straight from it. Builder op-id
            # references are remapped through the composed op_map.
            from repro.passes import PassPipeline

            with span("system.optimize", {"system": self.name}):
                pipeline_result = PassPipeline(self.passes).run(
                    schedule, scenario.hardware
                )
            timeline = pipeline_result.timeline
            first_step_end = (
                pipeline_result.remap_op(build.step_last_op[0])
                if build.step_last_op
                else None
            )
        else:
            with span("system.execute", {"system": self.name}):
                timeline = Executor(scenario.hardware).run(schedule)
            first_step_end = (
                build.step_last_op[0] if build.step_last_op else None
            )
        prefill_end = 0.0
        if first_step_end is not None:
            prefill_end = timeline.end_of(first_step_end)
        metrics = metrics_from_timeline(
            timeline,
            system=self.name,
            model=scenario.model.name,
            environment=scenario.hardware.name,
            batch_size=workload.batch_size,
            num_batches=workload.num_batches,
            prompt_len=workload.prompt_len,
            gen_len=workload.gen_len,
            prefill_time_s=prefill_end,
        )
        return SystemResult(
            system=self.name,
            metrics=metrics,
            timeline=timeline,
            build=build,
            prefetcher=prefetcher,
            placement=placement,
            passes=pipeline_result,
        )

    def run_safe(self, scenario: Scenario) -> SystemResult:
        """Like :meth:`run`, but OOM becomes an explicit failed result."""
        try:
            return self.run(scenario)
        except OutOfMemoryError as exc:
            return SystemResult(
                system=self.name, metrics=None, oom=True, oom_reason=str(exc)
            )
