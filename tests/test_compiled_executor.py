"""Compiled-executor equivalence and lazy-timeline regression tests.

The compiled (vectorized) engine must reproduce the legacy per-op engine
bit-for-bit: start/end times, busy time, memory usage step functions,
peaks, and OOM behaviour — on random DAGs covering every resource, dep
shape, and memory-effect pattern, including capacity violations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import PipelineBuilder, PipelineFeatures
from repro.core.placement import PlacementConfig, plan_placement
from repro.errors import OutOfMemoryError, ScheduleError
from repro.hardware.costmodel import CostModel
from repro.runtime.executor import Executor, ExecutorConfig
from repro.runtime.schedule import (
    CPU,
    D2H,
    DISK_IO,
    GPU,
    H2D,
    H2D_OD,
    MemEffect,
    Schedule,
)
from tests.test_executor import make_hw

ALL_RESOURCES = [GPU, CPU, H2D, H2D_OD, D2H, DISK_IO]

op_strategy = st.tuples(
    st.sampled_from(ALL_RESOURCES),
    st.floats(0.0, 5.0, allow_nan=False),
    st.lists(st.integers(0, 60), max_size=4),  # dep candidates
    st.lists(  # memory effects: (is_alloc, pool, nbytes)
        st.tuples(
            st.booleans(),
            st.sampled_from(["vram", "dram"]),
            st.integers(0, 900 << 20),
        ),
        max_size=3,
    ),
)


def build_schedule(spec) -> Schedule:
    s = Schedule()
    for i, (resource, duration, deps, effects) in enumerate(spec):
        allocs = [
            MemEffect(pool, f"t{i}.{j}", nbytes)
            for j, (is_alloc, pool, nbytes) in enumerate(effects)
            if is_alloc
        ]
        frees = [
            MemEffect(pool, f"t{i}.{j}", nbytes)
            for j, (is_alloc, pool, nbytes) in enumerate(effects)
            if not is_alloc
        ]
        s.add(
            resource,
            duration,
            f"op{i}",
            deps=[d for d in deps if d < len(s)],
            allocs=allocs,
            frees=frees,
        )
    return s


def run_both(schedule, capacities=None):
    """(legacy outcome, compiled outcome): (timeline, None) or (None, exc)."""
    outcomes = []
    for engine in ("legacy", "compiled"):
        ex = Executor(make_hw(), ExecutorConfig(engine=engine))
        try:
            outcomes.append((ex.run(schedule, capacities=capacities), None))
        except OutOfMemoryError as exc:
            outcomes.append((None, exc))
    return outcomes


def assert_equivalent(schedule, capacities=None):
    (legacy_t, legacy_err), (fast_t, fast_err) = run_both(schedule, capacities)
    if legacy_err is not None or fast_err is not None:
        assert legacy_err is not None and fast_err is not None
        assert legacy_err.pool == fast_err.pool
        assert legacy_err.requested == fast_err.requested
        assert legacy_err.available == fast_err.available
        return
    assert fast_t.makespan == legacy_t.makespan
    assert fast_t.busy_time == legacy_t.busy_time
    assert fast_t.memory_peak == legacy_t.memory_peak
    assert fast_t.memory_usage == legacy_t.memory_usage
    assert [e.start for e in fast_t.executed] == [
        e.start for e in legacy_t.executed
    ]
    assert [e.end for e in fast_t.executed] == [e.end for e in legacy_t.executed]
    assert fast_t.executed == legacy_t.executed  # ops, effects, and times


class TestEquivalenceProperty:
    @given(st.lists(op_strategy, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_random_dags_identical(self, spec):
        assert_equivalent(build_schedule(spec))

    @given(st.lists(op_strategy, min_size=1, max_size=40), st.integers(0, 2 << 30))
    @settings(max_examples=40, deadline=None)
    def test_random_dags_with_tight_capacity(self, spec, vram_capacity):
        """OOM (or not) must match exactly, including the error payload."""
        assert_equivalent(build_schedule(spec), capacities={"vram": vram_capacity})

    def test_pipeline_schedule_identical(self, small_scenario):
        """The real builder's DAG runs identically under both engines."""
        wl = small_scenario.workload
        placement = plan_placement(
            small_scenario.inventory(),
            small_scenario.hardware,
            wl,
            wl.num_batches,
            PlacementConfig(prefetch_k=small_scenario.model.top_k),
        )
        builder = PipelineBuilder(
            cost_model=CostModel(small_scenario.model, small_scenario.hardware),
            inventory=small_scenario.inventory(),
            oracle=small_scenario.make_oracle(),
            workload=wl,
            placement=placement,
            prefetcher=None,
            features=PipelineFeatures(),
        )
        assert_equivalent(builder.build().schedule)


class TestCompiledScheduleIR:
    def test_freeze_caches_and_invalidates(self):
        s = Schedule()
        s.compute(1.0, "a")
        assert s.freeze() is s  # frozen in place
        durations = s.durations
        assert s.freeze().durations is durations  # cached until a mutation
        executor = Executor(make_hw())
        assert executor.run(s).makespan == pytest.approx(1.0)
        s.compute(2.0, "b")
        t = executor.run(s)  # refreezes the mutated schedule
        assert t.makespan == pytest.approx(3.0)
        assert len(t.starts) == 2
        assert s.durations is not durations  # rebuilt after the mutation
        assert s.durations.tolist() == [1.0, 2.0]
        assert s.resources.tolist() == [0, 0]

    def test_csr_deps_round_trip(self):
        s = Schedule()
        a = s.compute(1.0, "a")
        b = s.transfer_in(1.0, "b", deps=[a])
        s.compute(1.0, "c", deps=[a, b])
        indptr, indices = s.deps_csr()
        assert indptr.tolist() == [0, 0, 1, 3]
        assert indices.tolist() == [a, a, b]

    def test_compiled_schedule_runs_directly(self):
        s = Schedule()
        w = s.transfer_in(2.0, "w")
        s.compute(1.0, "c", deps=[w])
        t = Executor(make_hw()).run(s.freeze())
        assert t.makespan == pytest.approx(3.0)

    def test_forward_dep_rejected_via_extend_raw(self):
        s = Schedule()
        s.extend_raw([0], [1.0], [(1,)], ["bad"], [-1], ["other"], [-1])
        with pytest.raises(ScheduleError):
            Executor(make_hw()).run(s)

    def test_deferred_labels_render(self):
        s = Schedule()
        s.extend_raw(
            [0, 0], [1.0, 1.0], [(), ()],
            (lambda layer, step: [f"attn:L{layer}b0s{step}", f"exp5:L{layer}s{step}"], (3, 7)),
            [3, 3], ["attention", "expert"], [0, -1],
        )
        assert s[0].label == "attn:L3b0s7"
        assert s[1].label == "exp5:L3s7"


class TestLazyTimeline:
    def test_executed_stays_lazy_until_accessed(self):
        s = Schedule()
        w = s.transfer_in(2.0, "w", allocs=[MemEffect("vram", "t", 64)])
        s.compute(1.0, "c", deps=[w], frees=[MemEffect("vram", "t", 64)])
        t = Executor(make_hw()).run(s)
        # Metrics-style consumers must not materialize per-op objects.
        assert t.makespan > 0
        assert t.busy_time[GPU] == pytest.approx(1.0)
        assert t.memory_peak["vram"] == 64
        assert t.idle_time(GPU) >= 0.0
        assert t.end_of(1) == pytest.approx(3.0)
        assert t.start_of(1) == pytest.approx(2.0)
        assert t.memory_at("vram", 1.0) == 64
        assert not t.executed_is_materialized
        # Accessing the view materializes it once, lazily.
        assert len(t.executed) == 2
        assert t.executed_is_materialized

    def test_system_run_keeps_timeline_lazy(self, small_scenario):
        from repro.core.engine import KlotskiSystem

        result = KlotskiSystem().run(small_scenario)
        assert result.metrics is not None
        assert not result.timeline.executed_is_materialized

    def test_lazy_view_matches_legacy_values(self, small_scenario):
        from repro.core.engine import KlotskiSystem

        result = KlotskiSystem().run(small_scenario)
        timeline = result.timeline
        lazy_idle = timeline.idle_time(GPU)
        executed = timeline.executed  # materialize
        assert timeline.idle_time(GPU) == lazy_idle
        assert executed[0].start == timeline.start_of(0)


class TestIdleTimeIndependentOfEngine:
    """GPU idle time, ``gpu_idle_s`` and the bubble split are the same
    floats whichever engine produced the timeline, and whether or not its
    per-op view has been materialized."""

    CASES = [
        ("accelerate", (4, 2, 32, 2)),
        ("fastgen", (8, 4, 32, 4)),
        ("moe-infinity", (4, 2, 32, 3)),
    ]

    @pytest.mark.parametrize("system,workload", CASES)
    def test_idle_time_bit_equal_across_engines(self, system, workload):
        from repro.analysis.bubbles import analyze_bubbles
        from repro.api import build_system
        from repro.routing.workload import Workload
        from repro.runtime.metrics import metrics_from_timeline
        from repro.scenario import Scenario
        from tests.conftest import SMALL_MIXTRAL, small_hardware

        scenario = Scenario(
            SMALL_MIXTRAL, small_hardware(), Workload(*workload), seed=1
        )
        schedule = build_system(system).build(scenario).schedule

        def observed(timeline):
            metrics = metrics_from_timeline(
                timeline, system=system, model="m", environment="e",
                batch_size=1, num_batches=1, prompt_len=1, gen_len=1,
            )
            return (
                timeline.idle_time(GPU),
                metrics.gpu_idle_s,
                analyze_bubbles(timeline),
            )

        compiled = Executor(scenario.hardware).run(schedule)
        legacy = Executor(
            scenario.hardware, ExecutorConfig(engine="legacy")
        ).run(schedule)
        before = observed(compiled)
        assert observed(legacy) == before
        _ = compiled.executed  # materialize the per-op view
        assert observed(compiled) == before


class TestProcessWideMemos:
    def test_step_routing_memo_returns_identical_assignments(self, small_scenario):
        import numpy as np

        from repro.routing.oracle import clear_step_routing_memo

        clear_step_routing_memo()
        oracle = small_scenario.make_oracle()
        first = [r.assignments for r in oracle.step_routing(0, small_scenario.workload)]
        again = [r.assignments for r in oracle.step_routing(0, small_scenario.workload)]
        assert all(a is b for a, b in zip(first, again))  # served from memo
        clear_step_routing_memo()
        fresh = [r.assignments for r in oracle.step_routing(0, small_scenario.workload)]
        assert all(np.array_equal(a, b) for a, b in zip(first, fresh))

    def test_cluster_group_timing_memo_shared(self):
        from repro.cluster.replica import _GROUP_TIMING_MEMO, clear_group_timing_memo

        clear_group_timing_memo()
        assert _GROUP_TIMING_MEMO == {}
