"""The expert-aware multi-batch pipeline builder."""

import numpy as np
import pytest

from repro.core.pipeline import PipelineBuilder, PipelineFeatures
from repro.core.placement import PlacementConfig, plan_placement
from repro.core.prefetcher import ExpertPrefetcher
from repro.hardware.costmodel import CostModel
from repro.runtime.executor import Executor
from repro.runtime.schedule import (
    CPU,
    D2H,
    GPU,
    H2D,
    PHASE_ATTENTION,
    PHASE_EXPERT,
    PHASE_GATE,
)


def build(
    scenario,
    features=None,
    prefetcher=None,
    placement_config=None,
    workload=None,
):
    wl = workload or scenario.workload
    features = features or PipelineFeatures()
    placement_config = placement_config or PlacementConfig(
        prefetch_k=(
            scenario.model.top_k if features.hot_prefetch else scenario.model.num_experts
        )
    )
    placement = plan_placement(
        scenario.inventory(), scenario.hardware, wl, wl.num_batches, placement_config
    )
    builder = PipelineBuilder(
        cost_model=CostModel(scenario.model, scenario.hardware),
        inventory=scenario.inventory(),
        oracle=scenario.make_oracle(),
        workload=wl,
        placement=placement,
        prefetcher=prefetcher,
        features=features,
    )
    return builder.build(), placement


class TestScheduleStructure:
    def test_schedule_validates(self, small_scenario):
        result, _ = build(small_scenario)
        result.schedule.validate()
        assert len(result.schedule) > 0

    def test_one_tail_op_per_step(self, small_scenario):
        result, _ = build(small_scenario)
        assert len(result.step_last_op) == small_scenario.workload.gen_len

    def test_attention_op_per_batch_per_layer(self, small_scenario):
        result, _ = build(small_scenario)
        wl = small_scenario.workload
        attn_ops = [
            op for op in result.schedule
            if op.phase == PHASE_ATTENTION and op.resource == GPU
        ]
        expected = wl.num_batches * small_scenario.model.num_layers * wl.gen_len
        assert len(attn_ops) == expected

    def test_gate_ops_present_for_moe(self, small_scenario):
        result, _ = build(small_scenario)
        assert any(op.phase == PHASE_GATE for op in result.schedule)

    def test_dense_model_has_no_gates(self, tiny_dense, hw):
        from repro.routing.workload import Workload
        from repro.scenario import Scenario

        sc = Scenario(tiny_dense, hw, Workload(2, 2, 8, 2))
        result, _ = build(sc)
        assert not any(op.phase == PHASE_GATE for op in result.schedule)
        assert any(op.phase == PHASE_EXPERT for op in result.schedule)

    def test_memory_effects_balance(self, small_scenario):
        """Every transferred weight is eventually freed (except residents)."""
        result, _ = build(small_scenario)
        allocs = {}
        frees = {}
        for op in result.schedule:
            for e in op.allocs:
                if e.pool == "vram" and not e.tensor_id.startswith("kv"):
                    allocs[e.tensor_id] = allocs.get(e.tensor_id, 0) + 1
            for e in op.frees:
                frees[e.tensor_id] = frees.get(e.tensor_id, 0) + 1
        for tid, n_alloc in allocs.items():
            if tid == "resident+workspace":
                continue
            assert frees.get(tid, 0) == n_alloc, tid


class TestFeatureVariants:
    def test_hot_prefetch_transfers_fewer_experts(self, small_scenario):
        prefetcher = ExpertPrefetcher(
            small_scenario.model.num_layers,
            small_scenario.model.num_experts,
            top_k=small_scenario.model.top_k,
        )
        hot, _ = build(
            small_scenario,
            PipelineFeatures(hot_prefetch=True),
            prefetcher=prefetcher,
        )
        full, _ = build(small_scenario, PipelineFeatures(hot_prefetch=False))
        hot_transfers = sum(
            1 for op in hot.schedule
            if op.resource == H2D and op.label.startswith("h2d:expert")
        )
        full_transfers = sum(
            1 for op in full.schedule
            if op.resource == H2D and op.label.startswith("h2d:expert")
        )
        assert hot_transfers <= full_transfers

    def test_adjust_order_merges_expert_ops(self, small_scenario):
        adjusted, _ = build(small_scenario, PipelineFeatures(adjust_order=True))
        batchwise, _ = build(small_scenario, PipelineFeatures(adjust_order=False))
        n_adj = sum(1 for op in adjusted.schedule if op.phase == PHASE_EXPERT)
        n_batch = sum(1 for op in batchwise.schedule if op.phase == PHASE_EXPERT)
        assert n_adj <= n_batch

    def test_quantize_shrinks_transfer_durations(self, small_scenario):
        plain, _ = build(small_scenario, PipelineFeatures(quantize=False))
        quant, _ = build(small_scenario, PipelineFeatures(quantize=True))

        def expert_io(result):
            return sum(
                op.duration for op in result.schedule
                if op.resource == H2D and op.label.startswith("h2d:expert")
            )

        assert expert_io(quant) < 0.5 * expert_io(plain)

    @pytest.mark.parametrize("n", [62, 63, 64, 70])
    def test_expert_ops_wait_for_every_routed_batch_at_large_n(self, small_mixtral, hw, n):
        """An expert-major op carries one gate dependency per batch routed to
        its expert, however many batches the group has."""
        import re

        from repro.routing.workload import Workload
        from repro.scenario import Scenario

        wl = Workload(1, n, 8, 2)
        sc = Scenario(small_mixtral, hw, wl, seed=3)
        result, _ = build(sc)
        num_experts = small_mixtral.num_experts
        expected = {}
        oracle = sc.make_oracle()
        for step in range(wl.gen_len):
            for routing in oracle.step_routing(step, wl):
                counts = routing.stats(n, num_experts).counts
                for e in range(num_experts):
                    batches = {b for b in range(n) if counts[b * num_experts + e]}
                    if batches:
                        expected[routing.layer, step, e] = batches
        labels = {op.op_id: op.label for op in result.schedule}
        got = {}
        for op in result.schedule:
            m = re.fullmatch(r"exp(\d+):L(\d+)s(\d+)", op.label)
            if m:
                e, layer, step = map(int, m.groups())
                got[layer, step, e] = {
                    int(g.group(1))
                    for g in map(re.compile(r"gate:L\d+b(\d+)s\d+").fullmatch,
                                 map(labels.get, op.deps))
                    if g
                }
        assert got == expected

    def test_cpu_experts_emit_cpu_ops(self, small_scenario):
        result, _ = build(small_scenario, PipelineFeatures(cpu_experts=True))
        assert any(op.resource == CPU for op in result.schedule)

    def test_no_overlap_serializes_transfers(self, small_scenario):
        """Accelerate mode: weight transfers never overlap GPU compute."""
        result, _ = build(
            small_scenario,
            PipelineFeatures(overlap=False, hot_prefetch=False, adjust_order=False),
            placement_config=PlacementConfig(
                use_spare_vram=False,
                prefetch_k=small_scenario.model.num_experts,
            ),
        )
        timeline = Executor(small_scenario.hardware).run(result.schedule)
        weight_ops = [
            e for e in timeline.executed
            if e.op.resource == H2D and e.op.label.startswith("h2d:")
        ]
        gpu_ops = timeline.ops_on(GPU)
        overlap = 0.0
        for w in weight_ops:
            for g in gpu_ops:
                overlap += max(
                    0.0, min(w.end, g.end) - max(w.start, g.start)
                )
        gpu_busy = timeline.busy_time[GPU]
        assert overlap < 0.05 * gpu_busy


class TestExecution:
    def test_runs_on_executor(self, small_scenario):
        result, _ = build(small_scenario)
        timeline = Executor(small_scenario.hardware).run(result.schedule)
        assert timeline.makespan > 0

    def test_kv_stream_ops_when_kv_in_dram(self, small_scenario):
        result, placement = build(small_scenario)
        if placement.kv_level == "dram":
            assert any(op.resource == D2H and "kvstore" in op.label for op in result.schedule)

    def test_prefill_slower_than_decode_step(self, small_scenario):
        result, _ = build(small_scenario)
        timeline = Executor(small_scenario.hardware).run(result.schedule)
        prefill_end = timeline.executed[result.step_last_op[0]].end
        step1_end = timeline.executed[result.step_last_op[1]].end
        assert prefill_end > (step1_end - prefill_end) * 0.5

    def test_sequential_groups_share_schedule(self, small_scenario):
        from repro.routing.workload import Workload

        single = Workload(4, 1, 32, 2)
        placement = plan_placement(
            small_scenario.inventory(), small_scenario.hardware, single, 1
        )
        schedule = None
        for b in range(3):
            builder = PipelineBuilder(
                cost_model=CostModel(small_scenario.model, small_scenario.hardware),
                inventory=small_scenario.inventory(),
                oracle=small_scenario.make_oracle(batch_offset=b),
                workload=single,
                placement=placement,
                prefetcher=None,
                features=PipelineFeatures(),
            )
            result = builder.build(schedule)
            schedule = result.schedule
        schedule.validate()
        timeline = Executor(small_scenario.hardware).run(schedule)
        assert timeline.makespan > 0


def _rows(schedule):
    """Every authored column of a schedule, memory effects in attachment order."""
    ops = [
        (op.resource, op.duration, op.label, op.deps, op.layer, op.phase, op.batch)
        for op in schedule
    ]
    effects = list(
        zip(
            schedule._ev_op, schedule._ev_kind, schedule._ev_pool,
            schedule._ev_tensor, schedule._ev_nbytes,
        )
    )
    return ops, effects


class TestBuilderReuse:
    """Sequential systems emit every batch through one builder."""

    @pytest.mark.parametrize(
        "system_name",
        ["accelerate", "fastgen", "moe-infinity", "fiddler", "mixtral-offloading", "sida"],
    )
    def test_one_builder_matches_a_builder_per_batch(self, small_scenario, system_name):
        from repro.api.registry import SYSTEMS
        from repro.routing.workload import Workload
        from repro.runtime.schedule import Schedule

        system = SYSTEMS.get(system_name)()
        assert system.sequential
        built = system.build(small_scenario)

        wl = small_scenario.workload
        group = Workload(wl.batch_size, 1, wl.prompt_len, wl.gen_len)
        placement = system.make_placement(small_scenario, group)
        prefetcher = system.make_prefetcher(small_scenario)
        reference = Schedule()
        for b in range(wl.num_batches):
            if b > 0 and system.fresh_prefetcher_per_batch:
                prefetcher = system.make_prefetcher(small_scenario, batch_offset=b)
            PipelineBuilder(
                cost_model=small_scenario.cost_model(),
                inventory=small_scenario.inventory(),
                oracle=small_scenario.make_oracle(batch_offset=b),
                workload=group,
                placement=placement,
                prefetcher=prefetcher,
                features=system.make_features(small_scenario),
                sparse_attention=system.make_sparse_attention(small_scenario),
            ).build(reference)
        assert _rows(built.schedule) == _rows(reference)
        assert built.build.groups_built == wl.num_batches

    def test_build_resets_group_state(self, small_scenario):
        from repro.routing.workload import Workload

        single = Workload(4, 1, 32, 2)
        placement = plan_placement(
            small_scenario.inventory(), small_scenario.hardware, single, 1
        )
        builder = PipelineBuilder(
            cost_model=small_scenario.cost_model(),
            inventory=small_scenario.inventory(),
            oracle=small_scenario.make_oracle(),
            workload=single,
            placement=placement,
            prefetcher=None,
        )
        first = builder.build()
        second = builder.build()
        assert _rows(first.schedule) == _rows(second.schedule)
        assert first.step_last_op == second.step_last_op


@pytest.mark.parametrize("width", [1, 3, 62, 63, 64, 65, 130])
def test_row_tuples_matches_sorted_deps_at_any_width(width):
    from repro.core.pipeline import _dep_tuples

    rng = np.random.default_rng(width)
    values = rng.integers(-1, 40, size=(300, width))
    values[rng.random(values.shape) < 0.7] = -1
    ids = np.arange(100, 140).astype(object)
    rows, cols = np.nonzero(values >= 0)
    got = _dep_tuples(rows, values[rows, cols], len(values), ids)
    assert got.tolist() == [
        tuple(ids[v] for v in sorted({v for v in row if v >= 0}))
        for row in values.tolist()
    ]


class TestDurationTable:
    @pytest.mark.parametrize(
        "quantize,on_cpu,scale",
        [(False, False, 1.0), (True, False, 1.0), (False, True, 1.0), (True, True, 16.0),
         (False, False, 7.25)],
    )
    def test_bitwise_equal_to_expert_times(self, small_scenario, quantize, on_cpu, scale):
        from repro.routing.oracle import LayerRouting

        wl = small_scenario.workload
        placement = plan_placement(
            small_scenario.inventory(), small_scenario.hardware, wl, wl.num_batches
        )
        cost = small_scenario.cost_model()
        builder = PipelineBuilder(
            cost_model=cost,
            inventory=small_scenario.inventory(),
            oracle=small_scenario.make_oracle(),
            workload=wl,
            placement=placement,
            prefetcher=None,
            features=PipelineFeatures(quantize=quantize),
        )
        routing = LayerRouting(0, np.zeros((37, 2), dtype=np.int64), scale)
        table = builder._duration_table(routing, on_cpu=on_cpu)
        assert len(table) > routing.assignments.size
        for count in range(len(table)):
            direct = cost.expert_times(
                np.maximum(1.0, np.array([count]) * scale),
                quantize=quantize,
                on_cpu=on_cpu,
            )[0]
            assert table[count] == direct  # bit-identical, no tolerance


class TestTraceOracleBuild:
    def test_build_with_rows_varying_per_layer(self, small_scenario):
        from repro.routing.oracle import TraceOracle
        from repro.routing.trace import ExpertTrace, StepTrace

        model = small_scenario.model
        rng = np.random.default_rng(3)
        trace = ExpertTrace(num_experts=model.num_experts)
        for step in range(2):
            layers = StepTrace()
            for layer in range(model.num_layers):
                rows = 9 + (layer + step) % 4  # uneven batch splits, varying rows
                layers.append(
                    np.stack(
                        [rng.choice(model.num_experts, 2, replace=False) for _ in range(rows)]
                    )
                )
            trace.append(layers)
        wl = small_scenario.workload
        placement = plan_placement(
            small_scenario.inventory(), small_scenario.hardware, wl, wl.num_batches
        )
        for features in (
            PipelineFeatures(),
            PipelineFeatures(adjust_order=False, hot_prefetch=False),
            PipelineFeatures(cpu_experts=True),
        ):
            builder = PipelineBuilder(
                cost_model=small_scenario.cost_model(),
                inventory=small_scenario.inventory(),
                oracle=TraceOracle(trace, top_k=2),
                workload=wl,
                placement=placement,
                prefetcher=None,
                features=features,
            )
            result = builder.build()
            result.schedule.validate()
            expert_ops = [op for op in result.schedule if op.phase == PHASE_EXPERT]
            assert expert_ops
            timeline = Executor(small_scenario.hardware).run(result.schedule)
            assert timeline.makespan > 0
