"""Pipeline builder edge cases and failure injection."""

import numpy as np
import pytest

from repro.core.pipeline import PipelineBuilder, PipelineFeatures
from repro.core.placement import PlacementConfig, PlacementPlan, plan_placement
from repro.core.prefetcher import ExpertPrefetcher
from repro.hardware.costmodel import CostModel
from repro.routing.workload import Workload
from repro.runtime.executor import Executor
from repro.runtime.schedule import DISK_IO, GPU, H2D, H2D_OD
from repro.scenario import Scenario


def build_and_run(scenario, workload=None, features=None, placement=None,
                  prefetcher=None):
    wl = workload or scenario.workload
    features = features or PipelineFeatures()
    if placement is None:
        placement = plan_placement(
            scenario.inventory(), scenario.hardware, wl, wl.num_batches,
            PlacementConfig(prefetch_k=scenario.model.top_k),
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
    result = builder.build()
    timeline = Executor(scenario.hardware).run(result.schedule)
    return result, timeline


class TestWorkloadEdges:
    def test_single_step_generation(self, small_scenario):
        wl = Workload(4, 2, 16, 1)
        result, timeline = build_and_run(small_scenario, workload=wl)
        assert len(result.step_last_op) == 1
        assert timeline.makespan > 0

    def test_single_batch_group(self, small_scenario):
        wl = Workload(4, 1, 16, 3)
        result, timeline = build_and_run(small_scenario, workload=wl)
        assert timeline.makespan > 0

    def test_batch_size_one(self, small_scenario):
        wl = Workload(1, 2, 8, 2)
        _, timeline = build_and_run(small_scenario, workload=wl)
        assert timeline.makespan > 0

    def test_dense_model_multi_batch(self, tiny_dense, hw):
        scenario = Scenario(tiny_dense, hw, Workload(4, 3, 16, 3))
        result, timeline = build_and_run(scenario)
        assert timeline.busy_time[GPU] > 0
        # Dense layers never use the on-demand expert stream.
        assert timeline.busy_time[H2D_OD] == 0


class TestPlacementInteraction:
    def test_all_resident_means_no_weight_transfers(self, small_scenario):
        inventory = small_scenario.inventory()
        location = {spec.tensor_id: "vram" for spec in inventory}
        placement = PlacementPlan(
            location=location,
            kv_level="vram",
            pinned=True,
            working_reserve_bytes=0,
            activation_reserve_bytes=0,
            resident_bytes=0,
        )
        result, timeline = build_and_run(small_scenario, placement=placement)
        weight_ops = [
            op for op in result.schedule
            if op.resource in (H2D, H2D_OD) and op.label.startswith("h2d:")
        ]
        assert weight_ops == []

    def test_disk_weights_emit_disk_reads(self, small_scenario):
        inventory = small_scenario.inventory()
        location = {spec.tensor_id: "disk" for spec in inventory}
        placement = PlacementPlan(
            location=location,
            kv_level="dram",
            pinned=False,
            working_reserve_bytes=0,
            activation_reserve_bytes=0,
        )
        result, timeline = build_and_run(small_scenario, placement=placement)
        assert timeline.busy_time[DISK_IO] > 0
        # Disk-staged runs are much slower than DRAM-resident runs.
        _, fast = build_and_run(small_scenario)
        assert timeline.makespan > fast.makespan

    def test_quantize_with_cpu_experts_composes(self, small_scenario):
        features = PipelineFeatures(cpu_experts=True, quantize=True,
                                    adjust_order=False)
        _, timeline = build_and_run(small_scenario, features=features)
        assert timeline.makespan > 0


class TestPrefetchFailureInjection:
    class _AlwaysWrongPrefetcher(ExpertPrefetcher):
        """Predicts the coldest experts — the paper's worst case (§7)."""

        def _coldest(self, layer):
            scores = self.table.tendencies(layer, None)
            order = np.argsort(scores)
            return [int(e) for e in order[: self.prefetch_k]]

        def predict_step(self, primaries):
            return [self._coldest(layer) for layer in range(len(primaries))]

        def predict_first(self):
            return self._coldest(0)

    def test_wrong_predictions_slow_but_correct(self, small_scenario):
        model = small_scenario.model
        good = ExpertPrefetcher(model.num_layers, model.num_experts,
                                top_k=model.top_k)
        bad = self._AlwaysWrongPrefetcher(
            model.num_layers, model.num_experts, top_k=model.top_k
        )
        oracle = small_scenario.make_oracle(batch_offset=-1)
        rng = np.random.default_rng(0)
        traces = [oracle.router.sample_step(256, rng) for _ in range(4)]
        good.warm_up(traces)
        bad.warm_up(traces)
        _, t_good = build_and_run(small_scenario, prefetcher=good)
        _, t_bad = build_and_run(small_scenario, prefetcher=bad)
        # Klotski's robustness claim (§9.6): a misprediction costs time but
        # never correctness; fine-grained overlap bounds the damage.
        assert t_bad.makespan >= t_good.makespan * 0.98
        assert t_bad.makespan < t_good.makespan * 2.0

    def test_bad_predictions_lower_participation(self, small_scenario):
        model = small_scenario.model
        bad = self._AlwaysWrongPrefetcher(
            model.num_layers, model.num_experts, top_k=model.top_k
        )
        oracle = small_scenario.make_oracle(batch_offset=-1)
        rng = np.random.default_rng(0)
        bad.warm_up([oracle.router.sample_step(256, rng) for _ in range(4)])
        build_and_run(small_scenario, prefetcher=bad)
        assert bad.stats.hot_accuracy().mean() < 0.5


class TestScheduleInvariants:
    def test_all_gpu_ops_have_layer_or_step_tags(self, small_scenario):
        result, _ = build_and_run(small_scenario)
        for op in result.schedule:
            if op.resource == GPU and op.phase in ("attention", "gate", "expert"):
                assert op.layer >= 0

    def test_expert_ops_depend_on_gates(self, small_scenario):
        result, _ = build_and_run(small_scenario)
        schedule = result.schedule
        for op in schedule:
            if op.phase == "expert" and op.resource == GPU:
                dep_phases = {schedule[d].phase for d in op.deps}
                assert "gate" in dep_phases or "transfer" in dep_phases

    def test_deterministic_build(self, small_scenario):
        r1, t1 = build_and_run(small_scenario)
        r2, t2 = build_and_run(small_scenario)
        assert t1.makespan == pytest.approx(t2.makespan)
        assert len(r1.schedule) == len(r2.schedule)
