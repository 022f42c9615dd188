"""Metrics derivations and InferenceSystem run behaviors."""

import pytest

from repro.core.engine import KlotskiSystem
from repro.errors import OutOfMemoryError
from repro.routing.workload import Workload
from repro.runtime.metrics import InferenceMetrics
from repro.systems import InferenceSystem, SystemResult


def make_metrics(**overrides) -> InferenceMetrics:
    defaults = dict(
        system="s",
        model="m",
        environment="e",
        batch_size=4,
        num_batches=3,
        prompt_len=32,
        gen_len=8,
        total_time_s=10.0,
        prefill_time_s=4.0,
        decode_time_s=6.0,
        gpu_busy_s=7.0,
        gpu_idle_s=3.0,
        peak_vram_bytes=1 << 30,
    )
    defaults.update(overrides)
    return InferenceMetrics(**defaults)


class TestInferenceMetrics:
    def test_generated_tokens(self):
        assert make_metrics().generated_tokens == 4 * 3 * 8

    def test_throughput(self):
        assert make_metrics().throughput == pytest.approx(96 / 10.0)

    def test_zero_time_guarded(self):
        m = make_metrics(total_time_s=0.0)
        assert m.throughput == 0.0
        assert m.gpu_utilization == 0.0

    def test_utilization(self):
        assert make_metrics().gpu_utilization == pytest.approx(0.7)

    def test_summary_contains_key_facts(self):
        text = make_metrics().summary()
        assert "tok/s" in text and "GPU util" in text and "GiB" in text


class TestSystemResult:
    def test_oom_result_defaults(self):
        result = SystemResult(system="x", metrics=None, oom=True, oom_reason="r")
        assert result.throughput == 0.0
        assert result.latency_s == float("inf")


class TestInferenceSystemBehavior:
    def test_base_class_requires_overrides(self, small_scenario):
        with pytest.raises(NotImplementedError):
            InferenceSystem().run(small_scenario)

    def test_run_safe_reports_oom(self, small_scenario):
        class ExplodingSystem(KlotskiSystem):
            def make_placement(self, scenario, group):
                raise OutOfMemoryError("vram", 10, 5)

        result = ExplodingSystem().run_safe(small_scenario)
        assert result.oom
        assert "vram" in result.oom_reason

    def test_run_safe_passes_other_errors(self, small_scenario):
        class BrokenSystem(KlotskiSystem):
            def make_placement(self, scenario, group):
                raise RuntimeError("unexpected")

        with pytest.raises(RuntimeError):
            BrokenSystem().run_safe(small_scenario)

    def test_group_system_single_build(self, small_scenario):
        result = KlotskiSystem().run(small_scenario)
        assert result.build.groups_built == 1

    def test_sequential_system_builds_per_batch(self, small_scenario):
        system = KlotskiSystem()
        system.sequential = True
        result = system.run(small_scenario)
        assert result.build.groups_built == small_scenario.workload.num_batches

    def test_sequential_slower_than_group(self, small_scenario):
        group = KlotskiSystem().run(small_scenario)
        sequential = KlotskiSystem(name="seq")
        sequential.sequential = True
        seq = sequential.run(small_scenario)
        assert seq.metrics.total_time_s > group.metrics.total_time_s

    def test_metrics_identity_fields(self, small_scenario):
        result = KlotskiSystem().run(small_scenario)
        m = result.metrics
        assert m.model == small_scenario.model.name
        assert m.environment == small_scenario.hardware.name
        assert m.batch_size == small_scenario.workload.batch_size


class TestScenario:
    def test_with_workload_preserves_rest(self, small_scenario):
        new = small_scenario.with_workload(Workload(2, 2, 8, 2))
        assert new.model is small_scenario.model
        assert new.seed == small_scenario.seed
        assert new.workload.batch_size == 2

    def test_oracles_differ_by_batch_offset(self, small_scenario):
        import numpy as np

        a = small_scenario.make_oracle(batch_offset=0)
        b = small_scenario.make_oracle(batch_offset=1)
        wl = Workload(2, 1, 8, 2)
        ra = np.concatenate([r.assignments for r in a.step_routing(1, wl)])
        rb = np.concatenate([r.assignments for r in b.step_routing(1, wl)])
        assert not np.array_equal(ra, rb)

    def test_same_offset_same_routing(self, small_scenario):
        import numpy as np

        a = small_scenario.make_oracle(batch_offset=2)
        b = small_scenario.make_oracle(batch_offset=2)
        wl = Workload(2, 1, 8, 2)
        ra = np.concatenate([r.assignments for r in a.step_routing(0, wl)])
        rb = np.concatenate([r.assignments for r in b.step_routing(0, wl)])
        assert np.array_equal(ra, rb)
