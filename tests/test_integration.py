"""Cross-module integration: paper-shape claims on full-size scenarios.

These run the real Mixtral-8x7B shapes on the simulated Env1 (slowest, so
workloads are kept short); they assert the qualitative results the paper
reports, not absolute numbers.
"""

import pytest

from repro.analysis.bubbles import analyze_bubbles
from repro.baselines import AccelerateSystem, FiddlerSystem, FlexGenSystem, MoEInfinitySystem
from repro.core.engine import KlotskiOptions, KlotskiSystem
from repro.core.pipeline import PipelineFeatures
from repro.hardware.spec import ENV1
from repro.model.config import MIXTRAL_8X7B, MIXTRAL_8X22B
from repro.routing.workload import Workload
from repro.scenario import Scenario


@pytest.fixture(scope="module")
def mixtral_env1():
    # Short generation keeps the op count manageable; bs/n realistic.
    return Scenario(MIXTRAL_8X7B, ENV1, Workload(16, 6, 512, 6), seed=1)


@pytest.fixture(scope="module")
def klotski_result(mixtral_env1):
    return KlotskiSystem().run(mixtral_env1)


class TestEndToEndShape:
    def test_klotski_beats_single_batch_baselines(self, mixtral_env1, klotski_result):
        accelerate = AccelerateSystem().run_safe(mixtral_env1)
        assert klotski_result.metrics.throughput > 3 * accelerate.throughput

    def test_klotski_at_least_flexgen(self, mixtral_env1, klotski_result):
        flexgen = FlexGenSystem().run_safe(mixtral_env1)
        assert klotski_result.metrics.throughput >= flexgen.throughput * 0.99

    def test_throughput_in_plausible_range(self, klotski_result):
        # Paper Figure 10 (8x7B, Env1): single-digit to ~20 tok/s.
        assert 2.0 < klotski_result.metrics.throughput < 200.0

    def test_klotski_reduces_bubbles_vs_simple(self, mixtral_env1):
        simple = KlotskiSystem(
            KlotskiOptions(features=PipelineFeatures.simple_pipeline()),
            name="simple",
        ).run(mixtral_env1.with_workload(mixtral_env1.workload.with_batches(1)))
        klotski_frac = analyze_bubbles(
            KlotskiSystem().run(mixtral_env1).timeline
        ).bubble_fraction
        simple_frac = analyze_bubbles(simple.timeline).bubble_fraction
        assert klotski_frac < simple_frac

    def test_memory_reduction_vs_model_size(self, klotski_result):
        """Figure 12: peak VRAM is a small fraction of the model bytes."""
        peak = klotski_result.metrics.peak_vram_bytes
        assert peak < 0.30 * MIXTRAL_8X7B.total_bytes()

    def test_prefetch_participation_high(self, klotski_result):
        stats = klotski_result.prefetcher.stats
        assert stats.participation_rate().mean() > 0.9


class TestAblationLadder:
    """Table 3's ordering on the real model shapes."""

    @pytest.fixture(scope="class")
    def ladder(self, mixtral_env1):
        n = 6
        results = {}
        variants = {
            "simple": (1, PipelineFeatures.simple_pipeline()),
            "multi": (n, PipelineFeatures(hot_prefetch=False, adjust_order=False)),
            "hot": (n, PipelineFeatures(adjust_order=False)),
            "klotski": (n, PipelineFeatures()),
            "klotski(q)": (n, PipelineFeatures(quantize=True)),
        }
        for name, (batches, features) in variants.items():
            system = KlotskiSystem(KlotskiOptions(features=features), name=name)
            wl = mixtral_env1.workload.with_batches(batches)
            results[name] = system.run(
                mixtral_env1.with_workload(wl)
            ).metrics.throughput
        return results

    def test_multi_batch_largest_step(self, ladder):
        assert ladder["multi"] > 2 * ladder["simple"]

    def test_hot_prefetch_improves(self, ladder):
        assert ladder["hot"] >= ladder["multi"] * 0.98

    def test_order_adjustment_improves(self, ladder):
        assert ladder["klotski"] >= ladder["hot"] * 0.98

    def test_full_klotski_beats_multi(self, ladder):
        assert ladder["klotski"] > ladder["multi"]


class TestOOMBehaviour:
    def test_expert_offloaders_oom_on_8x22b_large_batch(self):
        scenario = Scenario(MIXTRAL_8X22B, ENV1, Workload(64, 1, 512, 2))
        for system in (MoEInfinitySystem(), FiddlerSystem()):
            result = system.run_safe(scenario)
            assert result.oom

    def test_klotski_survives_same_configuration(self):
        scenario = Scenario(MIXTRAL_8X22B, ENV1, Workload(64, 2, 512, 2), seed=2)
        result = KlotskiSystem().run(scenario)
        assert result.metrics.throughput > 0
