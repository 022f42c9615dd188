"""Model-quality evaluation and the SiDA-like baseline."""

import numpy as np
import pytest

from repro.baselines.sida import OfflinePredictorPrefetcher, SiDASystem
from repro.compression.quantization import QuantConfig
from repro.model.evaluation import (
    compare_compression,
    evaluate_nll,
    quantize_experts,
)
from repro.model.tokenizer import synthetic_corpus
from repro.model.transformer import MoETransformer
from repro.routing.workload import Workload


class TestEvaluation:
    @pytest.fixture(scope="class")
    def model_and_corpus(self, ):
        from tests.conftest import TINY_MOE

        model = MoETransformer(TINY_MOE, seed=0)
        corpus = synthetic_corpus(3, 24, TINY_MOE.vocab_size, seed=2)
        return TINY_MOE, model, corpus

    def test_nll_finite_and_positive(self, model_and_corpus):
        _, model, corpus = model_and_corpus
        result = evaluate_nll(model, corpus)
        assert np.isfinite(result.nll)
        assert result.nll > 0
        assert result.perplexity > 1.0
        assert result.token_count == 3 * 23

    def test_nll_deterministic(self, model_and_corpus):
        cfg, _, corpus = model_and_corpus
        a = evaluate_nll(MoETransformer(cfg, seed=0), corpus)
        b = evaluate_nll(MoETransformer(cfg, seed=0), corpus)
        assert a.nll == pytest.approx(b.nll)

    def test_quantization_changes_little(self, model_and_corpus):
        cfg, _, corpus = model_and_corpus
        base = evaluate_nll(MoETransformer(cfg, seed=0), corpus)
        quantized_model = quantize_experts(
            MoETransformer(cfg, seed=0), QuantConfig(bits=4, group_size=32)
        )
        quantized = evaluate_nll(quantized_model, corpus)
        # §7: expert quantization costs little model quality.
        assert abs(quantized.nll - base.nll) / base.nll < 0.10

    def test_compare_compression_report(self):
        from tests.conftest import TINY_MOE

        report = compare_compression(TINY_MOE, seed=0, n_sequences=2, seq_len=24)
        assert report.base.perplexity > 1.0
        assert abs(report.quantization_degradation()) < 0.25
        # A random-weight model has no long-range structure to lose, so
        # streaming attention stays in a sane band too.
        assert abs(report.streaming_degradation()) < 0.5

    def test_eight_bit_closer_than_three_bit(self, model_and_corpus):
        cfg, _, corpus = model_and_corpus
        base = evaluate_nll(MoETransformer(cfg, seed=0), corpus).nll
        deltas = {}
        for bits in (3, 8):
            model = quantize_experts(
                MoETransformer(cfg, seed=0), QuantConfig(bits=bits, group_size=32)
            )
            deltas[bits] = abs(evaluate_nll(model, corpus).nll - base)
        assert deltas[8] <= deltas[3]


class TestOfflinePredictor:
    def test_perfect_accuracy_predicts_truth(self, small_scenario):
        group = Workload(4, 1, 32, 4)
        prefetcher = OfflinePredictorPrefetcher(
            small_scenario, group, accuracy=1.0
        )
        oracle = small_scenario.make_oracle(batch_offset=0)
        from repro.routing.trace import expert_token_counts, hot_experts

        routing = oracle.step_routing(0, group)
        predicted = prefetcher.predict_step(routing.primaries)
        for layer_routing in routing:
            counts = expert_token_counts(layer_routing.assignments, oracle.num_experts)
            assert predicted[layer_routing.layer] == hot_experts(
                counts, prefetcher.prefetch_k
            )

    def test_accuracy_validated(self, small_scenario):
        with pytest.raises(ValueError):
            OfflinePredictorPrefetcher(
                small_scenario, Workload(4, 1, 32, 4), accuracy=1.5
            )

    def test_zero_accuracy_falls_back(self, small_scenario):
        group = Workload(4, 1, 32, 4)
        prefetcher = OfflinePredictorPrefetcher(
            small_scenario, group, accuracy=0.0
        )
        routing = small_scenario.make_oracle(batch_offset=0).step_routing(0, group)
        predicted = prefetcher.predict_step(routing.primaries)[0]
        assert len(predicted) == prefetcher.prefetch_k


class TestSiDASystem:
    def test_runs_and_reports(self, small_scenario):
        result = SiDASystem().run_safe(small_scenario)
        assert result.oom or result.throughput > 0

    def test_high_participation_from_accurate_predictor(self, small_scenario):
        result = SiDASystem(accuracy=1.0).run_safe(small_scenario)
        if not result.oom:
            assert result.prefetcher.stats.participation_rate().mean() > 0.9

    def test_better_than_random_predictor(self, small_scenario):
        good = SiDASystem(accuracy=0.95).run_safe(small_scenario)
        bad = SiDASystem(accuracy=0.0).run_safe(small_scenario)
        if not (good.oom or bad.oom):
            assert good.throughput >= bad.throughput * 0.98

    def test_still_slower_than_klotski(self, small_scenario):
        """§3.1: accurate prefetching alone cannot close the I/O gap."""
        from repro.core.engine import KlotskiSystem

        sida = SiDASystem(accuracy=0.95).run_safe(small_scenario)
        klotski = KlotskiSystem().run(small_scenario)
        if not sida.oom:
            assert klotski.metrics.throughput > sida.throughput
