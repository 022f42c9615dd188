"""Extension experiments beyond the paper's evaluation section.

* **Sparse KV (future work, §9.8)** — the paper names multi-batch KV-cache
  growth as the next bubble source and proposes a sparse KV strategy as
  future work; we implement sink+window KV and measure its effect at large
  n.
* **SiDA-like predictor (related work, §3.1)** — near-perfect expert
  prediction on a single-batch pipeline still loses to Klotski's
  multi-batch overlap, demonstrating the paper's core argument.
* **Related-work cache system** — the Mixtral-offloading-style LRU+quant
  system as an extra comparison point.
* **Compression quality** — quantization / sparse-attention perplexity
  deltas on the real numpy model (the accuracy side of §7's claims).
* **Serving** — throughput/latency of batch-group serving under Poisson
  arrivals, connecting Figure 11's trade-off to request streams.
"""

import pytest

from common import SCENARIO_BY_KEY

from conftest import record_report

from repro.baselines import MixtralOffloadingSystem, SiDASystem
from repro.cluster import ClusterConfig, ClusterSimulator, Replica, RoundRobinRouter
from repro.compression.sparse_attention import SparseAttentionConfig
from repro.core.engine import KlotskiOptions, KlotskiSystem
from repro.model.config import MIXTRAL_8X7B
from repro.model.evaluation import compare_compression
from repro.serving import ArrivalConfig, generate_requests


class TestFutureWorkSparseKV:
    @pytest.fixture(scope="class")
    def pair(self):
        eval_scenario = SCENARIO_BY_KEY["8x7b-env1"]
        scenario = eval_scenario.scenario(64)
        scenario = scenario.with_workload(scenario.workload.with_batches(10))
        dense = KlotskiSystem().run(scenario)
        sparse = KlotskiSystem(
            KlotskiOptions(
                sparse_attention=SparseAttentionConfig(
                    enabled=True, sinks=4, window=256
                )
            ),
            name="klotski+sparse-kv",
        ).run(scenario)
        return dense, sparse

    def test_sparse_kv_report(self, benchmark, pair):
        dense, sparse = pair

        def render():
            return (
                f"klotski (dense KV):      {dense.metrics.throughput:.2f} tok/s, "
                f"peak VRAM {dense.metrics.peak_vram_bytes / (1 << 30):.1f} GiB\n"
                f"klotski + sink/window KV: {sparse.metrics.throughput:.2f} tok/s, "
                f"peak VRAM {sparse.metrics.peak_vram_bytes / (1 << 30):.1f} GiB"
            )

        record_report(
            "futurework_sparse_kv", benchmark.pedantic(render, rounds=1, iterations=1)
        )
        assert sparse.metrics.throughput >= dense.metrics.throughput

    def test_kv_memory_shrinks(self, benchmark, pair):
        dense, sparse = pair

        def check():
            return sparse.metrics.peak_vram_bytes <= dense.metrics.peak_vram_bytes

        assert benchmark.pedantic(check, rounds=1, iterations=1)


class TestSiDAComparison:
    def test_accurate_prediction_is_not_enough(self, benchmark):
        """§3.1: even with ~100 % accurate prefetching, substantial bubbles
        remain — multi-batch overlap is what closes the gap."""

        def run():
            scenario = SCENARIO_BY_KEY["8x7b-env1"].scenario(16)
            sida = SiDASystem(accuracy=0.95).run_safe(scenario)
            mixtral_off = MixtralOffloadingSystem().run_safe(scenario)
            klotski = KlotskiSystem().run(scenario)
            return sida, mixtral_off, klotski

        sida, mixtral_off, klotski = benchmark.pedantic(run, rounds=1, iterations=1)
        lines = [
            f"sida-like (95% accurate prefetch): {sida.throughput:.2f} tok/s",
            f"mixtral-offloading-like (LRU+quant): {mixtral_off.throughput:.2f} tok/s",
            f"klotski: {klotski.metrics.throughput:.2f} tok/s",
        ]
        record_report("extension_predictor_baselines", "\n".join(lines))
        assert klotski.metrics.throughput > 1.5 * sida.throughput


class TestCompressionQuality:
    def test_quality_table(self, benchmark):
        def run():
            config = MIXTRAL_8X7B.scaled(1 / 64, name="mixtral-mini")
            return compare_compression(config, seed=0, n_sequences=3, seq_len=32)

        report = benchmark.pedantic(run, rounds=1, iterations=1)
        text = (
            f"base perplexity:                 {report.base.perplexity:8.2f}\n"
            f"4-bit expert quantization:       {report.quantized.perplexity:8.2f} "
            f"({report.quantization_degradation():+.1%})\n"
            f"sink+window sparse attention:    {report.streaming.perplexity:8.2f} "
            f"({report.streaming_degradation():+.1%})"
        )
        record_report("extension_compression_quality", text)
        assert abs(report.quantization_degradation()) < 0.25


class TestServing:
    def test_group_size_tradeoff_under_load(self, benchmark):
        """Bigger batch groups raise serving throughput at a latency cost."""

        def run():
            eval_scenario = SCENARIO_BY_KEY["8x7b-env1"]
            scenario = eval_scenario.scenario(8, gen_len=8)
            requests = generate_requests(
                ArrivalConfig(rate_per_s=2.0, prompt_len_mean=512,
                              prompt_len_spread=0.0, gen_len=8, seed=3),
                48,
            )
            reports = {}
            for group_batches in (1, 4):
                # One machine is a one-replica group fleet. The wait bound
                # is load-matched: partial groups dispatch at the deadline
                # proper (not at the next arrival), so an oversized bound
                # would idle the tail. The scenario's workload is the
                # replica's group shape: groups of 8 × group_batches.
                replica = Replica(
                    0,
                    scenario.with_workload(
                        scenario.workload.with_batches(group_batches)
                    ),
                    KlotskiSystem(),
                    prompt_quantum=1,
                )
                simulator = ClusterSimulator(
                    [replica],
                    RoundRobinRouter(),
                    ClusterConfig(partition_experts=False, max_wait_s=30.0),
                )
                reports[group_batches] = simulator.run(requests)
            return reports

        reports = benchmark.pedantic(run, rounds=1, iterations=1)
        lines = [
            f"group of {n} batches: {len(r.records)} requests, "
            f"{r.throughput:.2f} tok/s, mean latency {r.mean_latency_s:.1f} s, "
            f"p95 {r.percentile_latency(95):.1f} s, "
            f"TTFT p95 {r.percentile_ttft(95):.1f} s"
            for n, r in reports.items()
        ]
        record_report("extension_serving", "\n".join(lines))
        assert reports[4].throughput > reports[1].throughput
