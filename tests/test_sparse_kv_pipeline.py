"""Sparse (sink+window) attention integrated into the scheduler.

This is the paper's §9.8 future-work direction: bound the multi-batch KV
cache so its transfers stop eating the attention-phase overlap window.
"""

import pytest

from repro.compression.sparse_attention import SparseAttentionConfig
from repro.core.engine import KlotskiEngine, KlotskiOptions, KlotskiSystem
from repro.runtime.schedule import H2D


def kv_load_time(result):
    return sum(
        op.duration
        for op in result.build.schedule
        if op.resource == H2D and op.label.startswith("kvload")
    )


@pytest.fixture
def long_context_scenario(small_scenario):
    # Longer prompts make the KV cache the dominant H2D traffic.
    wl = small_scenario.workload
    from repro.routing.workload import Workload

    return small_scenario.with_workload(Workload(wl.batch_size, 3, 256, 8))


class TestSparseKVPipeline:
    def test_kv_traffic_reduced(self, long_context_scenario):
        dense = KlotskiSystem().run(long_context_scenario)
        sparse = KlotskiSystem(
            KlotskiOptions(
                sparse_attention=SparseAttentionConfig(
                    enabled=True, sinks=4, window=60
                )
            )
        ).run(long_context_scenario)
        if kv_load_time(dense) > 0:  # KV streamed from DRAM in this setup
            assert kv_load_time(sparse) < kv_load_time(dense)

    def test_throughput_not_worse(self, long_context_scenario):
        dense = KlotskiSystem().run(long_context_scenario)
        sparse = KlotskiSystem(
            KlotskiOptions(
                sparse_attention=SparseAttentionConfig(
                    enabled=True, sinks=4, window=60
                )
            )
        ).run(long_context_scenario)
        assert sparse.metrics.throughput >= dense.metrics.throughput * 0.99

    def test_peak_vram_not_higher(self, long_context_scenario):
        dense = KlotskiSystem().run(long_context_scenario)
        sparse = KlotskiSystem(
            KlotskiOptions(
                sparse_attention=SparseAttentionConfig(
                    enabled=True, sinks=4, window=60
                )
            )
        ).run(long_context_scenario)
        assert sparse.metrics.peak_vram_bytes <= dense.metrics.peak_vram_bytes

    def test_disabled_config_identical(self, small_scenario):
        default = KlotskiSystem().run(small_scenario)
        explicit = KlotskiSystem(
            KlotskiOptions(sparse_attention=SparseAttentionConfig(enabled=False))
        ).run(small_scenario)
        assert default.metrics.total_time_s == pytest.approx(
            explicit.metrics.total_time_s
        )

    def test_planner_uses_context_cap(self, small_scenario):
        sparse_opts = KlotskiOptions(
            sparse_attention=SparseAttentionConfig(enabled=True, sinks=4, window=16)
        )
        capped = KlotskiEngine(small_scenario, sparse_opts).planner()
        assert capped.config.sparse_context_cap == 20
        uncapped = KlotskiEngine(small_scenario).planner()
        assert uncapped.config.sparse_context_cap is None

    def test_memory_cap_loosens_with_sparse_kv(self, small_scenario):
        from repro.core.engine import KlotskiEngine

        dense_cap = KlotskiEngine(small_scenario).planner().memory_cap(
            small_scenario.workload
        )
        sparse_cap = (
            KlotskiEngine(
                small_scenario,
                KlotskiOptions(
                    sparse_attention=SparseAttentionConfig(
                        enabled=True, sinks=2, window=8
                    )
                ),
            )
            .planner()
            .memory_cap(small_scenario.workload)
        )
        assert sparse_cap >= dense_cap
