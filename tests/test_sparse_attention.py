"""Sparse attention config and its interaction with the model."""

from repro.compression.sparse_attention import SparseAttentionConfig
from repro.model.config import MIXTRAL_8X7B


class TestSparseAttentionConfig:
    def test_disabled_passthrough(self):
        cfg = SparseAttentionConfig(enabled=False)
        assert cfg.effective_context(1000) == 1000
        assert cfg.streaming() is None
        assert cfg.savings_ratio(1000) == 0.0

    def test_enabled_caps_context(self):
        cfg = SparseAttentionConfig(enabled=True, sinks=4, window=256)
        assert cfg.effective_context(1000) == 260
        assert cfg.effective_context(100) == 100

    def test_savings_grow_with_context(self):
        cfg = SparseAttentionConfig(enabled=True, sinks=4, window=256)
        assert cfg.savings_ratio(2000) > cfg.savings_ratio(400)
        assert cfg.savings_ratio(0) == 0.0

    def test_kv_bytes_capped(self):
        cfg = SparseAttentionConfig(enabled=True, sinks=4, window=60)
        full = SparseAttentionConfig(enabled=False)
        assert cfg.kv_bytes(MIXTRAL_8X7B, 4, 1024) < full.kv_bytes(
            MIXTRAL_8X7B, 4, 1024
        )

    def test_streaming_config_conversion(self):
        cfg = SparseAttentionConfig(enabled=True, sinks=2, window=8)
        streaming = cfg.streaming()
        assert streaming.sinks == 2 and streaming.window == 8
