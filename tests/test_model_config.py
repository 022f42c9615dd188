"""Model configurations: parameter accounting and validation."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.model.config import (
    MIXTRAL_8X7B,
    MIXTRAL_8X22B,
    MODELS,
    OPT_1_3B,
    OPT_6_7B,
    SWITCH_BASE_16,
    SWITCH_BASE_128,
    ModelConfig,
)


class TestParameterCounts:
    def test_mixtral_8x7b_total(self):
        """Paper §9.1: Mixtral-8x7B has 46.7B parameters."""
        total = MIXTRAL_8X7B.total_params()
        assert 45e9 < total < 48e9

    def test_mixtral_8x22b_total(self):
        """Paper §9.1: Mixtral-8x22B has 141B parameters."""
        total = MIXTRAL_8X22B.total_params()
        assert 138e9 < total < 144e9

    def test_mixtral_bf16_bytes(self):
        # 46.7B params in bf16 ~ 93 GB: too big for a 24 GB 3090.
        assert MIXTRAL_8X7B.total_bytes() > 90e9

    def test_opt_sizes_match_table1(self):
        """Table 1 reports OPT-1.3B ~2.6 GB and OPT-6.7B ~13.3 GB."""
        assert 2.2e9 < OPT_1_3B.total_bytes() < 3.2e9
        assert 12e9 < OPT_6_7B.total_bytes() < 15e9

    def test_experts_dominate_moe_parameters(self):
        """§3.1: expert parameters are the vast majority in MoE models."""
        cfg = SWITCH_BASE_128
        expert_share = (
            cfg.num_layers * cfg.num_experts * cfg.expert_params() / cfg.total_params()
        )
        assert expert_share > 0.95

    def test_dense_has_no_gate(self):
        assert OPT_1_3B.gate_params() == 0
        assert OPT_1_3B.is_dense

    def test_moe_layer_bytes_composition(self):
        cfg = MIXTRAL_8X7B
        assert cfg.moe_layer_bytes() == cfg.gate_bytes() + 8 * cfg.expert_bytes()


class TestKVAccounting:
    def test_kv_bytes_per_token_uses_kv_heads(self):
        cfg = MIXTRAL_8X7B  # GQA: 8 kv heads x 128 dims x 2 (K,V) x 2 bytes
        assert cfg.kv_bytes_per_token() == 2 * 8 * 128 * 2

    def test_kv_bytes_scales_with_tokens_and_layers(self):
        cfg = MIXTRAL_8X7B
        assert cfg.kv_bytes(100) == 100 * cfg.num_layers * cfg.kv_bytes_per_token()


class TestValidation:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError):
            ModelConfig("x", 100, 256, 2, 3, 3, 4, 1, 128)

    def test_kv_heads_must_divide_heads(self):
        with pytest.raises(ConfigError):
            ModelConfig("x", 64, 256, 2, 4, 3, 4, 1, 128)

    def test_top_k_bounds(self):
        with pytest.raises(ConfigError):
            ModelConfig("x", 64, 256, 2, 4, 4, 4, 5, 128)
        with pytest.raises(ConfigError):
            ModelConfig("x", 64, 256, 2, 4, 4, 4, 0, 128)

    @pytest.mark.parametrize(
        "field",
        [
            "hidden_size", "intermediate_size", "num_layers", "num_heads",
            "num_kv_heads", "num_experts", "top_k", "vocab_size", "ffn_matrices",
        ],
    )
    def test_counts_must_be_positive(self, field):
        """Checked before the divisibility checks divide by them."""
        with pytest.raises(ConfigError, match=f"{field} must be >= 1, got 0"):
            dataclasses.replace(MIXTRAL_8X7B, **{field: 0})

    def test_unknown_dtype(self):
        with pytest.raises(ConfigError):
            ModelConfig("x", 64, 256, 2, 4, 4, 4, 1, 128, dtype="fp64")


class TestScaled:
    def test_scaled_preserves_structure(self):
        tiny = MIXTRAL_8X7B.scaled(1 / 64)
        assert tiny.num_layers == MIXTRAL_8X7B.num_layers
        assert tiny.num_experts == MIXTRAL_8X7B.num_experts
        assert tiny.top_k == MIXTRAL_8X7B.top_k
        assert tiny.hidden_size % tiny.num_heads == 0
        assert tiny.num_heads % tiny.num_kv_heads == 0

    def test_scaled_is_smaller(self):
        tiny = MIXTRAL_8X7B.scaled(1 / 64)
        assert tiny.total_params() < MIXTRAL_8X7B.total_params() / 100

    def test_scaled_custom_name(self):
        assert MIXTRAL_8X7B.scaled(0.5, name="half").name == "half"


class TestRegistry:
    def test_all_presets_registered(self):
        assert len(MODELS) == 7
        assert MODELS["mixtral-8x7b"] is MIXTRAL_8X7B

    def test_switch_uses_top1_relu(self):
        assert SWITCH_BASE_16.top_k == 1
        assert SWITCH_BASE_16.ffn_matrices == 2

    def test_switch_sizes_match_table1(self):
        """Table 1: switch-base-16 ~2.2 GB and switch-base-128 ~14 GB."""
        assert 1.5e9 < SWITCH_BASE_16.total_bytes() < 2.5e9
        assert 12e9 < SWITCH_BASE_128.total_bytes() < 16e9
