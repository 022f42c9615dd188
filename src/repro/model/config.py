"""Model architecture configurations.

Presets cover every model the paper touches: the evaluation models
(Mixtral-8x7B, Mixtral-8x22B), the motivation-study models (Table 1:
OPT-1.3B / OPT-6.7B dense, switch-base-16 / switch-base-128 decoder-only),
and the heatmap models (Figure 5: switch-base-8 / switch-base-16).

Dense models are represented as MoE configs with ``num_experts = 1`` and
``top_k = 1`` — a single always-selected "expert" is exactly an FFN, which
lets every scheduler in this package run dense and sparse models uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError

DTYPE_BYTES = {"fp32": 4, "bf16": 2, "fp16": 2, "int8": 1, "int4": 0.5}
_COUNT_FIELDS = (
    "hidden_size", "intermediate_size", "num_layers", "num_heads",
    "num_kv_heads", "num_experts", "top_k", "vocab_size", "ffn_matrices",
)


@dataclass(frozen=True)
class ModelConfig:
    """Shapes of one MoE (or dense) transformer."""

    name: str
    hidden_size: int
    intermediate_size: int
    num_layers: int
    num_heads: int
    num_kv_heads: int
    num_experts: int
    top_k: int
    vocab_size: int
    dtype: str = "bf16"
    # SwiGLU experts have three projections (w1, w2, w3); classic FFN has two.
    ffn_matrices: int = 3

    def __post_init__(self):
        # Counts first: the divisibility checks below divide by them.
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.hidden_size % self.num_heads:
            raise ConfigError("hidden_size must be divisible by num_heads")
        if self.num_heads % self.num_kv_heads:
            raise ConfigError("num_heads must be divisible by num_kv_heads")
        if self.top_k > self.num_experts:
            raise ConfigError("top_k must be in [1, num_experts]")
        if self.dtype not in DTYPE_BYTES:
            raise ConfigError(f"unknown dtype {self.dtype!r}")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def kv_dim(self) -> int:
        return self.num_kv_heads * self.head_dim

    @property
    def dtype_bytes(self) -> float:
        return DTYPE_BYTES[self.dtype]

    @property
    def is_dense(self) -> bool:
        return self.num_experts == 1

    # ---- parameter counts ------------------------------------------------

    def attention_params(self) -> int:
        """Q/K/V/O projection parameters of one attention layer."""
        q = self.hidden_size * self.hidden_size
        kv = 2 * self.hidden_size * self.kv_dim
        o = self.hidden_size * self.hidden_size
        norms = 2 * self.hidden_size  # the two RMSNorms of the block
        return q + kv + o + norms

    def gate_params(self) -> int:
        """Router parameters of one MoE layer (zero for dense models)."""
        return 0 if self.is_dense else self.hidden_size * self.num_experts

    def expert_params(self) -> int:
        """Parameters of a single expert FFN."""
        return self.ffn_matrices * self.hidden_size * self.intermediate_size

    def embedding_params(self) -> int:
        """Input embedding plus (untied) LM head."""
        return 2 * self.vocab_size * self.hidden_size

    def total_params(self) -> int:
        per_layer = self.attention_params() + self.gate_params()
        per_layer += self.num_experts * self.expert_params()
        return self.num_layers * per_layer + self.embedding_params()

    # ---- byte sizes --------------------------------------------------------

    def bytes_of(self, params: int) -> int:
        return int(params * self.dtype_bytes)

    def attention_bytes(self) -> int:
        return self.bytes_of(self.attention_params())

    def gate_bytes(self) -> int:
        return self.bytes_of(self.gate_params())

    def expert_bytes(self) -> int:
        return self.bytes_of(self.expert_params())

    def moe_layer_bytes(self) -> int:
        """The full MoE layer: gate plus every expert."""
        return self.gate_bytes() + self.num_experts * self.expert_bytes()

    def total_bytes(self) -> int:
        return self.bytes_of(self.total_params())

    def kv_bytes_per_token(self) -> int:
        """KV-cache bytes one token adds per layer (K and V)."""
        return int(2 * self.kv_dim * self.dtype_bytes)

    def kv_bytes(self, tokens: int) -> int:
        """Total KV-cache bytes for ``tokens`` tokens across all layers."""
        return self.num_layers * tokens * self.kv_bytes_per_token()

    def scaled(self, factor: float, name: str | None = None) -> "ModelConfig":
        """A proportionally smaller config, for fast numeric tests."""
        heads = max(1, int(self.num_heads * factor))
        kv_heads = max(1, min(heads, int(self.num_kv_heads * factor)))
        while heads % kv_heads:
            kv_heads -= 1
        hidden = max(heads, int(self.hidden_size * factor)) // heads * heads
        return replace(
            self,
            name=name or f"{self.name}-x{factor}",
            hidden_size=hidden,
            intermediate_size=max(1, int(self.intermediate_size * factor)),
            num_heads=heads,
            num_kv_heads=kv_heads,
            vocab_size=max(64, int(self.vocab_size * factor)),
        )


MIXTRAL_8X7B = ModelConfig(
    name="mixtral-8x7b",
    hidden_size=4096,
    intermediate_size=14336,
    num_layers=32,
    num_heads=32,
    num_kv_heads=8,
    num_experts=8,
    top_k=2,
    vocab_size=32000,
)

MIXTRAL_8X22B = ModelConfig(
    name="mixtral-8x22b",
    hidden_size=6144,
    intermediate_size=16384,
    num_layers=56,
    num_heads=48,
    num_kv_heads=8,
    num_experts=8,
    top_k=2,
    vocab_size=32768,
)


def _switch_base(num_experts: int) -> ModelConfig:
    # Decoder-only halves of switch-base-*, as used in the paper's Table 1
    # and Figure 5. Switch routes to the top-1 expert and uses ReLU FFNs
    # (two matrices).
    return ModelConfig(
        name=f"switch-base-{num_experts}",
        hidden_size=768,
        intermediate_size=3072,
        num_layers=12,
        num_heads=12,
        num_kv_heads=12,
        num_experts=num_experts,
        top_k=1,
        vocab_size=32128,
        ffn_matrices=2,
    )


SWITCH_BASE_8 = _switch_base(8)
SWITCH_BASE_16 = _switch_base(16)
SWITCH_BASE_128 = _switch_base(128)

OPT_1_3B = ModelConfig(
    name="opt-1.3b",
    hidden_size=2048,
    intermediate_size=8192,
    num_layers=24,
    num_heads=32,
    num_kv_heads=32,
    num_experts=1,
    top_k=1,
    vocab_size=50272,
    ffn_matrices=2,
)

OPT_6_7B = ModelConfig(
    name="opt-6.7b",
    hidden_size=4096,
    intermediate_size=16384,
    num_layers=32,
    num_heads=32,
    num_kv_heads=32,
    num_experts=1,
    top_k=1,
    vocab_size=50272,
    ffn_matrices=2,
)

MODELS = {
    cfg.name: cfg
    for cfg in (
        MIXTRAL_8X7B,
        MIXTRAL_8X22B,
        SWITCH_BASE_8,
        SWITCH_BASE_16,
        SWITCH_BASE_128,
        OPT_1_3B,
        OPT_6_7B,
    )
}


def _register_presets() -> None:
    # The presets double as repro.api registry entries, so declarative
    # configs resolve them by name ({"model": "mixtral-8x7b"}).
    from repro.api.registry import register_model_preset

    for cfg in MODELS.values():
        register_model_preset(cfg)


_register_presets()
