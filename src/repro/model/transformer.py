"""The numpy MoE transformer: a real, runnable model.

This is the functional substrate standing in for HF Mixtral/Switch: real
embeddings, RoPE grouped-query attention with a KV cache, RMSNorm, top-k
gated MoE layers, and autoregressive generation. It is intended to run at
reduced dimensions (see :meth:`repro.model.config.ModelConfig.scaled`),
where it produces genuine routing traces whose hot-expert skew comes from
structured router initialization — per-layer Zipf biases assigned via
per-layer permutations (matching the Figure 5 heatmaps) and router columns
shared across layers so expert paths correlate between layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.config import ModelConfig
from repro.model.kvcache import ModelKVCache, StreamingConfig
from repro.model.layers import (
    apply_rope,
    causal_mask,
    grouped_query_attention,
    rms_norm,
    rope_frequencies,
    sink_window_mask,
)
from repro.model.moe import ExpertWeights, MoELayer
from repro.routing.popularity import zipf_weights
from repro.routing.trace import ExpertTrace, StepTrace


@dataclass
class AttentionWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    norm_attn: np.ndarray
    norm_ffn: np.ndarray


@dataclass
class GenerationResult:
    """Output of :meth:`MoETransformer.generate`."""

    tokens: np.ndarray  # [batch, prompt + generated]
    trace: ExpertTrace
    kv_bytes: int


class MoETransformer:
    """A complete MoE (or dense) transformer over numpy."""

    def __init__(
        self,
        config: ModelConfig,
        *,
        seed: int = 0,
        router_skew: float = 1.0,
        router_correlation: float = 0.7,
        streaming: StreamingConfig | None = None,
    ):
        self.config = config
        self.streaming = streaming
        rng = np.random.default_rng(seed)
        cfg = config
        scale = 1.0 / np.sqrt(cfg.hidden_size)

        self.embedding = rng.normal(0, 1.0, (cfg.vocab_size, cfg.hidden_size)) * scale
        self.lm_head = rng.normal(0, 1.0, (cfg.hidden_size, cfg.vocab_size)) * scale
        self.final_norm = np.ones(cfg.hidden_size)
        self.inv_freq = rope_frequencies(cfg.head_dim)

        # Shared router directions create inter-layer expert correlation:
        # layer l's gate for expert e reuses base column chain[l][e].
        base_router = rng.normal(0, 1.0, (cfg.hidden_size, cfg.num_experts)) * scale
        zipf = np.log(zipf_weights(cfg.num_experts, router_skew) * cfg.num_experts + 1e-9)

        self.attention: list[AttentionWeights] = []
        self.moe_layers: list[MoELayer] = []
        for layer in range(cfg.num_layers):
            self.attention.append(
                AttentionWeights(
                    wq=rng.normal(0, 1, (cfg.hidden_size, cfg.hidden_size)) * scale,
                    wk=rng.normal(0, 1, (cfg.hidden_size, cfg.kv_dim)) * scale,
                    wv=rng.normal(0, 1, (cfg.hidden_size, cfg.kv_dim)) * scale,
                    wo=rng.normal(0, 1, (cfg.hidden_size, cfg.hidden_size)) * scale,
                    norm_attn=np.ones(cfg.hidden_size),
                    norm_ffn=np.ones(cfg.hidden_size),
                )
            )
            perm = rng.permutation(cfg.num_experts)
            mix = router_correlation * base_router[:, perm]
            mix = mix + (1 - router_correlation) * rng.normal(
                0, 1, base_router.shape
            ) * scale
            bias = np.empty(cfg.num_experts)
            bias[perm] = zipf  # per-layer hot experts via permutation
            experts = [
                ExpertWeights(
                    w1=rng.normal(0, 1, (cfg.hidden_size, cfg.intermediate_size)) * scale,
                    w2=rng.normal(0, 1, (cfg.intermediate_size, cfg.hidden_size))
                    / np.sqrt(cfg.intermediate_size),
                    w3=(
                        rng.normal(0, 1, (cfg.hidden_size, cfg.intermediate_size)) * scale
                        if cfg.ffn_matrices == 3
                        else None
                    ),
                )
                for _ in range(cfg.num_experts)
            ]
            self.moe_layers.append(MoELayer(mix * 4.0, bias, experts, cfg.top_k))

    # ---- forward -----------------------------------------------------------

    def new_cache(self, batch_size: int) -> list[ModelKVCache]:
        cfg = self.config
        return [
            ModelKVCache(cfg.num_layers, cfg.num_kv_heads, cfg.head_dim, self.streaming)
            for _ in range(batch_size)
        ]

    def _attend(
        self,
        layer: int,
        x: np.ndarray,
        caches: list[ModelKVCache],
    ) -> np.ndarray:
        """Attention for ``x [batch, seq, hidden]`` updating the caches."""
        cfg = self.config
        w = self.attention[layer]
        normed = rms_norm(x, w.norm_attn)
        outputs = np.empty_like(x)
        for b in range(x.shape[0]):
            h = normed[b]  # [seq, hidden]
            seq = h.shape[0]
            cache = caches[b][layer]
            positions = cache.positions_for(seq)
            q = (h @ w.wq).reshape(seq, cfg.num_heads, cfg.head_dim).transpose(1, 0, 2)
            k = (h @ w.wk).reshape(seq, cfg.num_kv_heads, cfg.head_dim).transpose(1, 0, 2)
            v = (h @ w.wv).reshape(seq, cfg.num_kv_heads, cfg.head_dim).transpose(1, 0, 2)
            q = apply_rope(q, positions, self.inv_freq)
            k = apply_rope(k, positions, self.inv_freq)
            k_all, v_all = cache.append(k, v)
            kv_len = k_all.shape[1]
            if self.streaming is None:
                mask = causal_mask(seq, kv_len)
            else:
                mask = sink_window_mask(
                    seq, kv_len, self.streaming.sinks, self.streaming.window
                )
            attended = grouped_query_attention(q, k_all, v_all, mask)
            merged = attended.transpose(1, 0, 2).reshape(seq, cfg.hidden_size)
            outputs[b] = merged @ w.wo
        return x + outputs

    def forward(
        self,
        tokens: np.ndarray,
        caches: list[ModelKVCache],
        step_trace: StepTrace | None = None,
    ) -> np.ndarray:
        """Process ``tokens [batch, seq]``; returns logits ``[batch, seq, vocab]``."""
        x = self.embedding[tokens]
        for layer in range(self.config.num_layers):
            x = self._attend(layer, x, caches)
            normed = rms_norm(x, self.attention[layer].norm_ffn)
            moe_out, assignments = self.moe_layers[layer].forward(normed)
            if step_trace is not None:
                step_trace.append(assignments)
            x = x + moe_out
        x = rms_norm(x, self.final_norm)
        return x @ self.lm_head

    # ---- generation ----------------------------------------------------------

    def generate(
        self,
        prompts: np.ndarray,
        max_new_tokens: int,
        *,
        greedy: bool = True,
        temperature: float = 1.0,
        seed: int = 0,
        eos_token: int | None = None,
    ) -> GenerationResult:
        """Autoregressive generation with routing trace recording."""
        prompts = np.atleast_2d(np.asarray(prompts))
        batch = prompts.shape[0]
        caches = self.new_cache(batch)
        trace = ExpertTrace(self.config.num_experts)
        rng = np.random.default_rng(seed)

        tokens = prompts
        current = prompts
        finished = np.zeros(batch, dtype=bool)
        for _step in range(max_new_tokens):
            step_trace = StepTrace()
            logits = self.forward(current, caches, step_trace)
            trace.append(step_trace)
            last = logits[:, -1, :]
            if greedy:
                nxt = np.argmax(last, axis=-1)
            else:
                probs = np.exp(
                    (last - last.max(axis=-1, keepdims=True)) / max(temperature, 1e-6)
                )
                probs /= probs.sum(axis=-1, keepdims=True)
                nxt = np.array([rng.choice(len(p), p=p) for p in probs])
            if eos_token is not None:
                nxt = np.where(finished, eos_token, nxt)
                finished |= nxt == eos_token
            tokens = np.concatenate([tokens, nxt[:, None]], axis=1)
            current = nxt[:, None]
            if eos_token is not None and finished.all():
                break
        kv_bytes = sum(c.nbytes for c in caches)
        return GenerationResult(tokens=tokens, trace=trace, kv_bytes=kv_bytes)
