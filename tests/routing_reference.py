"""Per-layer reference implementations of the step-level routing code.

The simulator samples a step's routing and runs the correlation-aware
prefetcher a whole step at a time. The functions and classes here are the
straightforward layer-by-layer formulations of the same semantics: one
``sample_pool`` / ``sample_layer`` pair per layer drawn from the shared
generator, and a prefetcher whose ``predict`` / ``observe`` interleave
layer by layer. Differential tests hold the step-level code to these
oracles bit for bit (``tests/test_routing_differential.py``).
"""

from __future__ import annotations

import numpy as np

from repro.routing.synthetic import SyntheticRouter
from repro.routing.trace import expert_token_counts, hot_experts


# ---- sampler ----------------------------------------------------------------


def sample_pool(router: SyntheticRouter, layer: int, rng: np.random.Generator) -> np.ndarray:
    """Popularity-biased active-expert pool for one (step, layer); the
    layer's top-k hottest experts are always members."""
    cfg = router.config
    lo, hi = cfg.pool_bounds()
    size = int(rng.integers(lo, hi + 1))
    if size >= cfg.num_experts:
        return np.arange(cfg.num_experts)
    logits = router._masked_log_pop[layer]
    gumbel = -np.log(-np.log(rng.random(logits.shape) + 1e-12) + 1e-12)
    return np.sort(np.argpartition(-(logits + gumbel), size - 1)[:size])


def sample_secondary(pool, log_pop, primary_pos, extra, rng) -> np.ndarray:
    """``extra`` distinct pool experts per token by Gumbel top-k over the
    pool's log-popularity, the primary's pool position masked out."""
    n_tokens = len(primary_pos)
    scores = rng.random((n_tokens, len(pool)))
    np.add(scores, 1e-12, out=scores)
    np.log(scores, out=scores)
    np.negative(scores, out=scores)
    np.add(scores, 1e-12, out=scores)
    np.log(scores, out=scores)
    np.subtract(log_pop[None, :], scores, out=scores)
    scores[np.arange(n_tokens), primary_pos] = -np.inf
    if extra == 1:
        top = np.argmax(scores, axis=1)[:, None]
    else:
        top = np.argpartition(-scores, extra - 1, axis=1)[:, :extra]
    return pool[top].astype(np.int64, copy=False)


def sample_layer(
    router: SyntheticRouter,
    layer: int,
    prev_primary: np.ndarray | None,
    n_tokens: int,
    rng: np.random.Generator,
    pool: np.ndarray | None = None,
) -> np.ndarray:
    """Assignments ``[n_tokens, top_k]`` for one layer (``pool`` None: all
    experts active)."""
    cfg = router.config
    full_pool = pool is None or len(pool) == cfg.num_experts
    if pool is None:
        pool = np.arange(cfg.num_experts)
    _, cdf, log_pop = router._pool_table(layer, pool, full_pool)[:3]
    idx = np.searchsorted(cdf, rng.random(n_tokens)).astype(np.int64, copy=False)
    primary = idx if full_pool else pool[idx]
    if prev_primary is not None and cfg.correlation > 0:
        chained = router.chain_map[layer][prev_primary]
        follow = rng.random(n_tokens) < cfg.correlation
        if not full_pool:
            in_pool = np.zeros(cfg.num_experts, dtype=bool)
            in_pool[pool] = True
            follow &= in_pool[chained]
        primary = np.where(follow, chained, primary)
    if cfg.top_k == 1:
        return primary[:, None]
    if full_pool:
        pos = primary
    else:
        inv = np.empty(cfg.num_experts, dtype=np.int64)
        inv[pool] = np.arange(len(pool))
        pos = inv[primary]
    extras = sample_secondary(pool, log_pop, pos, cfg.top_k - 1, rng)
    return np.concatenate([primary[:, None], extras], axis=1)


def sample_step(router: SyntheticRouter, n_tokens: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Every layer of one step, pool then layer, from the shared ``rng``."""
    out: list[np.ndarray] = []
    prev = None
    for layer in range(router.config.num_layers):
        pool = sample_pool(router, layer, rng)
        a = sample_layer(router, layer, prev, n_tokens, rng, pool)
        out.append(a)
        prev = a[:, 0]
    return out


# ---- prefetcher ---------------------------------------------------------------


class PerLayerPrefetcher:
    """The correlation-aware prefetcher, predicting and observing one layer
    at a time on its own ``[layers, E**path_length, E]`` table."""

    def __init__(self, num_layers, num_experts, *, top_k, path_length=1,
                 prefetch_k=None, online_update=True):
        self.num_layers = num_layers
        self.num_experts = num_experts
        self.path_length = path_length
        self.prefetch_k = prefetch_k if prefetch_k is not None else top_k
        self.online_update = online_update
        self.marginal = np.zeros((num_layers, num_experts))
        self.counts = np.zeros((num_layers, num_experts**path_length, num_experts))
        self.has_data = np.zeros(num_layers, dtype=bool)
        self.hot_hits = np.zeros(num_layers)
        self.hot_total = np.zeros(num_layers)
        self.participated = np.zeros(num_layers)
        self.predicted_total = np.zeros(num_layers)
        self._history: list[np.ndarray] = []

    def _encode(self, history: np.ndarray) -> np.ndarray:
        idx = np.zeros(len(history), dtype=np.int64)
        for col in range(history.shape[1]):
            idx = idx * self.num_experts + history[:, col]
        return idx

    def _accumulate(self, layer: int, flat: np.ndarray) -> None:
        table = self.counts[layer]
        table += np.bincount(flat.reshape(-1), minlength=table.size).reshape(table.shape)
        if flat.size:
            self.has_data[layer] = True

    def record_step(self, assignments) -> None:
        primaries = [np.asarray(a)[:, 0] for a in assignments]
        p = self.path_length
        for layer, a in enumerate(assignments):
            a = np.asarray(a)
            self.marginal[layer] += expert_token_counts(a, self.num_experts)
            if layer < p:
                continue
            history = np.stack([primaries[layer - p + i] for i in range(p)], axis=1)
            flat = self._encode(history)[:, None] * self.num_experts + a
            self._accumulate(layer, flat)

    def tendencies(self, layer: int, history: np.ndarray | None) -> np.ndarray:
        if history is None or layer < self.path_length or not self.has_data[layer]:
            return self.marginal[layer].copy()
        table = self.counts[layer]
        scores = np.bincount(self._encode(history), minlength=table.shape[0]) @ table
        if scores.sum() == 0:
            return self.marginal[layer].copy()
        return scores

    def begin_step(self) -> None:
        self._history = []

    def predict(self, layer: int) -> list[int]:
        history = None
        if len(self._history) >= self.path_length:
            history = np.stack(self._history[-self.path_length:], axis=1)
        return hot_experts(self.tendencies(layer, history), self.prefetch_k)

    def observe(self, layer: int, assignments: np.ndarray, predicted: list[int]) -> None:
        self._history.append(assignments[:, 0])
        counts = expert_token_counts(assignments, self.num_experts)
        if predicted:
            actual = set(hot_experts(counts, self.prefetch_k))
            self.hot_hits[layer] += len(actual.intersection(predicted))
            self.hot_total[layer] += len(predicted)
            self.participated[layer] += sum(1 for e in predicted if counts[e] > 0)
            self.predicted_total[layer] += len(predicted)
        if not self.online_update:
            return
        self.marginal[layer] += counts
        p = self.path_length
        if layer >= p and len(self._history) > p:
            history = np.stack(self._history[-p - 1:-1], axis=1)
            flat = self._encode(history)[:, None] * self.num_experts + assignments
            self._accumulate(layer, flat)
