"""Synthetic routing generator with hot-expert skew and layer correlation.

This substitutes for running a real Mixtral/Switch gate over real text: the
scheduler only consumes routing decisions, and the statistical properties
it exploits are explicit, tunable parameters here:

* **per-layer hot-expert skew** (Figure 5) — Zipf popularity assigned to
  experts through a per-layer permutation;
* **inter-layer path correlation** (§6.2) — each token's primary expert
  follows a fixed per-layer mapping of its previous expert with probability
  ``correlation``, which is exactly the signal the correlation-aware
  prefetcher learns;
* **within-step concentration** (Figure 15a: "Active 5~8 experts") — the
  tokens of one step share data characteristics, so each layer activates
  only a popularity-biased *pool* of experts per step. Pool size is drawn
  uniformly between ``min_active_fraction`` and ``max_active_fraction`` of
  the expert count; for 8 experts the default reproduces the paper's 5-8
  active experts.

The token model: each token carries a latent primary-expert state. At layer
``l`` the primary expert follows the Markov chain map with probability
``correlation``, otherwise it resamples from the layer's (pool-restricted)
popularity. Secondary experts (top-k > 1) are drawn from pool popularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.routing.popularity import expected_topk_coverage, layer_popularity


@dataclass(frozen=True)
class RoutingModelConfig:
    """Parameters of the synthetic routing process."""

    num_layers: int
    num_experts: int
    top_k: int
    skew: float = 1.1
    correlation: float = 0.55
    min_active_fraction: float = 0.625
    max_active_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.top_k <= self.num_experts:
            raise ValueError("top_k must be in [1, num_experts]")
        if not 0.0 <= self.correlation <= 1.0:
            raise ValueError("correlation must be in [0, 1]")
        if not 0.0 < self.min_active_fraction <= self.max_active_fraction <= 1.0:
            raise ValueError("active fractions must satisfy 0 < min <= max <= 1")

    def pool_bounds(self) -> tuple[int, int]:
        """Smallest and largest per-step active pool sizes."""
        lo = max(self.top_k, int(np.ceil(self.min_active_fraction * self.num_experts)))
        hi = max(lo, int(np.ceil(self.max_active_fraction * self.num_experts)))
        return lo, hi


class SyntheticRouter:
    """Samples per-layer expert assignments for streams of tokens."""

    def __init__(self, config: RoutingModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.popularity = layer_popularity(
            config.num_layers, config.num_experts, config.skew, rng
        )
        # Per-layer deterministic expert mapping used by the correlated
        # component of the transition: previous primary expert e tends to
        # imply expert chain_map[l][e] at layer l.
        self.chain_map = np.stack(
            [rng.permutation(config.num_experts) for _ in range(config.num_layers)]
        )
        self._rng = np.random.default_rng(config.seed + 1)
        # Per-layer sampling tables hoisted out of the hot path: the top-k
        # hottest experts and log-popularity for Gumbel tricks.
        self._hot_topk = np.argsort(-self.popularity, axis=1)[:, : config.top_k]
        self._log_pop = np.log(self.popularity + 1e-12)
        # Pool-selection logits with guaranteed-membership (top-k) slots
        # already pinned to +inf; read-only in sample_pool.
        self._masked_log_pop = self._log_pop.copy()
        for layer in range(config.num_layers):
            self._masked_log_pop[layer][self._hot_topk[layer]] = np.inf
        # (layer, pool bytes) -> (normalized pool popularity, cdf, log-pop):
        # pools recur across steps, and the derived tables are deterministic
        # functions of the pool, so caching preserves the sampled stream.
        self._pool_tables: dict = {}
        self._arange_cache: dict[int, np.ndarray] = {}

    def _pool_table(self, layer: int, pool: np.ndarray, full_pool: bool):
        """(pool_pop, cdf, log_pop) for one (layer, pool).

        Pools recur across steps and the tables are deterministic
        functions of the pool, so caching preserves the sampled stream.
        The renormalization stays even for the full pool: its ulp-level
        effect on the cdf is part of the reproducible stream.
        """
        key = (layer, pool.tobytes())
        entry = self._pool_tables.get(key)
        if entry is None:
            if len(self._pool_tables) > 4096:
                self._pool_tables.clear()
            pool_pop = (
                self.popularity[layer] if full_pool else self.popularity[layer][pool]
            )
            pool_pop = pool_pop / pool_pop.sum()
            cdf = np.cumsum(pool_pop)
            cdf[-1] = 1.0
            entry = (pool_pop, cdf, np.log(pool_pop + 1e-12))
            self._pool_tables[key] = entry
        return entry

    def _arange(self, n: int) -> np.ndarray:
        cached = self._arange_cache.get(n)
        if cached is None:
            cached = self._arange_cache[n] = np.arange(n)
        return cached

    # ---- pools -----------------------------------------------------------------

    def sample_pool(self, layer: int, rng: np.random.Generator) -> np.ndarray:
        """Popularity-biased active-expert pool for one (step, layer).

        The layer's top-k hottest experts are always in the pool: hot
        experts are hot precisely because nearly every input routes some
        tokens to them (this is what makes the paper's Figure 13 "green
        line" sit at 100 % participation). The remaining slots are drawn
        popularity-biased without replacement.
        """
        cfg = self.config
        lo, hi = cfg.pool_bounds()
        size = int(rng.integers(lo, hi + 1))
        if size >= cfg.num_experts:
            return np.arange(cfg.num_experts)
        logits = self._masked_log_pop[layer]  # guaranteed membership: +inf
        gumbel = -np.log(-np.log(rng.random(logits.shape) + 1e-12) + 1e-12)
        return np.sort(np.argpartition(-(logits + gumbel), size - 1)[:size])

    def mean_pool_size(self) -> float:
        lo, hi = self.config.pool_bounds()
        return (lo + hi) / 2.0

    def routing_stats(self, k: int) -> tuple[float, float]:
        """(hot-coverage of k experts, expected distinct active experts)."""
        coverage = float(
            np.mean([expected_topk_coverage(row, k) for row in self.popularity])
        )
        return coverage, self.mean_pool_size()

    # ---- sampling ----------------------------------------------------------------

    def sample_layer(
        self,
        layer: int,
        prev_primary: np.ndarray | None,
        n_tokens: int,
        rng: np.random.Generator | None = None,
        pool: np.ndarray | None = None,
    ) -> np.ndarray:
        """Assignments ``[n_tokens, top_k]`` for one layer.

        ``prev_primary`` is each token's primary expert at the previous
        layer (None for the first layer); ``pool`` restricts routing to a
        per-step active set (None = all experts active).
        """
        cfg = self.config
        rng = rng or self._rng
        full_pool = pool is None or len(pool) == cfg.num_experts
        if pool is None:
            pool = self._arange(cfg.num_experts)
        pool_pop, cdf, log_pop = self._pool_table(layer, pool, full_pool)

        idx = np.searchsorted(cdf, rng.random(n_tokens)).astype(np.int64, copy=False)
        primary = idx if full_pool else pool[idx]
        if prev_primary is not None and cfg.correlation > 0:
            chained = self.chain_map[layer][prev_primary]
            follow = rng.random(n_tokens) < cfg.correlation
            if not full_pool:
                in_pool = np.zeros(cfg.num_experts, dtype=bool)
                in_pool[pool] = True
                follow &= in_pool[chained]
            primary = np.where(follow, chained, primary)
        if cfg.top_k == 1:
            return primary[:, None]
        if full_pool:
            pos = primary  # expert id == position in the identity pool
        else:
            # Position of each expert within the (sorted) pool, for the
            # primary-expert mask of the secondary draw.
            inv = np.empty(cfg.num_experts, dtype=np.int64)
            inv[pool] = self._arange(len(pool))
            pos = inv[primary]
        extras = self._sample_secondary(
            pool, log_pop, pos, cfg.top_k - 1, rng, self._arange(n_tokens)
        )
        return np.concatenate([primary[:, None], extras], axis=1)

    def sample_step(
        self, n_tokens: int, rng: np.random.Generator | None = None
    ) -> list[np.ndarray]:
        """Assignments for every layer of one generation step."""
        rng = rng or self._rng
        assignments: list[np.ndarray] = []
        prev: np.ndarray | None = None
        for layer in range(self.config.num_layers):
            pool = self.sample_pool(layer, rng)
            a = self.sample_layer(layer, prev, n_tokens, rng, pool)
            assignments.append(a)
            prev = a[:, 0]
        return assignments

    def stream(self, n_tokens: int, seed: int):
        """Layer-by-layer generator, keeping only O(n_tokens) state."""
        rng = np.random.default_rng(seed)
        prev: np.ndarray | None = None
        for layer in range(self.config.num_layers):
            pool = self.sample_pool(layer, rng)
            a = self.sample_layer(layer, prev, n_tokens, rng, pool)
            prev = a[:, 0]
            yield layer, a

    # ---- helpers -------------------------------------------------------------------

    @staticmethod
    def _sample_secondary(
        pool: np.ndarray,
        log_pop: np.ndarray,
        primary_pos: np.ndarray,
        extra: int,
        rng: np.random.Generator,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw ``extra`` distinct secondary experts per token (pool only).

        Uses Gumbel top-k over the pool's log-popularity with the primary
        expert (given as its position within the pool) masked out —
        vectorized, popularity-biased, distinct picks. The per-token logit
        matrix is never materialized: the shared log-popularity row
        broadcasts against the per-token Gumbel noise, and the primary
        mask lands on the noise matrix directly.
        """
        n_tokens = len(primary_pos)
        if rows is None:
            rows = np.arange(n_tokens)
        # One buffer end to end: U -> Gumbel noise -> scores, in place.
        scores = rng.random((n_tokens, len(pool)))
        np.add(scores, 1e-12, out=scores)
        np.log(scores, out=scores)
        np.negative(scores, out=scores)
        np.add(scores, 1e-12, out=scores)
        np.log(scores, out=scores)
        np.subtract(log_pop[None, :], scores, out=scores)
        scores[rows, primary_pos] = -np.inf
        if extra == 1:
            top = np.argmax(scores, axis=1)[:, None]
        else:
            top = np.argpartition(-scores, extra - 1, axis=1)[:, :extra]
        return pool[top].astype(np.int64, copy=False)
