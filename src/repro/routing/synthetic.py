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
        # already pinned to +inf; read-only in sample_step.
        self._masked_log_pop = self._log_pop.copy()
        for layer in range(config.num_layers):
            self._masked_log_pop[layer][self._hot_topk[layer]] = np.inf
        # (layer, pool bytes) -> (normalized pool popularity, cdf, log-pop):
        # pools recur across steps, and the derived tables are deterministic
        # functions of the pool, so caching preserves the sampled stream.
        self._pool_tables: dict = {}

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

    def sample_step(
        self, n_tokens: int, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Assignments ``[num_layers, n_tokens, top_k]`` of one step.

        Per layer the generator yields the pool size (one ``integers``
        draw), then one block of uniforms: the pool's Gumbel noise (a
        partial pool only), the primary draws, the chain-follow draws
        (past layer 0, with correlation) and the secondary Gumbel noise
        (top-k > 1). The transforms then run over a chunk of layers at
        once; a chunk's uniforms fit in ``_CHUNK_DOUBLES``, so a decode
        step is one chunk and prefill steps keep small temporaries.
        """
        cfg = self.config
        rng = rng or self._rng
        num_layers = cfg.num_layers
        out = np.empty((num_layers, n_tokens, cfg.top_k), dtype=np.int64)
        chunk = max(1, _CHUNK_DOUBLES // self._draw_width(n_tokens))
        prev = None
        for first in range(0, num_layers, chunk):
            prev = self._sample_layers(
                first, min(num_layers, first + chunk), n_tokens, rng, prev, out
            )
        return out

    def stream(self, n_tokens: int, seed: int):
        """``(layer, assignments)`` pairs of one step sampled from ``seed``."""
        step = self.sample_step(n_tokens, np.random.default_rng(seed))
        return enumerate(step)

    def _draw_width(self, n: int) -> int:
        """Most uniforms one layer of ``n`` tokens draws."""
        cfg = self.config
        return cfg.num_experts + n * (2 + (cfg.pool_bounds()[1] if cfg.top_k > 1 else 0))

    def _sample_layers(self, first, stop, n, rng, prev, out) -> np.ndarray:
        """Sample layers ``first..stop-1`` into ``out``; returns the last
        layer's primary experts (``prev``: the previous layer's)."""
        cfg = self.config
        num_experts, extra = cfg.num_experts, cfg.top_k - 1
        follows = cfg.correlation > 0
        lo, hi = cfg.pool_bounds()
        m = stop - first
        buf = np.empty(m * self._draw_width(n))
        sizes, gumbel_at, primary_at, secondary_at = [], [], [], []
        at = 0
        for layer in range(first, stop):
            size = int(rng.integers(lo, hi + 1))
            gumbel = num_experts if size < num_experts else 0
            secondary = n * size if extra else 0
            count = gumbel + n + (n if follows and layer > 0 else 0) + secondary
            rng.random(out=buf[at : at + count])
            sizes.append(size)
            if gumbel:
                gumbel_at.append(at)
            primary_at.append(at + gumbel)  # the follow draws come next
            secondary_at.append(at + count - secondary)
            at += count
        member = np.ones((m, num_experts), dtype=bool)
        sizes = np.array(sizes)
        partial = np.flatnonzero(sizes < num_experts)
        if partial.size:
            # Gumbel top-``size`` over the layer's log-popularity; its
            # top-k hottest experts (logit +inf) are always members: hot
            # experts are hot because nearly every input routes some
            # tokens to them (Figure 13's participation near 100 %).
            u = buf[np.array(gumbel_at)[:, None] + np.arange(num_experts)]
            noise = -np.log(-np.log(u + 1e-12) + 1e-12)
            order = np.argsort(
                -(self._masked_log_pop[first + partial] + noise), axis=1, kind="stable"
            )
            rank = np.empty_like(order)
            rank[np.arange(len(partial))[:, None], order] = np.arange(num_experts)
            member[partial] = rank < sizes[partial, None]
        # Member experts first, ascending: the pool in its first ``size`` slots.
        pools = np.argsort(~member, axis=1, kind="stable")
        if follows:
            # Per layer, previous primary + E * follow -> the chained expert
            # when followed and in the pool, else -1.
            chained = self.chain_map[first:stop]
            links = np.full((m, 2 * num_experts), -1, dtype=np.int64)
            links[:, num_experts:] = np.where(
                member[np.arange(m)[:, None], chained], chained, -1
            )
            shift = num_experts * (
                buf[np.array(primary_at)[:, None] + np.arange(n, 2 * n)] < cfg.correlation
            )
        primary = np.empty((m, n), dtype=np.int64)
        log_pops = []
        for i, (size, at) in enumerate(zip(sizes.tolist(), primary_at)):
            pool = pools[i, :size]
            _, cdf, log_pop = self._pool_table(first + i, pool, size == num_experts)
            log_pops.append(log_pop)
            fresh = pool[cdf.searchsorted(buf[at : at + n])]
            if prev is not None and follows:
                link = links[i][prev + shift[i]]
                fresh = np.where(link < 0, fresh, link)
            primary[i] = prev = fresh
        out[first:stop, :, 0] = primary
        if extra:
            self._sample_secondary(
                sizes.tolist(), secondary_at, buf, member, pools, log_pops, primary,
                out[first:stop],
            )
        return prev

    @staticmethod
    def _sample_secondary(sizes, offsets, buf, member, pools, log_pops, primary, out) -> None:
        """Fill ``out[..., 1:]``: distinct secondary experts per token by
        Gumbel top-k over each layer's pool log-popularity, the ``primary``
        expert masked out. Layers of one pool size share one score array;
        their rows are independent."""
        n, extra = out.shape[1], out.shape[2] - 1
        position = np.cumsum(member, axis=1) - 1  # expert -> slot in its pool
        by_size: dict[int, list[int]] = {}
        for i, size in enumerate(sizes):
            by_size.setdefault(size, []).append(i)
        groups = list(by_size.values())
        if n >= _GROUP_TOKENS:  # large layers: one at a time, on views
            groups = [[i] for rows in groups for i in rows]
        for rows in groups:
            g, size = len(rows), sizes[rows[0]]
            if g == 1:
                i = rows[0]
                scores = buf[offsets[i] : offsets[i] + n * size].reshape(1, n, size)
                log_pop = log_pops[i]
                slots = position[i][primary[i]]
            else:
                rows = np.array(rows)
                at = np.array(offsets)[rows]
                scores = buf[at[:, None] + np.arange(n * size)].reshape(g, n, size)
                log_pop = np.stack([log_pops[i] for i in rows.tolist()])[:, None, :]
                slots = position[rows[:, None], primary[rows]].ravel()
            np.add(scores, 1e-12, out=scores)
            np.log(scores, out=scores)
            np.negative(scores, out=scores)
            np.add(scores, 1e-12, out=scores)
            np.log(scores, out=scores)
            np.subtract(log_pop, scores, out=scores)
            scores = scores.reshape(g * n, size)
            scores[np.arange(g * n), slots] = -np.inf
            if extra == 1:
                top = np.argmax(scores, axis=1)[:, None]
            else:
                top = np.argpartition(-scores, extra - 1, axis=1)[:, :extra]
            if g == 1:
                out[i, :, 1:] = pools[i][top]
            else:
                out[rows, :, 1:] = pools[rows[:, None, None], top.reshape(g, n, extra)]


# Uniforms per sampling chunk, 1 MB (see SyntheticRouter.sample_step),
# and the tokens per layer from which secondary draws run one layer at a
# time.
_CHUNK_DOUBLES = 1 << 17
_GROUP_TOKENS = 256
