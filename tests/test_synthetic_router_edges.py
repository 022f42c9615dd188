"""Edge-case tests for SyntheticRouter's vectorized sampling paths.

PR 3 vectorized the router (in-place Gumbel buffers, pool-table caches,
an argmax fast path for the single-secondary case) while promising an
unchanged draw stream. These tests pin that promise at the seams:

* the ``extra == 1`` argmax fast path must pick exactly the top-scoring
  expert the general ``argpartition`` path would pick;
* sampling must be bit-identical whether a (layer, pool) table is a
  cache miss (computed fresh) or a cache hit (served from the dict) —
  i.e. the cache must never consume RNG draws or alter results;
* the guaranteed-membership pool invariants survive the masked-logit
  Gumbel top-k implementation.

The per-layer draws (``sample_pool`` / ``sample_layer`` /
``sample_secondary``) live in ``routing_reference``, which
``test_routing_differential`` holds bit for bit to the router's
step-level ``sample_step``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing.synthetic import RoutingModelConfig, SyntheticRouter
from tests.routing_reference import sample_layer, sample_pool, sample_secondary


def make_config(**overrides) -> RoutingModelConfig:
    params = dict(
        num_layers=4,
        num_experts=8,
        top_k=2,
        skew=1.2,
        correlation=0.5,
        seed=11,
    )
    params.update(overrides)
    return RoutingModelConfig(**params)


def reference_secondary(pool, log_pop, primary_pos, extra, rng):
    """Straight-line reimplementation of the Gumbel top-k secondary draw.

    Consumes the same single ``rng.random((n, len(pool)))`` block as the
    production path, then takes the exact top-``extra`` by full argsort
    (no argpartition, no argmax), which is the semantic specification.
    """
    n_tokens = len(primary_pos)
    u = rng.random((n_tokens, len(pool)))
    gumbel = -np.log(-np.log(u + 1e-12) + 1e-12)
    scores = log_pop[None, :] + gumbel
    scores[np.arange(n_tokens), primary_pos] = -np.inf
    order = np.argsort(-scores, axis=1, kind="stable")[:, :extra]
    return pool[order].astype(np.int64)


@pytest.mark.parametrize("extra", [1, 2, 3])
def test_secondary_paths_match_reference(extra):
    """argmax (extra=1) and argpartition (extra>1) both pick the true top-k."""
    rng_pool = np.random.default_rng(0)
    pool = np.sort(rng_pool.choice(16, size=6, replace=False))
    log_pop = np.log(rng_pool.dirichlet(np.ones(len(pool))) + 1e-12)
    primary_pos = rng_pool.integers(0, len(pool), size=32)

    produced = sample_secondary(
        pool, log_pop, primary_pos, extra, np.random.default_rng(42)
    )
    expected = reference_secondary(
        pool, log_pop, primary_pos.copy(), extra, np.random.default_rng(42)
    )
    assert produced.shape == expected.shape == (32, extra)
    # argpartition returns the top-k unordered; compare as sets per row.
    assert all(
        set(produced[i]) == set(expected[i]) for i in range(len(primary_pos))
    )
    if extra == 1:
        # The fast path is exact argmax: order must match too.
        assert np.array_equal(produced, expected)


def test_secondary_never_repeats_primary_or_itself():
    rng = np.random.default_rng(3)
    pool = np.arange(8)
    log_pop = np.log(np.full(8, 1 / 8))
    primary_pos = rng.integers(0, 8, size=64)
    extras = sample_secondary(
        pool, log_pop, primary_pos, 3, np.random.default_rng(9)
    )
    for i in range(64):
        picks = extras[i]
        assert primary_pos[i] not in picks
        assert len(set(picks.tolist())) == 3


class TestPoolTableCache:
    def test_cache_hit_and_miss_produce_identical_streams(self):
        config = make_config()
        cold = SyntheticRouter(config)
        warm = SyntheticRouter(config)
        # Pre-warm every (layer, pool) table the stream will touch, using
        # a throwaway pass with the same stream seed.
        for _ in warm.stream(24, seed=77):
            pass
        assert warm._pool_tables  # tables actually cached
        cold_stream = [a.copy() for _, a in cold.stream(24, seed=77)]
        warm_stream = [a.copy() for _, a in warm.stream(24, seed=77)]
        for a, b in zip(cold_stream, warm_stream):
            assert np.array_equal(a, b)

    def test_clearing_cache_mid_run_does_not_change_draws(self):
        config = make_config()
        reference = [a.copy() for _, a in SyntheticRouter(config).stream(16, seed=5)]
        flushed_router = SyntheticRouter(config)
        flushed = []
        for _, assignment in flushed_router.stream(16, seed=5):
            flushed.append(assignment.copy())
            flushed_router._pool_tables.clear()  # force misses every layer
        for a, b in zip(reference, flushed):
            assert np.array_equal(a, b)

    def test_cache_hit_returns_same_table_object(self):
        router = SyntheticRouter(make_config())
        pool = np.arange(router.config.num_experts)
        first = router._pool_table(0, pool, full_pool=True)
        second = router._pool_table(0, pool, full_pool=True)
        assert first is second

    def test_cache_distinguishes_layers_and_pools(self):
        router = SyntheticRouter(make_config())
        full = np.arange(8)
        sub = np.arange(5)
        router._pool_table(0, full, full_pool=True)
        router._pool_table(1, full, full_pool=True)
        router._pool_table(0, sub, full_pool=False)
        assert len(router._pool_tables) == 3

    def test_cache_eviction_resets_but_preserves_results(self):
        router = SyntheticRouter(make_config())
        pool = np.arange(5)
        before = router._pool_table(2, pool, full_pool=False)
        router._pool_tables.clear()
        after = router._pool_table(2, pool, full_pool=False)
        for x, y in zip(before, after):
            assert np.array_equal(x, y)


class TestPoolInvariants:
    def test_pool_always_contains_hot_topk(self):
        router = SyntheticRouter(make_config(top_k=2))
        rng = np.random.default_rng(1)
        for layer in range(router.config.num_layers):
            for _ in range(20):
                pool = sample_pool(router, layer, rng)
                lo, hi = router.config.pool_bounds()
                assert lo <= len(pool) <= hi
                assert set(router._hot_topk[layer].tolist()) <= set(pool.tolist())
                assert np.array_equal(pool, np.sort(pool))

    def test_top_k_one_returns_single_column(self):
        router = SyntheticRouter(make_config(top_k=1))
        out = sample_layer(router, 0, None, 10, np.random.default_rng(0))
        assert out.shape == (10, 1)

    def test_full_pool_shortcut_matches_identity(self):
        router = SyntheticRouter(
            make_config(min_active_fraction=1.0, max_active_fraction=1.0)
        )
        pool = sample_pool(router, 0, np.random.default_rng(0))
        assert np.array_equal(pool, np.arange(router.config.num_experts))
