"""Step-level routing code against its per-layer oracles, bit for bit.

The router samples a whole step per call (one ``integers`` and one block
of uniforms per layer, transforms vectorized over layers) and the
prefetcher forecasts and learns a whole step at a time. Both must equal
the layer-by-layer formulations in :mod:`tests.routing_reference`
exactly: the sampled stream is pinned by every golden and benchmark
digest, and the prefetcher's forecasts decide which transfers a schedule
issues. The exact stream also rests on ``Generator.random`` /
``Generator.integers`` draw semantics, so CI runs this module in a job
of its own against whatever numpy it installs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import warm_up_prefetcher
from repro.core.prefetcher import ExpertPrefetcher
from repro.model.config import MODELS
from repro.routing.oracle import StepStats
from repro.routing.synthetic import RoutingModelConfig, SyntheticRouter
from repro.routing.workload import Workload
from repro.scenario import Scenario
from tests.conftest import SMALL_MIXTRAL, TINY_MOE, small_hardware
from tests.routing_reference import PerLayerPrefetcher, sample_step

MIXTRAL = MODELS["mixtral-8x7b"]


def routing_config(model, seed: int, **overrides) -> RoutingModelConfig:
    params = dict(
        num_layers=model.num_layers, num_experts=model.num_experts,
        top_k=model.top_k, seed=seed,
    )
    params.update(overrides)
    return RoutingModelConfig(**params)


def assert_same_steps(config, n_tokens: int, rng_seed, steps: int = 1) -> None:
    """``steps`` consecutive steps from one generator match the per-layer
    sampler, and both leave the generator in the same state."""
    step_rng = np.random.default_rng(rng_seed)
    layer_rng = np.random.default_rng(rng_seed)
    router, reference = SyntheticRouter(config), SyntheticRouter(config)
    for _ in range(steps):
        got = router.sample_step(n_tokens, step_rng)
        want = sample_step(reference, n_tokens, layer_rng)
        assert got.shape == (config.num_layers, n_tokens, config.top_k)
        for layer, expected in enumerate(want):
            np.testing.assert_array_equal(got[layer], expected)
    assert step_rng.random() == layer_rng.random()


# (router config, stream seed, token count) of the benchmark's workloads
# and the goldens: step seeds follow SyntheticOracle (seed * 100_003 +
# step, oracle seed = scenario seed + 7919 * (batch offset + 1)).
def _oracle_seed(scenario_seed: int, batch_offset: int, step: int) -> int:
    return (scenario_seed + 7919 * (batch_offset + 1)) * 100_003 + step


USED = [
    # paper-column (pinned seed 1, benchmark seed 3): prefill cap, the
    # n=15 group's decode, one batch's decode.
    *[
        (MIXTRAL, seed, n, _oracle_seed(seed, offset, step))
        for seed in (1, 3)
        for n, step in ((2048, 0), (960, 1), (960, 3), (64, 2))
        for offset in (0, 1)
    ],
    # fleets (benchmark seed 3, pinned seed 7): group prefill and decode.
    *[
        (MIXTRAL, seed, n, _oracle_seed(seed, 0, step))
        for seed in (3, 7)
        for n, step in ((2048, 0), (1024, 0), (32, 1), (16, 5))
    ],
    # goldens: the small Mixtral pipeline cells and the tiny cluster fleets.
    *[(SMALL_MIXTRAL, 3, n, _oracle_seed(3, 0, step)) for n, step in ((384, 0), (12, 2))],
    *[(TINY_MOE, seed, n, _oracle_seed(seed, 0, 1)) for seed in (0, 3, 5) for n in (4, 8)],
]


@pytest.mark.parametrize(
    "model, seed, n_tokens, stream_seed", USED,
    ids=[f"{m.name}-s{s}-n{n}-{i}" for i, (m, s, n, _) in enumerate(USED)],
)
def test_sampler_matches_per_layer_on_used_streams(model, seed, n_tokens, stream_seed):
    assert_same_steps(routing_config(model, seed), n_tokens, stream_seed)


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_sampler_matches_per_layer_on_shared_warm_up_generator(seed):
    """The warm-up draws four 512-token steps from one generator."""
    assert_same_steps(routing_config(MIXTRAL, seed), 512, seed + 17, steps=4)


def _fuzzed_configs(count: int = 48):
    rng = np.random.default_rng(2024)
    out = []
    for i in range(count):
        num_experts = int(rng.choice([1, 2, 4, 8, 16, 64]))
        top_k = int(rng.integers(1, min(4, num_experts) + 1))
        lo = float(rng.uniform(0.05, 1.0))
        # Pool-size ranges of 3, 5, 6, 7... draws do not divide 2**32.
        hi = float(rng.uniform(lo, 1.0)) if i % 3 else 1.0
        out.append((
            RoutingModelConfig(
                num_layers=int(rng.integers(1, 7)),
                num_experts=num_experts,
                top_k=top_k,
                skew=float(rng.uniform(0.0, 2.5)),
                correlation=[0.0, 1.0, float(rng.uniform(0, 1))][i % 3],
                min_active_fraction=lo,
                max_active_fraction=hi,
                seed=int(rng.integers(0, 1000)),
            ),
            int(rng.choice([0, 1, 2, 17, 64, 300])),
            int(rng.integers(0, 2**31)),
        ))
    return out


@pytest.mark.parametrize("config, n_tokens, stream_seed", _fuzzed_configs())
def test_sampler_matches_per_layer_on_fuzzed_shapes(config, n_tokens, stream_seed):
    assert_same_steps(config, n_tokens, stream_seed, steps=2)


def test_fuzzed_shapes_reach_ragged_pool_ranges():
    ranges = set()
    for config, _, _ in _fuzzed_configs():
        lo, hi = config.pool_bounds()
        ranges.add(hi - lo + 1)
    assert any((2**32) % r for r in ranges)
    assert {1, 2, 4, 8, 16, 64} <= {c.num_experts for c, _, _ in _fuzzed_configs()}


# ---- prefetcher -----------------------------------------------------------------


def drive_both(step_prefetcher, reference, steps) -> None:
    """Feed the same steps to the step prefetcher and the per-layer one,
    checking every forecast (and the next step's layer-0 forecast)."""
    num_experts = reference.num_experts
    for step in steps:
        step = np.asarray(step)
        predicted = step_prefetcher.predict_step(step[:, :, 0])
        reference.begin_step()
        for layer, assignments in enumerate(step):
            assert predicted[layer] == reference.predict(layer)
            reference.observe(layer, assignments, predicted[layer])
        totals = StepStats.of(step, 1, num_experts).totals
        step_prefetcher.observe_step(step, totals, predicted)
        assert step_prefetcher.predict_first() == reference.predict(0)
    table = step_prefetcher.table
    np.testing.assert_array_equal(table._marginal, reference.marginal)
    np.testing.assert_array_equal(table._counts, reference.counts)
    np.testing.assert_array_equal(table._has_data, reference.has_data)
    stats = step_prefetcher.stats
    np.testing.assert_array_equal(stats.hot_hits, reference.hot_hits)
    np.testing.assert_array_equal(stats.hot_total, reference.hot_total)
    np.testing.assert_array_equal(stats.participated, reference.participated)
    np.testing.assert_array_equal(stats.predicted_total, reference.predicted_total)


def both(num_layers, num_experts, **options):
    return (
        ExpertPrefetcher(num_layers, num_experts, **options),
        PerLayerPrefetcher(num_layers, num_experts, **options),
    )


@pytest.mark.parametrize("path_length", [1, 2, 3])
@pytest.mark.parametrize("case", range(8))
def test_prefetcher_matches_per_layer_on_fuzzed_routing(path_length, case):
    rng = np.random.default_rng([path_length, case])
    num_layers = int(rng.integers(1, 7))
    num_experts = int(rng.choice([1, 2, 4, 8]))
    top_k = int(rng.integers(1, num_experts + 1))
    options = dict(
        top_k=top_k,
        path_length=path_length,
        prefetch_k=int(rng.integers(1, num_experts + 1)),
        online_update=bool(case % 4),
    )
    step_prefetcher, reference = both(num_layers, num_experts, **options)

    def steps(count):
        # Skewed routing so forecasts are informative; ties are common
        # with few tokens, which the forecasts' tie order must survive.
        out = []
        for _ in range(count):
            n = int(rng.choice([1, 3, 16, 40]))
            weights = rng.dirichlet(np.full(num_experts, 0.5))
            out.append(np.stack([
                np.stack([rng.choice(num_experts, top_k, replace=False, p=weights)
                          for _ in range(n)])
                for _ in range(num_layers)
            ]))
        return out

    warm = steps(2)
    step_prefetcher.warm_up(warm)
    for step in warm:
        reference.record_step(list(step))
    drive_both(step_prefetcher, reference, steps(4))


@pytest.mark.parametrize("path_length", [1, 2, 3])
@pytest.mark.parametrize("n", [62, 63, 64, 70])
def test_prefetcher_matches_per_layer_on_large_groups(path_length, n):
    """The large-group cells: one token per batch, n batches in flight."""
    scenario = Scenario(SMALL_MIXTRAL, small_hardware(), Workload(1, n, 8, 2), seed=3)
    model = scenario.model
    options = dict(top_k=model.top_k, path_length=path_length)
    step_prefetcher, reference = both(model.num_layers, model.num_experts, **options)
    warm_up_prefetcher(scenario, step_prefetcher)
    oracle = scenario.make_oracle(batch_offset=-1)
    rng = np.random.default_rng(scenario.seed + 17)
    for _ in range(4):
        reference.record_step(sample_step(oracle.router, 512, rng))
    oracle = scenario.make_oracle()
    routing = [oracle.step_routing(step, scenario.workload) for step in range(2)]
    drive_both(step_prefetcher, reference, [r.assignments for r in routing])
