"""Regression tests for the PR 3 process-wide memo caches.

The stale-cache bug class: a memo key that under-identifies the
computation silently serves one configuration's results to another.
These tests pin (a) that ``clear_step_routing_memo`` /
``clear_group_timing_memo`` actually invalidate, and (b) that the keys
distinguish every mutation that changes the simulated result — oracle
seed, routing statistics, batching shape, and the prompt quantum.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.cluster.replica import Replica, clear_group_timing_memo
from repro.routing.oracle import (
    _STEP_ROUTING_MEMO,
    SyntheticOracle,
    clear_step_routing_memo,
)
from repro.routing.synthetic import RoutingModelConfig
from repro.routing.workload import Workload
from repro.scenario import Scenario
from repro.systems import InferenceSystem
from tests.conftest import TINY_MOE, small_hardware


def make_oracle(seed: int = 0, cap: int = 64, config_seed: int = 0) -> SyntheticOracle:
    config = RoutingModelConfig(
        num_layers=3, num_experts=4, top_k=2, seed=config_seed
    )
    return SyntheticOracle(config, prefill_token_cap=cap, seed=seed)


WORKLOAD = Workload(batch_size=2, num_batches=2, prompt_len=16, gen_len=2)


class TestStepRoutingMemo:
    def setup_method(self):
        clear_step_routing_memo()

    def test_clear_invalidates(self):
        oracle = make_oracle()
        first = [r.assignments for r in oracle.step_routing(1, WORKLOAD)]
        assert len(_STEP_ROUTING_MEMO) == 1
        clear_step_routing_memo()
        assert len(_STEP_ROUTING_MEMO) == 0
        fresh = [r.assignments for r in oracle.step_routing(1, WORKLOAD)]
        # Recomputed (not the memoized objects) yet bit-identical.
        assert all(a is not b for a, b in zip(first, fresh))
        assert all(np.array_equal(a, b) for a, b in zip(first, fresh))

    def test_key_distinguishes_oracle_seed(self):
        a = [r.assignments for r in make_oracle(seed=0).step_routing(1, WORKLOAD)]
        b = [r.assignments for r in make_oracle(seed=1).step_routing(1, WORKLOAD)]
        assert len(_STEP_ROUTING_MEMO) == 2
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_key_distinguishes_router_config_seed(self):
        make_oracle(config_seed=0).step_routing(1, WORKLOAD)
        make_oracle(config_seed=7).step_routing(1, WORKLOAD)
        assert len(_STEP_ROUTING_MEMO) == 2

    def test_key_distinguishes_prefill_cap(self):
        # Step 0 samples min(prefill_tokens, cap) tokens: different caps
        # must not share an entry.
        wl = Workload(batch_size=4, num_batches=2, prompt_len=64, gen_len=2)
        list(make_oracle(cap=16).step_routing(0, wl))
        list(make_oracle(cap=32).step_routing(0, wl))
        assert len(_STEP_ROUTING_MEMO) == 2

    def test_lru_caps_memory(self):
        from repro.routing.oracle import _STEP_ROUTING_MEMO_CAP

        oracle = make_oracle()
        wl = Workload(batch_size=1, num_batches=1, prompt_len=4, gen_len=1)
        for step in range(_STEP_ROUTING_MEMO_CAP + 10):
            oracle.step_routing(step, wl)
        assert len(_STEP_ROUTING_MEMO) <= _STEP_ROUTING_MEMO_CAP


class CountingSystem(InferenceSystem):
    """Stub that counts real (non-memoized) group simulations."""

    name = "counting"

    def __init__(self):
        self.runs = 0

    def run(self, scenario):
        self.runs += 1
        wl = scenario.workload
        total = 0.1 * wl.num_batches + 0.001 * wl.prompt_len
        return SimpleNamespace(
            metrics=SimpleNamespace(total_time_s=total, prefill_time_s=total / 2)
        )


def make_replica(
    system,
    *,
    seed: int = 0,
    batch_size: int = 2,
    prompt_quantum: int = 64,
    cache: dict | None = None,
) -> Replica:
    scenario = Scenario(
        TINY_MOE,
        small_hardware(),
        Workload(batch_size, 2, 32, 2),
        seed=seed,
    )
    return Replica(
        replica_id=0,
        scenario=scenario,
        system=system,
        prompt_quantum=prompt_quantum,
        shared_cache=cache,
    )


class TestGroupTimingMemo:
    def test_identical_config_hits(self):
        system, cache = CountingSystem(), {}
        replica = make_replica(system, cache=cache)
        t1 = replica._group_timing(2, 30, 2)
        t2 = replica._group_timing(2, 30, 2)
        assert system.runs == 1
        assert t1 is t2

    def test_key_distinguishes_scenario_seed(self):
        system, cache = CountingSystem(), {}
        make_replica(system, seed=0, cache=cache)._group_timing(2, 30, 2)
        make_replica(system, seed=1, cache=cache)._group_timing(2, 30, 2)
        assert system.runs == 2
        assert len(cache) == 2

    def test_key_distinguishes_batch_size(self):
        system, cache = CountingSystem(), {}
        make_replica(system, batch_size=2, cache=cache)._group_timing(2, 30, 2)
        make_replica(system, batch_size=4, cache=cache)._group_timing(2, 30, 2)
        assert system.runs == 2

    def test_key_distinguishes_prompt_quantum(self):
        system, cache = CountingSystem(), {}
        make_replica(system, prompt_quantum=64, cache=cache)._group_timing(2, 30, 2)
        make_replica(system, prompt_quantum=16, cache=cache)._group_timing(2, 30, 2)
        assert system.runs == 2

    def test_quantum_buckets_nearby_prompts(self):
        system, cache = CountingSystem(), {}
        replica = make_replica(system, prompt_quantum=64, cache=cache)
        replica._group_timing(2, 30, 2)
        replica._group_timing(2, 40, 2)  # same 64-token bucket
        assert system.runs == 1
        replica._group_timing(2, 70, 2)  # next bucket
        assert system.runs == 2

    def test_clear_group_timing_memo_invalidates_shared_cache(self):
        clear_group_timing_memo()
        system = CountingSystem()
        replica = make_replica(system, cache=None)  # process-wide memo
        replica._group_timing(2, 30, 2)
        replica._group_timing(2, 30, 2)
        assert system.runs == 1
        clear_group_timing_memo()
        replica._group_timing(2, 30, 2)
        assert system.runs == 2
        clear_group_timing_memo()

    def test_distinct_system_options_do_not_collide(self):
        from repro.core.engine import KlotskiOptions, KlotskiSystem

        cache: dict = {}
        a = make_replica(KlotskiSystem(), cache=cache)
        b = make_replica(
            KlotskiSystem(KlotskiOptions(quantize=True), name="klotski"),
            cache=cache,
        )
        a._group_timing(1, 16, 2)
        b._group_timing(1, 16, 2)
        # Same display name, different options: must occupy two entries.
        assert len(cache) == 2


class TestMemoCounters:
    """The memo caches report their traffic through ``repro.obs`` counters.

    These are the numbers the CLI manifest surfaces; they double as a
    cache-effectiveness assertion — repeated identical lookups must be
    dominated by hits, not recomputation.
    """

    def setup_method(self):
        obs.reset_counters()
        clear_step_routing_memo()
        clear_group_timing_memo()

    def test_step_routing_hit_miss_counts(self):
        oracle = make_oracle()
        for _ in range(3):
            oracle.step_routing(1, WORKLOAD)
        counters = obs.counters_snapshot()
        assert counters["memo.step_routing.miss"] == 1
        assert counters["memo.step_routing.hit"] == 2

    def test_group_timing_cache_is_effective(self):
        system, cache = CountingSystem(), {}
        replica = make_replica(system, cache=cache)
        for _ in range(5):
            replica._group_timing(2, 30, 2)
        counters = obs.counters_snapshot()
        assert counters["memo.group_timing.miss"] == 1
        assert counters["memo.group_timing.hit"] == 4
        # One real simulation total: the hit count must dominate.
        assert system.runs == 1
        assert (
            counters["memo.group_timing.hit"]
            > counters["memo.group_timing.miss"]
        )

    def test_distinct_keys_count_as_misses(self):
        system, cache = CountingSystem(), {}
        replica = make_replica(system, cache=cache)
        replica._group_timing(2, 30, 2)
        replica._group_timing(4, 30, 2)
        counters = obs.counters_snapshot()
        assert counters["memo.group_timing.miss"] == 2
        assert "memo.group_timing.hit" not in counters


@pytest.fixture(autouse=True)
def _memo_hygiene():
    yield
    clear_step_routing_memo()
    clear_group_timing_memo()
