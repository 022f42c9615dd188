"""Property-based tests for the cluster routers and event loop.

Hypothesis generates arbitrary request streams (arrival patterns, prompt
and generation lengths, hot-expert tags) and fleet shapes; for every
router policy the simulation must conserve requests (each submitted
request served exactly once, never double-dispatched), satisfy the full
cluster invariant suite, and be byte-identical across re-runs under a
fixed seed. A stub inference system with analytic group timings keeps
each example in the microsecond range, so hypothesis can explore widely.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import router_names
from repro.cluster import ClusterConfig, ClusterSimulator, build_cluster
from repro.cluster.routers import (
    LeastOutstandingRouter,
    RoundRobinRouter,
    make_router,
)
from repro.routing.workload import Workload
from repro.serving.requests import Request
from repro.systems import InferenceSystem
from repro.validation import check_cluster
from tests.conftest import TINY_MOE, small_hardware


class StubSystem(InferenceSystem):
    """Analytic group timings: fast, deterministic, workload-sensitive."""

    name = "stub"

    def run(self, scenario):
        wl = scenario.workload
        total = 0.05 * wl.num_batches + 0.0005 * wl.prompt_len + 0.01 * wl.gen_len
        return SimpleNamespace(
            metrics=SimpleNamespace(total_time_s=total, prefill_time_s=total / 2)
        )


# (gap to previous arrival, prompt_len, gen_len, hot expert or None)
request_stream = st.lists(
    st.tuples(
        st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
        st.integers(1, 96),
        st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, TINY_MOE.num_experts - 1)),
    ),
    min_size=1,
    max_size=32,
)

fleet_shape = st.tuples(
    st.integers(1, 4),  # replicas
    st.integers(1, 3),  # batch_size
    st.integers(1, 3),  # group_batches
    st.floats(0.1, 20.0, allow_nan=False),  # max_wait_s
)


def build_requests(spec) -> list[Request]:
    requests, now = [], 0.0
    for i, (gap, prompt, gen, hot) in enumerate(spec):
        now += gap
        requests.append(
            Request(
                request_id=i,
                arrival_s=now,
                prompt_len=prompt,
                gen_len=gen,
                hot_expert=hot,
            )
        )
    return requests


def simulate(router_name: str, spec, shape, partition: bool = True):
    n_replicas, batch_size, group_batches, max_wait = shape
    requests = build_requests(spec)
    replicas = build_cluster(
        TINY_MOE,
        [small_hardware() for _ in range(n_replicas)],
        Workload(batch_size, group_batches, prompt_len=32, gen_len=2),
        system_factory=StubSystem,
        seed=0,
    )
    simulator = ClusterSimulator(
        replicas,
        make_router(router_name),
        ClusterConfig(slo_s=30.0, partition_experts=partition, max_wait_s=max_wait),
    )
    return simulator.run(requests), requests


@given(spec=request_stream, shape=fleet_shape, router=st.sampled_from(router_names()))
@settings(max_examples=120, deadline=None)
def test_every_router_conserves_requests(spec, shape, router):
    report, requests = simulate(router, spec, shape)
    violations = check_cluster(report, requests)
    assert not violations, "\n".join(map(str, violations))
    served = sorted(r.request.request_id for r in report.records)
    assert served == [r.request_id for r in requests]


@given(spec=request_stream, shape=fleet_shape, router=st.sampled_from(router_names()))
@settings(max_examples=60, deadline=None)
def test_fixed_seed_is_deterministic(spec, shape, router):
    first, _ = simulate(router, spec, shape)
    second, _ = simulate(router, spec, shape)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )


@given(spec=request_stream, shape=fleet_shape)
@settings(max_examples=60, deadline=None)
def test_round_robin_balances_assignment_counts(spec, shape):
    report, requests = simulate(RoundRobinRouter.name, spec, shape)
    n_replicas = shape[0]
    counts = [0] * n_replicas
    for record in report.records:
        counts[record.replica_id] += 1
    assert sum(counts) == len(requests)
    assert max(counts) - min(counts) <= 1  # pure rotation


class RecordingLeastOutstanding(LeastOutstandingRouter):
    """Wraps the load-aware policy to audit each choice at decision time."""

    def __init__(self):
        self.audit: list[tuple[int, int]] = []

    def choose(self, request, replicas, now):
        chosen = super().choose(request, replicas, now)
        self.audit.append(
            (chosen.outstanding(), min(r.outstanding() for r in replicas))
        )
        return chosen


@given(spec=request_stream, shape=fleet_shape)
@settings(max_examples=60, deadline=None)
def test_least_outstanding_always_picks_a_minimum(spec, shape):
    n_replicas, batch_size, group_batches, max_wait = shape
    requests = build_requests(spec)
    replicas = build_cluster(
        TINY_MOE,
        [small_hardware() for _ in range(n_replicas)],
        Workload(batch_size, group_batches, prompt_len=32, gen_len=2),
        system_factory=StubSystem,
        seed=0,
    )
    router = RecordingLeastOutstanding()
    ClusterSimulator(
        replicas, router, ClusterConfig(slo_s=30.0, max_wait_s=max_wait)
    ).run(requests)
    assert len(router.audit) == len(requests)
    for chosen_load, min_load in router.audit:
        assert chosen_load == min_load


@given(spec=request_stream)
@settings(max_examples=40, deadline=None)
def test_expert_affinity_only_trades_within_slack(spec):
    """With slack=0 the affine pick is never more loaded than the minimum."""
    report, requests = simulate("expert-affinity", spec, (3, 2, 2, 5.0))
    assert check_cluster(report, requests) == []
