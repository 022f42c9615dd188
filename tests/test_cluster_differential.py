"""Differential proof that the cluster engines are bit-identical.

The serial event loop is the executable specification; the batched scan
(:mod:`repro.cluster.engines`) is only allowed to exist because every
observable it produces — dispatch records in order, counters,
per-replica telemetry, percentiles, the canonical JSON of the whole
report — matches the serial loop exactly. Hypothesis drives the
equivalence across routers x arrival patterns x fleet shapes x seeds,
with request streams that deliberately include colliding timestamps and
sub-nanosecond gaps (the ``DEADLINE_EPS`` stale-deadline window),
near-OOM loads, and MMPP bursts. Failures at the config level embed the
replayable ``RunConfig`` JSON blob.
"""

from __future__ import annotations

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunConfig, canonical_json, router_names, stable_hash
from repro.api import run_cluster as api_run_cluster
from repro.cluster import ClusterConfig, ClusterSimulator, build_cluster, make_router
from repro.cluster.engines import ENGINES
from repro.errors import ReproDeprecationWarning
from repro.serving.server import BatchingConfig
from repro.validation import diff_cluster_reports, run_cluster_differential
from repro.validation.cluster_differential import CLUSTER_ENGINES
from tests.conftest import TINY_MOE, small_hardware
from tests.test_cluster_properties import StubSystem, build_requests

# Gaps deliberately mix ordinary spacing with exact collisions (0.0) and
# sub-EPS values: arrivals closer together than the simulator's 1e-9
# deadline tolerance exercise the stale-deadline early-fire path the
# batched scan must reproduce exactly.
request_stream = st.lists(
    st.tuples(
        st.one_of(
            st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, 5e-10, 1e-9, 2e-9]),
        ),
        st.integers(1, 96),
        st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, TINY_MOE.num_experts - 1)),
    ),
    min_size=1,
    max_size=40,
)

fleet_shape = st.tuples(
    st.integers(1, 6),  # replicas
    st.integers(1, 3),  # batch_size
    st.integers(1, 3),  # group_batches
    st.floats(1e-6, 20.0, allow_nan=False),  # max_wait_s
)


def _simulate(engine: str, spec, shape, router_name: str):
    """One engine run on a fresh fleet (engines never share replicas)."""
    n_replicas, batch_size, group_batches, max_wait = shape
    requests = build_requests(spec)
    replicas = build_cluster(
        TINY_MOE,
        [small_hardware() for _ in range(n_replicas)],
        BatchingConfig(
            batch_size=batch_size,
            group_batches=group_batches,
            max_wait_s=max_wait,
        ),
        system_factory=StubSystem,
        prompt_len=32,
        gen_len=2,
        seed=0,
    )
    simulator = ClusterSimulator(
        replicas, make_router(router_name), ClusterConfig(slo_s=30.0)
    )
    return simulator.run(requests, engine=engine)


def test_engine_registries_agree():
    assert CLUSTER_ENGINES == ENGINES == ("serial", "batched")


@given(
    spec=request_stream,
    shape=fleet_shape,
    router=st.sampled_from(router_names()),
)
@settings(max_examples=100, deadline=None)
def test_engines_bit_identical(spec, shape, router):
    reports = {engine: _simulate(engine, spec, shape, router) for engine in ENGINES}
    for engine in ENGINES[1:]:
        diffs = diff_cluster_reports(
            reports["serial"], reports[engine], labels=("serial", engine)
        )
        assert not diffs, f"serial != {engine}:\n" + "\n".join(diffs)


def _run_config(
    *,
    router: str,
    arrival: str,
    replicas: int,
    requests: int,
    rate: float,
    max_wait: float,
    batch_size: int,
    group_batches: int,
    seed: int,
    model: str = "mixtral-8x7b",
    env: str = "env1",
    prompt_len: int = 64,
) -> RunConfig:
    return RunConfig.from_dict(
        {
            "scenario": {
                "model": model, "env": env, "batch_size": batch_size,
                "prompt_len": prompt_len, "gen_len": 4, "seed": seed,
            },
            "system": {"name": "klotski", "options": {}},
            "cluster": {
                "replicas": replicas, "envs": [], "router": router,
                "group_batches": group_batches, "max_wait_s": max_wait,
                "slo_s": 60.0,
            },
            "serve": {
                "arrival": arrival, "requests": requests, "rate_per_s": rate,
            },
        }
    )


@given(
    router=st.sampled_from(router_names()),
    arrival=st.sampled_from(["poisson", "bursty"]),
    replicas=st.integers(1, 3),
    requests=st.integers(4, 32),
    rate=st.floats(2.0, 100.0, allow_nan=False),
    max_wait=st.floats(0.05, 5.0, allow_nan=False),
    batch_size=st.integers(2, 8),
    group_batches=st.integers(1, 2),
    seed=st.integers(0, 7),
)
@settings(max_examples=20, deadline=None)
def test_runconfig_differential_with_replayable_blob(
    router, arrival, replicas, requests, rate, max_wait, batch_size,
    group_batches, seed,
):
    """Full api-path differential; failures embed the replayable config."""
    config = _run_config(
        router=router, arrival=arrival, replicas=replicas, requests=requests,
        rate=rate, max_wait=max_wait, batch_size=batch_size,
        group_batches=group_batches, seed=seed,
    )
    result = run_cluster_differential(config, shared_cache={})
    assert result.ok, (
        "engines diverged:\n"
        + "\n".join(result.diffs)
        + "\nreplay with RunConfig.from_dict of:\n"
        + json.dumps(config.to_dict(), sort_keys=True)
    )


def test_consistent_oom_across_engines():
    """A fleet that cannot hold its groups must OOM under every engine."""
    config = _run_config(
        router="round-robin", arrival="poisson", replicas=2, requests=48,
        rate=50.0, max_wait=2.0, batch_size=256, group_batches=3, seed=1,
        model="mixtral-8x22b", prompt_len=2048,
    )
    result = run_cluster_differential(config, shared_cache={})
    assert result.oom
    assert result.ok
    assert result.reports == {}


def test_near_oom_boundary_stays_bit_identical():
    """Just inside the memory envelope, all engines still agree exactly."""
    config = _run_config(
        router="least-outstanding", arrival="poisson", replicas=2,
        requests=48, rate=50.0, max_wait=2.0, batch_size=128,
        group_batches=3, seed=1, model="mixtral-8x22b", env="env2",
        prompt_len=2048,
    )
    result = run_cluster_differential(config, shared_cache={})
    assert not result.oom
    assert result.ok, "\n".join(result.diffs)


def test_mmpp_burst_bit_identical():
    """Bursty (two-state MMPP) arrivals: queue-depth spikes, deep diff on."""
    config = _run_config(
        router="expert-affinity", arrival="bursty", replicas=3, requests=120,
        rate=200.0, max_wait=0.2, batch_size=4, group_batches=2, seed=6,
    )
    result = run_cluster_differential(config, shared_cache={}, deep=True)
    assert result.ok, "\n".join(result.diffs)


def test_sub_eps_arrival_gaps_deterministic_regression():
    """Arrivals packed tighter than the 1e-9 deadline tolerance.

    The serial loop fires a *stale* deadline for a queue whose oldest
    member arrived within EPS of the deadline owner; the batched scan
    reproduces that early fire by re-evaluating the loop's exact float
    tolerance check per candidate event.
    """
    spec = [
        (0.0, 32, 2, None),
        (5e-10, 32, 2, None),
        (4e-10, 32, 2, 0),
        (1.0, 48, 2, 1),
        (2e-10, 48, 2, None),
        (0.0, 16, 1, 2),
    ]
    shape = (2, 2, 1, 1e-6)  # capacity 2, near-zero wait: deadline storm
    for router in router_names():
        reports = {
            engine: _simulate(engine, spec, shape, router) for engine in ENGINES
        }
        for engine in ENGINES[1:]:
            diffs = diff_cluster_reports(
                reports["serial"], reports[engine], labels=("serial", engine)
            )
            assert not diffs, f"{router}: serial != {engine}:\n" + "\n".join(diffs)


def test_float_rounding_boundary_regression():
    """Hypothesis-found: the tolerance check must round like the loop.

    With gaps [0, 0, 5e-10, 5e-10, 5e-10] the cumulative arrival of the
    last request is 1.5000000000000002e-9: at raw-arrival scale it sits
    *outside* the 1e-9 window of request 2, but the serial loop compares
    shifted to deadline magnitude — ``a[4] + 1.0 <= (a[2] + 1.0) + 1e-9``
    — where the additions round the other way and the stale deadline
    *does* fire early. A scan that tests the window algebraically at
    arrival scale dispatches record 4 at 1.0000000015 instead of
    1.0000000005.
    """
    spec = [
        (0.0, 1, 1, None),
        (0.0, 1, 1, None),
        (5e-10, 1, 1, None),
        (5e-10, 1, 1, None),
        (5e-10, 1, 1, None),
    ]
    shape = (1, 1, 2, 1.0)
    for router in router_names():
        reports = {
            engine: _simulate(engine, spec, shape, router) for engine in ENGINES
        }
        for engine in ENGINES[1:]:
            diffs = diff_cluster_reports(
                reports["serial"], reports[engine], labels=("serial", engine)
            )
            assert not diffs, f"{router}: serial != {engine}:\n" + "\n".join(diffs)


def test_deprecated_sharded_engine_and_jobs_warn_and_match_batched():
    """``engine="sharded"`` and ``jobs != 1`` warn, then run ``batched``."""
    config = _run_config(
        router="round-robin", arrival="poisson", replicas=4, requests=400,
        rate=200.0, max_wait=1.0, batch_size=8, group_batches=2, seed=3,
    )
    from repro.api import build_requests as api_build_requests

    stream = api_build_requests(config)
    batched = api_run_cluster(config, requests=stream, engine="batched")
    expected = canonical_json(batched.to_dict())
    with pytest.warns(ReproDeprecationWarning, match="sharded"):
        sharded = api_run_cluster(config, requests=stream, engine="sharded")
    assert canonical_json(sharded.to_dict()) == expected
    with pytest.warns(ReproDeprecationWarning, match="jobs"):
        pooled = api_run_cluster(
            config, requests=stream, engine="batched", jobs=2
        )
    assert canonical_json(pooled.to_dict()) == expected

    # A serialized config still carries ``"jobs": 1``: it parses, hashes
    # as before the engine was retired, and runs without a warning.
    tree = config.to_dict()
    assert tree["cluster"]["jobs"] == 1
    assert stable_hash(tree) == (
        "f8b1ff065832e2ae23fc1f38e97d513ceb885289697717d73df378813cc8fed4"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", ReproDeprecationWarning)
        report = api_run_cluster(RunConfig.from_dict(tree), requests=stream)
    assert canonical_json(report.to_dict()) == expected
