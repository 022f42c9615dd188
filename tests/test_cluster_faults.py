"""Fault-injection suite: determinism, conservation, retries, shedding.

The tentpole properties of :mod:`repro.cluster.faults`:

* **determinism** — a faulted run is a pure function of (config, seed,
  request stream): hypothesis drives random fault models and the report
  must reproduce byte-for-byte, counters included;
* **golden safety** — an *inactive* ``FaultConfig`` (and ``faults=None``)
  yields the inactive fault layer, bit-identical to a run with no fault
  config at all, under both dispatch disciplines;
* **conservation** — every request terminates exactly once as
  ``completed`` | ``shed`` | ``failed`` under arbitrary fault plans
  (:func:`repro.validation.check_cluster`);
* **retry semantics** — attempts are bounded by ``max_attempts``,
  backoff is deterministic and monotone when the multiplier dominates
  the jitter, and a retry budget is never exceeded;
* **failover / shedding / breaker / billing** — targeted deterministic
  scenarios for drain requeues, SLO-class-aware admission control,
  circuit breaking, and per-replica up-time cost.
"""

from __future__ import annotations

import gc
import json
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import FAULT_PRESETS, fault_preset_names
from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    FaultConfig,
    RetryPolicy,
    build_cluster,
    compile_fault_plan,
)
from repro.cluster.routers import make_router
from repro.errors import ConfigValidationError
from repro.routing.workload import Workload
from repro.serving.requests import Request
from repro.serving.scheduler import ContinuousScheduler, GroupScheduler
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


def build_requests(spec) -> list[Request]:
    requests, now = [], 0.0
    for i, item in enumerate(spec):
        gap, prompt, gen = item[:3]
        slo_class = item[3] if len(item) > 3 else "standard"
        now += gap
        requests.append(
            Request(
                request_id=i,
                arrival_s=now,
                prompt_len=prompt,
                gen_len=gen,
                slo_class=slo_class,
            )
        )
    return requests


def build_fleet(n_replicas: int, *, batch_size=2, group_batches=2):
    return build_cluster(
        TINY_MOE,
        [small_hardware() for _ in range(n_replicas)],
        Workload(batch_size, group_batches, prompt_len=32, gen_len=2),
        system_factory=StubSystem,
        seed=0,
    )


def simulate(
    spec,
    n_replicas: int,
    faults: FaultConfig | None,
    retry: RetryPolicy | None = None,
    router: str = "least-outstanding",
    engine: str = "serial",
    scheduler: str = "group",
):
    requests = build_requests(spec)
    simulator = ClusterSimulator(
        build_fleet(n_replicas),
        make_router(router),
        ClusterConfig(slo_s=30.0, max_wait_s=5.0, scheduler=scheduler),
        faults=faults,
        retry=retry,
    )
    return simulator.run(requests, engine=engine), requests


SCHEDULERS = ("group", "continuous")


# (gap, prompt_len, gen_len) triples; short gaps keep queues contended.
request_stream = st.lists(
    st.tuples(
        st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False),
        st.integers(1, 96),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=24,
)

# Brutal rates: streams span tens of seconds, so hundreds-per-hour makes
# faults near-certain while the configs stay valid.
fault_configs = st.builds(
    FaultConfig,
    seed=st.integers(0, 2**31 - 1),
    crash_rate_per_hour=st.sampled_from([0.0, 120.0, 600.0]),
    crash_downtime_s=st.floats(0.5, 10.0, allow_nan=False),
    straggler_rate_per_hour=st.sampled_from([0.0, 120.0, 600.0]),
    straggler_duration_s=st.floats(1.0, 10.0, allow_nan=False),
    straggler_factor=st.floats(1.1, 4.0, allow_nan=False),
    transient_failure_prob=st.sampled_from([0.0, 0.1, 0.4]),
    breaker_threshold=st.integers(0, 4),
    breaker_cooldown_s=st.floats(1.0, 10.0, allow_nan=False),
    shed_queue_depth=st.sampled_from([0, 2, 6]),
    shed_slack_s=st.sampled_from([0.0, 5.0, 30.0]),
)

retry_policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(1, 4),
    backoff_base_s=st.floats(0.01, 1.0, allow_nan=False),
    backoff_multiplier=st.floats(1.0, 3.0, allow_nan=False),
    jitter_frac=st.floats(0.0, 0.3, allow_nan=False),
    retry_budget=st.sampled_from([0, 1, 10]),
    seed=st.integers(0, 2**31 - 1),
)


@given(spec=request_stream, faults=fault_configs, retry=retry_policies,
       n=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_faulted_runs_conserve_requests(spec, faults, retry, n):
    for scheduler in SCHEDULERS:
        report, requests = simulate(spec, n, faults, retry, scheduler=scheduler)
        violations = check_cluster(report, requests)
        assert not violations, "\n".join(map(str, violations))
        terminal = sorted(r.request.request_id for r in report.records)
        assert terminal == [r.request_id for r in requests]
        for record in report.records:
            assert record.outcome in ("completed", "shed", "failed")
            assert record.attempts <= retry.max_attempts


@given(spec=request_stream, faults=fault_configs, retry=retry_policies,
       n=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_same_seed_reproduces_report_and_counters(spec, faults, retry, n):
    first, _ = simulate(spec, n, faults, retry)
    second, _ = simulate(spec, n, faults, retry)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )
    assert first.counters == second.counters


@given(spec=request_stream, n=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_inactive_fault_config_is_bit_identical_to_fault_free(spec, n, seed):
    """Empty plan ⇒ the inactive layer, byte for byte (golden safety)."""
    for scheduler in SCHEDULERS:
        plain, _ = simulate(spec, n, None, scheduler=scheduler)
        inactive, _ = simulate(spec, n, FaultConfig(seed=seed), scheduler=scheduler)
        assert json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(
            inactive.to_dict(), sort_keys=True
        )


@given(spec=request_stream, faults=fault_configs)
@settings(max_examples=15, deadline=None)
def test_fast_engines_fall_back_identically_under_faults(spec, faults):
    serial, _ = simulate(spec, 2, faults, engine="serial")
    batched, _ = simulate(spec, 2, faults, engine="batched")
    assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
        batched.to_dict(), sort_keys=True
    )


@given(policy=retry_policies, rid=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_backoff_is_deterministic_and_bounded(policy, rid):
    for attempt in range(1, policy.max_attempts + 1):
        base = policy.backoff_base_s * policy.backoff_multiplier ** (attempt - 1)
        delay = policy.backoff_s(rid, attempt)
        assert delay == policy.backoff_s(rid, attempt)  # deterministic
        assert base <= delay <= base * (1.0 + policy.jitter_frac) + 1e-12


@given(policy=retry_policies, rid=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_backoff_is_monotone_when_growth_dominates_jitter(policy, rid):
    if policy.backoff_multiplier < 1.0 + policy.jitter_frac:
        return  # jitter may locally reorder delays; only the bound holds
    delays = [
        policy.backoff_s(rid, attempt)
        for attempt in range(1, policy.max_attempts + 1)
    ]
    assert delays == sorted(delays)


@given(spec=request_stream, budget=st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_retry_budget_is_respected(spec, budget):
    faults = FaultConfig(transient_failure_prob=1.0, breaker_threshold=0)
    retry = RetryPolicy(max_attempts=10, backoff_base_s=0.01,
                        retry_budget=budget)
    report, requests = simulate(spec, 1, faults, retry)
    assert report.counters["retries_scheduled"] <= budget
    assert not check_cluster(report, requests)


def test_compile_fault_plan_is_deterministic_and_validates_ids():
    config = FaultConfig(seed=7, crash_rate_per_hour=300.0,
                         straggler_rate_per_hour=300.0)
    first = compile_fault_plan(config, 3, 100.0)
    assert first.events == compile_fault_plan(config, 3, 100.0).events
    assert not first.empty
    with pytest.raises(ValueError):
        compile_fault_plan(FaultConfig(joins=((1.0, 5),)), 3, 100.0)


def test_transient_oracle_is_deterministic():
    plan = compile_fault_plan(
        FaultConfig(seed=3, transient_failure_prob=0.5), 2, 10.0
    )
    draws = [plan.transient_fails(rid, seq) for rid in (0, 1) for seq in range(20)]
    again = [plan.transient_fails(rid, seq) for rid in (0, 1) for seq in range(20)]
    assert draws == again
    assert any(draws) and not all(draws)


def test_fleet_reuse_raises():
    simulator = ClusterSimulator(
        build_fleet(2),
        make_router("round-robin"),
        ClusterConfig(slo_s=30.0, max_wait_s=5.0),
    )
    requests = build_requests([(0.0, 32, 2), (0.5, 32, 2)])
    simulator.run(requests)
    with pytest.raises(RuntimeError, match="already served"):
        simulator.run(requests)


def test_used_replicas_raise_even_on_a_fresh_simulator():
    replicas = build_fleet(1)
    requests = build_requests([(0.0, 32, 2)])
    ClusterSimulator(
        replicas,
        make_router("round-robin"),
        ClusterConfig(slo_s=30.0, max_wait_s=5.0),
    ).run(requests)
    fresh = ClusterSimulator(
        replicas,
        make_router("round-robin"),
        ClusterConfig(slo_s=30.0, max_wait_s=5.0),
    )
    with pytest.raises(RuntimeError, match="already served"):
        fresh.run(requests)


def test_drain_requeues_backlog_to_survivors():
    # Replica 1 drains immediately: every request must complete on 0.
    faults = FaultConfig(drains=((0.0, 1),))
    spec = [(0.2, 32, 2)] * 8
    report, requests = simulate(spec, 2, faults, router="round-robin")
    assert not check_cluster(report, requests)
    completed = [r for r in report.records if r.outcome == "completed"]
    assert len(completed) == len(requests)
    assert {r.replica_id for r in completed} == {0}
    assert report.counters["drains"] == 1


def test_drained_backlog_never_routes_back_to_the_draining_replica():
    # Round-robin leaves replica 1 a partial group when it drains at t=1;
    # the requeued requests must land on replica 0 only.
    faults = FaultConfig(drains=((1.0, 1),))
    report, requests = simulate([(0.2, 32, 2)] * 8, 2, faults, router="round-robin")
    assert not check_cluster(report, requests)
    assert report.counters["requeued_from_drain"] > 0
    assert {r.replica_id for r in report.records} == {0}
    assert all(r.outcome == "completed" for r in report.records)


def test_join_brings_capacity_online_late():
    faults = FaultConfig(joins=((5.0, 1),))
    spec = [(0.0, 32, 2)] + [(2.0, 32, 2)] * 7
    report, requests = simulate(spec, 2, faults, router="round-robin")
    assert not check_cluster(report, requests)
    by_replica = {r.replica_id for r in report.records if r.outcome == "completed"}
    assert 1 in by_replica  # the joiner served traffic after t=5
    early = [r for r in report.records if r.dispatch_s < 5.0]
    assert all(r.replica_id == 0 for r in early)


def test_queue_depth_shedding_protects_interactive_class():
    # One replica, simultaneous burst: standard sheds at depth 2,
    # interactive rides the doubled bound.
    faults = FaultConfig(shed_queue_depth=2)
    spec = [(0.0, 32, 2, "standard" if i % 2 else "interactive")
            for i in range(12)]
    report, requests = simulate(spec, 1, faults)
    assert not check_cluster(report, requests)
    shed = [r for r in report.records if r.outcome == "shed"]
    assert shed, "burst never hit the depth bound"
    shed_classes = [r.request.slo_class for r in shed]
    assert shed_classes.count("standard") > shed_classes.count("interactive")


def test_slack_shedding_spares_protected_class():
    faults = FaultConfig(shed_slack_s=0.001)
    spec = [(0.0, 32, 2, "interactive" if i < 4 else "standard")
            for i in range(12)]
    report, requests = simulate(spec, 1, faults)
    assert not check_cluster(report, requests)
    shed = [r for r in report.records if r.outcome == "shed"]
    assert all(r.request.slo_class == "standard" for r in shed)


def test_breaker_opens_after_consecutive_transients():
    faults = FaultConfig(transient_failure_prob=1.0, breaker_threshold=2,
                         breaker_cooldown_s=1000.0)
    retry = RetryPolicy(max_attempts=2, backoff_base_s=0.01)
    report, requests = simulate([(0.1, 32, 2)] * 10, 1, faults, retry)
    assert not check_cluster(report, requests)
    assert report.counters["breaker_trips"] >= 1
    # Every dispatch fails, so nothing ever completes.
    assert all(r.outcome in ("failed", "shed") for r in report.records)


@pytest.mark.parametrize("scheduler,fails_at", [("group", 5.0), ("continuous", 0.0)])
def test_breaker_admits_a_request_arriving_exactly_at_expiry(scheduler, fails_at):
    # The only replica's first dispatch (at its batching deadline for the
    # group loop, at admission for the continuous one) fails and opens a
    # 2 s breaker. A request inside the window is shed with no replica to
    # route to; one arriving exactly at ``breaker_until`` is routed.
    faults = FaultConfig(transient_failure_prob=1.0, breaker_threshold=1,
                         breaker_cooldown_s=2.0)
    retry = RetryPolicy(max_attempts=1)
    until = fails_at + 2.0
    spec = [(0.0, 32, 2), (until - 0.5, 32, 2), (0.5, 32, 2)]
    report, requests = simulate(spec, 1, faults, retry, scheduler=scheduler)
    assert not check_cluster(report, requests)
    assert report.counters["breaker_trips"] >= 1
    by_id = {r.request.request_id: r for r in report.records}
    assert by_id[1].outcome == "shed" and by_id[1].replica_id == -1
    assert requests[2].arrival_s == until
    assert by_id[2].outcome == "failed" and by_id[2].replica_id == 0
    assert by_id[2].attempts == 1


# Fault seeds whose first crash lands inside the first attempt and whose
# retries then run crash-free, per discipline (the admission timings
# differ, so the seeds do too).
CRASH_SEED = {"group": 2, "continuous": 21}


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_crash_abort_leaves_one_record_per_request(scheduler):
    # Four long requests on one replica; a crash lands while they are in
    # flight, the replica recovers within a second, and the 2 s backoff
    # retries them there. Each request ends with exactly one record: the
    # aborted attempt leaves none, the retry completes on attempt 2.
    faults = FaultConfig(seed=CRASH_SEED[scheduler], crash_rate_per_hour=720.0,
                         crash_downtime_s=1.0)
    retry = RetryPolicy(max_attempts=3, backoff_base_s=2.0, jitter_frac=0.0)
    report, requests = simulate(
        [(0.0, 32, 400)] * 4, 1, faults, retry, scheduler=scheduler
    )
    assert not check_cluster(report, requests)
    assert report.counters["requeued_from_crash"] == len(requests)
    assert len(report.records) == len(requests)
    assert sorted(r.request.request_id for r in report.records) == [0, 1, 2, 3]
    for record in report.records:
        assert record.outcome == "completed"
        assert record.attempts == 2
    assert report.availability["retried_requests"] == len(requests)


@pytest.mark.parametrize("seed", [75, 129, 188])
def test_crash_restores_busy_time_exactly(seed):
    # On these seeds crashes abort every group one replica dispatched.
    # Its busy time must read exactly 0.0: subtracting each aborted
    # group's duration left a float residue of ~1e-15.
    spec = [(0.37 + 0.013 * (i % 7), 32, 2) for i in range(40)]
    faults = FaultConfig(seed=seed, crash_rate_per_hour=2000.0,
                         crash_downtime_s=0.7)
    report, requests = simulate(spec, 2, faults, router="round-robin")
    assert not check_cluster(report, requests)
    idle = [s for s in report.replicas if s.groups == 0]
    assert idle
    for stats in idle:
        assert stats.busy_s == 0.0


@pytest.mark.parametrize("policy_cls", [GroupScheduler, ContinuousScheduler])
def test_run_leaves_no_reference_cycles(policy_cls):
    # The loop, its fault layer and the dispatch policy refer to each
    # other while a run is live; the run must unlink them so its state
    # is freed by reference counting, not held until a cyclic collection.
    simulator = ClusterSimulator(
        build_fleet(3),
        make_router("least-outstanding"),
        ClusterConfig(slo_s=30.0, max_wait_s=5.0),
        faults=FAULT_PRESETS.get("chaos")(),
    )
    policy = policy_cls(simulator)
    gc.disable()
    try:
        policy.run(build_requests([(0.2 + 0.1 * (i % 3), 32, 2) for i in range(60)]))
        refs = [weakref.ref(policy), weakref.ref(policy.layer)]
        del policy
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("preset", fault_preset_names())
def test_every_fault_preset_terminates_each_request_once(preset, scheduler):
    spec = [(0.4 + 0.3 * (i % 3), 32, 1 + i % 3,
             ("interactive", "standard", "batch")[i % 3]) for i in range(90)]
    report, requests = simulate(
        spec, 3, FAULT_PRESETS.get(preset)(), scheduler=scheduler
    )
    violations = check_cluster(report, requests)
    assert not violations, "\n".join(map(str, violations))
    terminal = sorted(r.request.request_id for r in report.records)
    assert terminal == [r.request_id for r in requests]


def test_crashed_replica_bills_only_up_time():
    faults = FaultConfig(seed=1, crash_rate_per_hour=1200.0,
                         crash_downtime_s=5.0)
    report, requests = simulate([(0.5, 32, 2)] * 16, 2, faults)
    assert not check_cluster(report, requests)
    assert report.counters["crashes"] >= 1
    crashed = [s for s in report.replicas
               if str(s.replica_id) in report.availability["downtime_s"]]
    assert crashed
    for stats in crashed:
        assert stats.up_time_s is not None
        assert stats.up_time_s < report.makespan_s
    assert 0.0 < report.availability["availability"] < 1.0
    assert report.cost_usd() > 0.0


def test_availability_summary_counts_match_records():
    faults = FaultConfig(seed=2, crash_rate_per_hour=600.0,
                         crash_downtime_s=3.0, transient_failure_prob=0.3)
    retry = RetryPolicy(max_attempts=2, backoff_base_s=0.05)
    report, requests = simulate([(0.3, 32, 2)] * 20, 2, faults, retry)
    assert not check_cluster(report, requests)
    out = report.to_dict()
    assert "availability" in out
    counts = {
        outcome: sum(1 for r in report.records if r.outcome == outcome)
        for outcome in ("completed", "shed", "failed")
    }
    for outcome, expected in counts.items():
        assert report.availability[outcome] == expected
    assert sum(counts.values()) == len(requests)


def test_fault_free_to_dict_has_no_fault_keys():
    """Serialization stays byte-compatible when faults are off."""
    report, _ = simulate([(0.5, 32, 2)] * 4, 2, None)
    out = report.to_dict()
    assert "availability" not in out
    assert all("outcome" not in entry for entry in out["requests"])
    assert all("up_time_s" not in rep for rep in out["replicas"])


def test_metric_arrays_are_cached_and_invalidated():
    report, _ = simulate([(0.5, 32, 2)] * 6, 2, None)
    first = report.latencies()
    assert first is report.latencies()  # cached ndarray identity
    ttfts = report.ttfts()
    assert ttfts is report.ttfts()
    report.records.append(report.records[0])
    assert report.latencies() is not first  # record-count change refreshes
    report.records.pop()


class TestSimulatorReadsConfigFaults:
    """A hand-built simulator runs with its config's ``faults`` and
    ``retry`` unless told otherwise, and refuses an argument that
    contradicts them."""

    def test_faults_and_retry_come_from_the_config(self):
        config = ClusterConfig(
            slo_s=30.0, max_wait_s=5.0, faults="chaos", retry={"max_attempts": 4}
        )
        simulator = ClusterSimulator(build_fleet(2), make_router("round-robin"), config)
        assert simulator.faults == FAULT_PRESETS.get("chaos")()
        assert simulator.retry == RetryPolicy(max_attempts=4)

    def test_config_faults_run_like_the_explicit_argument(self):
        spec = [(0.1 * (i % 4), 32, 2) for i in range(40)]
        chaos = FAULT_PRESETS.get("chaos")()
        explicit = ClusterSimulator(
            build_fleet(3), make_router("least-outstanding"),
            ClusterConfig(slo_s=30.0, max_wait_s=5.0), faults=chaos,
        ).run(build_requests(spec))
        configured = ClusterSimulator(
            build_fleet(3), make_router("least-outstanding"),
            ClusterConfig(slo_s=30.0, max_wait_s=5.0, faults="chaos"),
        ).run(build_requests(spec))
        assert configured.to_dict() == explicit.to_dict()
        assert configured.counters != ClusterSimulator(
            build_fleet(3), make_router("least-outstanding"),
            ClusterConfig(slo_s=30.0, max_wait_s=5.0),
        ).run(build_requests(spec)).counters

    def test_agreeing_argument_is_accepted(self):
        config = ClusterConfig(faults="chaos", retry={"max_attempts": 4})
        simulator = ClusterSimulator(
            build_fleet(1), make_router("round-robin"), config,
            faults=FAULT_PRESETS.get("chaos")(), retry=RetryPolicy(max_attempts=4),
        )
        assert simulator.faults == FAULT_PRESETS.get("chaos")()

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("cluster.faults", {"faults": None}),
            ("cluster.faults", {"faults": FaultConfig()}),
            ("cluster.retry", {"retry": RetryPolicy(max_attempts=9)}),
        ],
    )
    def test_disagreeing_argument_raises_naming_the_field(self, field, kwargs):
        config = ClusterConfig(faults="chaos", retry={"max_attempts": 4})
        with pytest.raises(ConfigValidationError, match=field):
            ClusterSimulator(build_fleet(1), make_router("round-robin"), config, **kwargs)
