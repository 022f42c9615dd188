"""Iteration-level (continuous) cluster scheduling.

Covers the ``continuous`` dispatch discipline end to end: per-step
admission, deterministic KV-pressure preemption, SLO-class targets and
per-class percentiles, fault composition (preempt + crash + retry), and
the group-vs-continuous conservation differential. A stub inference
system with analytic group timings keeps the Hypothesis examples in the
microsecond range, mirroring ``tests/test_cluster_properties.py``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunConfig
from repro.api.run import build_requests as api_build_requests
from repro.api.run import run_cluster
from repro.cluster import ClusterConfig, ClusterSimulator, build_cluster
from repro.cluster.faults import FaultConfig, RetryPolicy
from repro.cluster.routers import make_router
from repro.errors import ConfigValidationError
from repro.model.kvcache import StreamingConfig
from repro.routing.workload import Workload
from repro.serving.requests import Request
from repro.serving.scheduler import (
    ContinuousScheduler,
    _footprint,
)
from repro.systems import InferenceSystem
from repro.validation import check_cluster, run_scheduler_differential
from tests.conftest import TINY_MOE, small_hardware

CLASSES = ("interactive", "standard", "batch")


class StubSystem(InferenceSystem):
    """Analytic group timings: fast, deterministic, workload-sensitive."""

    name = "stub"

    def run(self, scenario):
        wl = scenario.workload
        total = 0.05 * wl.num_batches + 0.0005 * wl.prompt_len + 0.01 * wl.gen_len
        return SimpleNamespace(
            metrics=SimpleNamespace(total_time_s=total, prefill_time_s=total / 2)
        )


def make_sim(
    n_replicas=2,
    scheduler="continuous",
    batch_size=2,
    group_batches=2,
    faults=None,
    retry=None,
    **cfg,
):
    replicas = build_cluster(
        TINY_MOE,
        [small_hardware()] * n_replicas,
        Workload(batch_size, group_batches, prompt_len=32, gen_len=4),
        system_factory=StubSystem,
        prompt_quantum=16,
        shared_cache={},
    )
    cfg.setdefault("slo_s", 60.0)
    cfg.setdefault("max_wait_s", 20.0)
    return ClusterSimulator(
        replicas,
        make_router("round-robin"),
        ClusterConfig(scheduler=scheduler, **cfg),
        faults=faults,
        retry=retry,
    )


def stream(count=24, gap=0.25, prompt=32, gen=4, classes=CLASSES):
    return [
        Request(
            request_id=i,
            arrival_s=i * gap,
            prompt_len=prompt,
            gen_len=gen,
            slo_class=classes[i % len(classes)],
        )
        for i in range(count)
    ]


def assert_conserved(report, requests):
    """Every submitted request terminates exactly once, nothing invented."""
    submitted = sorted(r.request_id for r in requests)
    terminated = sorted(r.request.request_id for r in report.records)
    assert terminated == submitted


class TestContinuousEndToEnd:
    def test_conservation_and_invariants(self):
        requests = stream()
        report = make_sim().run(requests)
        assert report.scheduler == "continuous"
        assert check_cluster(report, requests) == []
        assert_conserved(report, requests)
        assert all(r.outcome == "completed" for r in report.records)
        assert report.counters["decode_steps"] > 0
        assert report.counters["completions"] == len(requests)

    def test_completion_at_token_granularity(self):
        # Iteration-level semantics: a short request admitted alongside a
        # long one completes before the long one does, instead of waiting
        # for its whole group like the group scheduler.
        requests = [
            Request(request_id=0, arrival_s=0.0, prompt_len=32, gen_len=12),
            Request(request_id=1, arrival_s=0.0, prompt_len=32, gen_len=1),
        ]
        report = make_sim(n_replicas=1).run(requests)
        by_id = {r.request.request_id: r for r in report.records}
        assert by_id[1].completion_s < by_id[0].completion_s

    def test_slo_class_targets_and_metrics(self):
        requests = stream()
        report = make_sim(slo_s=60.0).run(requests)
        assert report.slo_class_targets == {
            "interactive": 30.0,
            "standard": 60.0,
            "batch": 120.0,
        }
        metrics = report.slo_class_metrics()
        assert sorted(metrics) == sorted(CLASSES)
        for name, m in metrics.items():
            assert m["slo_target_s"] == report.slo_class_targets[name]
            assert m["p95_ttft_s"] <= m["p99_latency_s"]

    def test_to_dict_serializes_scheduler_and_classes(self):
        requests = stream(count=9)
        payload = make_sim().run(requests).to_dict()
        assert payload["scheduler"] == "continuous"
        assert sorted(payload["slo_classes"]) == sorted(CLASSES)

    def test_group_report_omits_scheduler_keys(self):
        # Golden safety: the default discipline's payload is unchanged.
        requests = stream(count=9)
        payload = make_sim(scheduler="group").run(requests).to_dict()
        assert "scheduler" not in payload
        assert "slo_classes" not in payload

    def test_deterministic(self):
        requests = stream()
        a = make_sim().run(requests).to_dict()
        b = make_sim().run(requests).to_dict()
        assert a == b

    def test_per_replica_accounting(self):
        requests = stream()
        report = make_sim().run(requests)
        assert sum(s.requests for s in report.replicas) == len(requests)
        for s in report.replicas:
            assert s.groups > 0
            assert s.busy_s <= report.makespan_s + 1e-9


class TestPreemption:
    def test_kv_pressure_preempts_and_conserves(self):
        # Budget fits two prompts at admission but not their generated
        # tokens: pressure builds mid-flight and must preempt.
        requests = stream(count=12, gap=0.0, classes=("standard",))
        sim = make_sim(n_replicas=1)
        report = ContinuousScheduler(sim, kv_budget_tokens=65).run(requests)
        assert report.counters["preemptions"] > 0
        assert check_cluster(report, requests) == []
        assert_conserved(report, requests)
        assert all(r.outcome == "completed" for r in report.records)

    def test_preemption_is_attempt_neutral(self):
        requests = stream(count=12, gap=0.0, classes=("standard",))
        sim = make_sim(n_replicas=1)
        report = ContinuousScheduler(sim, kv_budget_tokens=65).run(requests)
        # Fault-free, every record should land at exactly one attempt no
        # matter how often it was preempted and re-admitted.
        assert {r.attempts for r in report.records} == {1}

    def test_interactive_class_preempted_last(self):
        # One interactive and one batch request admitted together under
        # pressure: the batch tenant is the deterministic victim, so the
        # interactive one completes first.
        requests = [
            Request(
                request_id=0, arrival_s=0.0, prompt_len=32, gen_len=4,
                slo_class="interactive",
            ),
            Request(
                request_id=1, arrival_s=0.0, prompt_len=32, gen_len=4,
                slo_class="batch",
            ),
        ]
        sim = make_sim(n_replicas=1)
        report = ContinuousScheduler(sim, kv_budget_tokens=65).run(requests)
        assert report.counters["preemptions"] > 0
        by_id = {r.request.request_id: r for r in report.records}
        assert by_id[0].completion_s <= by_id[1].completion_s

    def test_oversized_request_not_starved(self):
        # A request bigger than the whole budget force-admits into an
        # empty batch instead of blocking the queue forever.
        requests = [
            Request(request_id=0, arrival_s=0.0, prompt_len=500, gen_len=2),
            Request(request_id=1, arrival_s=0.0, prompt_len=32, gen_len=2),
        ]
        sim = make_sim(n_replicas=1)
        report = ContinuousScheduler(sim, kv_budget_tokens=64).run(requests)
        assert_conserved(report, requests)
        assert all(r.outcome == "completed" for r in report.records)


class TestStreamingFootprint:
    def test_footprint_saturates_at_retention(self):
        streaming = StreamingConfig(sinks=2, window=3)
        assert _footprint(streaming, 4) == 4
        assert _footprint(streaming, 100) == 5
        assert _footprint(None, 100) == 100

    def test_streaming_budget_admits_more(self):
        # With sink+window retention a long-prompt stream fits more
        # concurrent requests into the same token budget, so fewer
        # decode steps run over-budget and fewer preemptions happen.
        requests = stream(count=8, gap=0.0, prompt=64, classes=("standard",))
        dense = ContinuousScheduler(
            make_sim(n_replicas=1), kv_budget_tokens=130
        ).run(requests)
        sim = make_sim(n_replicas=1)
        streaming = StreamingConfig(sinks=2, window=6)
        for replica in sim.replicas:
            replica.system.options = SimpleNamespace(
                sparse_attention=SimpleNamespace(streaming=lambda s=streaming: s)
            )
        sparse = ContinuousScheduler(sim, kv_budget_tokens=130).run(requests)
        assert_conserved(dense, requests)
        assert_conserved(sparse, requests)
        assert sparse.counters["preemptions"] <= dense.counters["preemptions"]
        assert sparse.makespan_s <= dense.makespan_s + 1e-9


class TestFaultComposition:
    def test_crash_retry_conserves(self):
        requests = stream(count=30, gap=0.2)
        faults = FaultConfig(seed=3, crash_rate_per_hour=400.0, crash_downtime_s=5.0)
        report = make_sim(n_replicas=3, faults=faults).run(requests)
        assert report.scheduler == "continuous"
        assert check_cluster(report, requests) == []
        assert_conserved(report, requests)
        assert report.counters["crashes"] > 0
        assert report.availability["availability"] < 1.0

    def test_preempt_then_crash_then_retry(self):
        # The ISSUE's nastiest interaction: requests get preempted under
        # KV pressure, their replica crashes mid-step, and the retry
        # layer must still terminate every request exactly once.
        requests = stream(count=24, gap=0.0, classes=("standard",))
        faults = FaultConfig(
            seed=5, crash_rate_per_hour=4000.0, crash_downtime_s=0.5
        )
        sim = make_sim(n_replicas=2, faults=faults, retry=RetryPolicy(max_attempts=4))
        report = ContinuousScheduler(sim, kv_budget_tokens=65).run(requests)
        assert report.counters["preemptions"] > 0
        assert report.counters["crashes"] > 0
        assert check_cluster(report, requests) == []
        assert_conserved(report, requests)

    def test_depth_shedding_protects_interactive(self):
        requests = stream(count=40, gap=0.0)
        faults = FaultConfig(seed=0, shed_queue_depth=2)
        report = make_sim(n_replicas=1, faults=faults).run(requests)
        assert_conserved(report, requests)
        shed = [r for r in report.records if r.outcome == "shed"]
        assert shed, "depth bound should shed under a burst"
        # Interactive tenants get a doubled depth bound, so the shed set
        # skews away from them.
        interactive_shed = sum(
            1 for r in shed if r.request.slo_class == "interactive"
        )
        assert interactive_shed <= len(shed) - interactive_shed

    def test_drain_requeues_backlog(self):
        requests = stream(count=16, gap=0.1)
        faults = FaultConfig(seed=0, drains=((0.5, 0),))
        report = make_sim(n_replicas=2, faults=faults).run(requests)
        assert_conserved(report, requests)
        assert report.counters["drains"] == 1
        assert all(r.outcome == "completed" for r in report.records)


class TestSchedulerDifferential:
    def _config(self, **cluster):
        cluster = {
            "replicas": 2,
            "group_batches": 2,
            "max_wait_s": 5.0,
            "slo_s": 60.0,
            **cluster,
        }
        return RunConfig.from_dict({
            "scenario": {
                "env": "env1", "prompt_len": 32, "gen_len": 4, "seed": 3,
            },
            "system": {"name": "klotski"},
            "cluster": cluster,
            "serve": {"arrival": "poisson", "requests": 16, "rate_per_s": 4.0},
        })

    def test_group_vs_continuous_conservation(self):
        result = run_scheduler_differential(self._config(), shared_cache={})
        assert result.ok, result.diffs
        assert set(result.reports) == {"group", "continuous"}
        assert result.reports["continuous"].scheduler == "continuous"

    def test_differential_api_end_to_end(self):
        config = self._config(scheduler="continuous")
        requests = api_build_requests(config)
        report = run_cluster(config, shared_cache={}, requests=requests)
        assert report.scheduler == "continuous"
        assert check_cluster(report, requests) == []
        assert "slo_classes" in report.to_dict()

    def test_dropped_record_fails_the_differential(self, monkeypatch):
        """Mutation check: a policy that loses one request must be caught."""
        from repro.api.registry import SCHEDULERS

        class DropOneScheduler(ContinuousScheduler):
            name = "drop-one"

            def run(self, requests):
                report = super().run(requests)
                report.records.pop()
                return report

        SCHEDULERS.names()  # load the built-ins before patching
        monkeypatch.setitem(SCHEDULERS._entries, "drop-one", DropOneScheduler)
        result = run_scheduler_differential(
            self._config(), shared_cache={}, schedulers=("group", "drop-one")
        )
        assert not result.ok
        assert any(
            d.startswith("drop-one: invariant") and "never reached" in d
            for d in result.diffs
        ), result.diffs
        assert not any(d.startswith("group:") for d in result.diffs)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigValidationError):
            self._config(scheduler="orca")


# (count, gap, budget) for the conservation property: tight budgets force
# preemption churn, loose ones exercise plain continuous batching.
conservation_cases = st.tuples(
    st.integers(2, 20),
    st.floats(0.0, 0.5, allow_nan=False),
    st.integers(40, 400),
)


class TestProperties:
    @given(case=conservation_cases)
    @settings(max_examples=25, deadline=None)
    def test_conservation_under_preemption(self, case):
        count, gap, budget = case
        requests = stream(count=count, gap=gap)
        sim = make_sim(n_replicas=2)
        report = ContinuousScheduler(sim, kv_budget_tokens=budget).run(requests)
        assert check_cluster(report, requests) == []
        assert_conserved(report, requests)
        assert all(r.outcome == "completed" for r in report.records)

    @given(count=st.integers(1, 24), seed=st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_per_class_accounting_recounts(self, count, seed):
        classes = CLASSES[seed % len(CLASSES):] + CLASSES[: seed % len(CLASSES)]
        requests = stream(count=count, classes=classes)
        report = make_sim().run(requests)
        metrics = report.slo_class_metrics()
        per_class: dict[str, int] = {}
        for record in report.records:
            cls = record.request.slo_class
            per_class[cls] = per_class.get(cls, 0) + 1
        assert {k: v["requests"] for k, v in metrics.items()} == per_class
        assert sum(v["completed"] for v in metrics.values()) == len(
            [r for r in report.records if r.outcome == "completed"]
        )

    @given(count=st.integers(1, 16), budget=st.integers(40, 200))
    @settings(max_examples=15, deadline=None)
    def test_determinism(self, count, budget):
        requests = stream(count=count, gap=0.1)
        a = ContinuousScheduler(
            make_sim(), kv_budget_tokens=budget
        ).run(requests).to_dict()
        b = ContinuousScheduler(
            make_sim(), kv_budget_tokens=budget
        ).run(requests).to_dict()
        assert a == b
