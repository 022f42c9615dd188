"""Golden-trace regression tests (content-addressed snapshots).

Each case builds one deterministic simulation artifact, invariant-checks
it, summarizes it with :mod:`repro.validation.goldens`, and compares the
content digest against the snapshot committed under ``tests/goldens/``.
A digest move means simulation output changed; if the change is
intentional, refresh with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import RunConfig, run_cluster
from repro.api.run import build_requests
from repro.baselines import (
    AccelerateSystem,
    FastGenSystem,
    FiddlerSystem,
    FlexGenSystem,
    MixtralOffloadingSystem,
    MoEInfinitySystem,
    SiDASystem,
)
from repro.cluster import ClusterConfig, ClusterSimulator, build_cluster, make_router
from repro.cluster.faults import FaultConfig, RetryPolicy
from repro.compression import SparseAttentionConfig
from repro.core.engine import KlotskiOptions, KlotskiSystem
from repro.core.pipeline import PipelineBuilder, PipelineFeatures
from repro.core.placement import PlacementConfig, PlacementPlan, plan_placement
from repro.core.prefetcher import ExpertPrefetcher
from repro.passes import DEFAULT_PASS_QUEUE, PassPipeline
from repro.runtime.executor import Executor
from repro.runtime.schedule import Schedule
from repro.scenario import Scenario
from repro.serving.requests import ArrivalConfig, assign_hot_experts, generate_requests
from repro.serving.scheduler import ContinuousScheduler
from repro.validation import (
    GoldenStore,
    check_cluster,
    check_timeline,
    snapshot_cluster,
    snapshot_fleet,
    snapshot_rows,
    snapshot_schedule,
    snapshot_timeline,
)
from repro.routing.workload import Workload
from tests.conftest import SMALL_MIXTRAL, TINY_DENSE, small_hardware


def _scenario(seed: int = 3) -> Scenario:
    return Scenario(
        SMALL_MIXTRAL,
        small_hardware(),
        Workload(batch_size=4, num_batches=3, prompt_len=32, gen_len=4),
        seed=seed,
    )


def _pipeline_snapshots(system) -> dict:
    scenario = _scenario()
    built = system.build(scenario)
    timeline = Executor(scenario.hardware).run(built.schedule)
    violations = check_timeline(built.schedule, timeline)
    assert not violations, "\n".join(map(str, violations))
    return {
        "schedule": snapshot_schedule(built.schedule),
        "timeline": snapshot_timeline(built.schedule, timeline),
        "rows": snapshot_rows(built.schedule),
    }


def _passes_snapshots() -> dict:
    """Klotski plus the default pass queue: pins the optimized schedule
    and its timeline (what ``klotski+passes`` executes)."""
    scenario = _scenario()
    built = KlotskiSystem().build(scenario)
    result = PassPipeline(DEFAULT_PASS_QUEUE).run(built.schedule, scenario.hardware)
    assert result.accepted, "no pass accepted: the case no longer pins a rewrite"
    violations = check_timeline(result.schedule, result.timeline)
    assert not violations, "\n".join(map(str, violations))
    return {
        "schedule": snapshot_schedule(result.schedule),
        "timeline": snapshot_timeline(result.schedule, result.timeline),
        "rows": snapshot_rows(result.schedule),
    }


# Feature sets every edge-shape golden builds in turn: full Klotski with a
# prefetcher, Klotski without one (static top-k prefetch), synchronous
# whole-layer loading in batch-major order, and CPU experts.
EDGE_FEATURES = (
    (PipelineFeatures(), True),
    (PipelineFeatures(quantize=True), False),
    (PipelineFeatures(overlap=False, hot_prefetch=False, adjust_order=False), False),
    (PipelineFeatures(hot_prefetch=False, adjust_order=False, cpu_experts=True), False),
)


def _edge_rows(
    scenario: Scenario,
    placement: PlacementPlan,
    *,
    sparse_attention: SparseAttentionConfig | None = None,
) -> dict:
    """Builder shapes no registered system reaches on the small scenario.

    Every feature set of :data:`EDGE_FEATURES` appends its build to one
    schedule (as sequential systems share theirs), and the rows golden
    pins labels, dependencies and the raw effect stream of all of them.
    """
    model = scenario.model
    schedule = Schedule()
    for features, learned in EDGE_FEATURES:
        prefetcher = (
            ExpertPrefetcher(model.num_layers, model.num_experts, top_k=model.top_k)
            if learned and not model.is_dense
            else None
        )
        PipelineBuilder(
            cost_model=scenario.cost_model(),
            inventory=scenario.inventory(),
            oracle=scenario.make_oracle(),
            workload=scenario.workload,
            placement=placement,
            prefetcher=prefetcher,
            features=features,
            sparse_attention=sparse_attention,
        ).build(schedule)
    schedule.validate()
    return {"rows": snapshot_rows(schedule)}


def _fixed_placement(scenario: Scenario, level_of, kv_level: str) -> PlacementPlan:
    return PlacementPlan(
        location={spec.tensor_id: level_of(spec) for spec in scenario.inventory()},
        kv_level=kv_level,
        pinned=False,
        working_reserve_bytes=0,
        activation_reserve_bytes=1 << 20,
        resident_bytes=1 << 24,
    )


def _disk_level(spec) -> str:
    """Experts of even layers and layer 1's attention on disk; two experts
    of layer 3 resident; the rest in DRAM."""
    if spec.kind == "expert" and spec.layer % 2 == 0:
        return "disk"
    if spec.kind == "attn" and spec.layer == 1:
        return "disk"
    if spec.kind == "expert" and spec.layer == 3 and spec.expert < 2:
        return "vram"
    return "dram"


def _planned(scenario: Scenario, **overrides) -> PlacementPlan:
    wl = scenario.workload
    placement = plan_placement(
        scenario.inventory(), scenario.hardware, wl, wl.num_batches,
        PlacementConfig(use_spare_vram=False),
    )
    return dataclasses.replace(placement, **overrides)


def _dense_scenario() -> Scenario:
    return Scenario(
        TINY_DENSE, small_hardware(), Workload(4, 3, 16, 3), seed=3
    )


def _cluster_snapshot() -> dict:
    model = SMALL_MIXTRAL
    requests = assign_hot_experts(
        generate_requests(
            ArrivalConfig(rate_per_s=2.0, prompt_len_mean=32, gen_len=4, seed=5),
            12,
        ),
        model.num_experts,
        skew=1.2,
        seed=5,
    )
    replicas = build_cluster(
        model,
        [small_hardware(), small_hardware()],
        Workload(2, 2, prompt_len=32, gen_len=4),
        seed=3,
    )
    simulator = ClusterSimulator(
        replicas,
        make_router("expert-affinity"),
        ClusterConfig(slo_s=120.0, max_wait_s=5.0),
    )
    report = simulator.run(requests)
    violations = check_cluster(report, requests)
    assert not violations, "\n".join(map(str, violations))
    return {"cluster": snapshot_cluster(report)}


def _fleet_snapshot(
    *, router: str, arrival: str, replicas: int, requests: int
) -> dict:
    """Fleet-scale serving golden: thousands of requests, batched engine.

    The batched engine carries the golden on purpose — the differential
    suite proves it bit-identical to the serial loop, so these pin the
    canonical output at a scale the serial goldens cannot afford, and a
    digest move in either place implicates simulation semantics, not a
    particular engine.
    """
    config = RunConfig.from_dict(
        {
            "scenario": {
                "model": "mixtral-8x7b", "env": "env1", "batch_size": 8,
                "prompt_len": 64, "gen_len": 8, "seed": 11,
            },
            "system": {"name": "klotski", "options": {}},
            "cluster": {
                "replicas": replicas, "envs": ["env1", "env2"],
                "router": router, "group_batches": 2, "max_wait_s": 2.0,
                "slo_s": 60.0, "engine": "batched",
            },
            "serve": {
                "arrival": arrival, "requests": requests, "rate_per_s": 500.0,
            },
        }
    )
    report = run_cluster(config, shared_cache={})
    return {"fleet": snapshot_fleet(report, stride=997)}


TENANTS = ("interactive", "standard", "batch")


def _tenants(requests: list) -> list:
    """Cycle SLO classes by request id so per-class admission is exercised."""
    return [
        dataclasses.replace(r, slo_class=TENANTS[r.request_id % len(TENANTS)])
        for r in requests
    ]


# Every fault kind the presets leave at zero in one inline config: a late
# join, a drain, transient failures that trip breakers, depth and slack
# shedding, crashes, and a retry budget small enough to run out.
MIXED_FAULTS = {
    "seed": 7, "crash_rate_per_hour": 30.0, "crash_downtime_s": 10.0,
    "transient_failure_prob": 0.15, "breaker_threshold": 2,
    "breaker_cooldown_s": 5.0, "joins": [[20.0, 3]], "drains": [[60.0, 1]],
    "shed_queue_depth": 24, "shed_slack_s": 60.0,
}
MIXED_RETRY = {"max_attempts": 3, "retry_budget": 120}


def _scheduled_fleet_snapshot(
    *, scheduler: str, faults: str | dict, retry: dict | None = None
) -> dict:
    """Mid-size fleet under a dispatch discipline and fault model.

    Pins the paths the fleet goldens above never reach: the continuous
    scheduler (with and without faults) and the faulted group loop. The
    full report — record order, counters, availability, per-class
    targets — is hashed, and the fleet view inlines sampled records.
    """
    config = RunConfig.from_dict(
        {
            "scenario": {
                "model": "mixtral-8x7b", "env": "env1", "batch_size": 8,
                "prompt_len": 64, "gen_len": 8, "seed": 13,
            },
            "system": {"name": "klotski", "options": {}},
            "cluster": {
                "replicas": 4, "envs": ["env1", "env2"],
                "router": "least-outstanding", "group_batches": 2,
                "max_wait_s": 2.0, "slo_s": 60.0, "scheduler": scheduler,
                "faults": faults, "retry": retry or {},
            },
            "serve": {"arrival": "bursty", "requests": 2_000, "rate_per_s": 12.0},
        }
    )
    requests = _tenants(build_requests(config))
    report = run_cluster(config, shared_cache={}, requests=requests)
    violations = check_cluster(report, requests)
    assert not violations, "\n".join(map(str, violations))
    if faults == MIXED_FAULTS:
        counters = report.counters
        for name in ("joins", "drains", "breaker_trips", "shed_requests"):
            assert counters[name] > 0, f"the mixed config no longer pins {name}"
        assert counters["retries_scheduled"] == MIXED_RETRY["retry_budget"]
        assert counters["failed_requests"] > 0
    return {
        "cluster": snapshot_cluster(report),
        "fleet": snapshot_fleet(report, stride=97),
    }


def _preemption_snapshot(*, faults: FaultConfig | None) -> dict:
    """Small KV budget: preemption-heavy, one sink+window streaming replica.

    The explicit ``kv_budget_tokens`` forces preemption (front
    reinsertion into the class queues) on every dense replica; replica 2
    streams with sink+window retention, so its footprints saturate. With
    ``faults`` the same run also crashes, drains, and retries, pinning
    the merged-queue order crash and drain requeue from.
    """
    model = SMALL_MIXTRAL
    requests = _tenants(
        assign_hot_experts(
            generate_requests(
                ArrivalConfig(rate_per_s=400.0, prompt_len_mean=32, gen_len=8, seed=9),
                240,
            ),
            model.num_experts,
            skew=1.2,
            seed=9,
        )
    )
    streaming = KlotskiOptions(
        sparse_attention=SparseAttentionConfig(enabled=True, sinks=4, window=40)
    )
    replicas = build_cluster(
        model,
        [small_hardware()] * 3,
        Workload(4, 2, prompt_len=32, gen_len=8),
        system_factory=[
            KlotskiSystem,
            KlotskiSystem,
            lambda: KlotskiSystem(streaming),
        ],
        seed=3,
        shared_cache={},
    )
    simulator = ClusterSimulator(
        replicas,
        make_router("least-outstanding"),
        ClusterConfig(slo_s=60.0, max_wait_s=5.0, scheduler="continuous"),
        faults=faults,
        retry=RetryPolicy(max_attempts=4) if faults is not None else None,
    )
    report = ContinuousScheduler(simulator, kv_budget_tokens=150).run(requests)
    violations = check_cluster(report, requests)
    assert not violations, "\n".join(map(str, violations))
    assert report.counters["preemptions"] > 0
    if faults is not None:
        assert report.counters["crashes"] > 0
        assert report.counters["drains"] > 0
    return {"cluster": snapshot_cluster(report)}


GOLDEN_CASES = {
    "pipeline-klotski-small": lambda: _pipeline_snapshots(KlotskiSystem()),
    "pipeline-klotski-quantized-small": lambda: _pipeline_snapshots(
        KlotskiSystem(KlotskiOptions(quantize=True))
    ),
    "pipeline-flexgen-small": lambda: _pipeline_snapshots(FlexGenSystem()),
    "pipeline-klotski-passes-small": _passes_snapshots,
    # Sequential baselines: one batch at a time through the shared builder.
    "pipeline-accelerate-small": lambda: _pipeline_snapshots(AccelerateSystem()),
    "pipeline-fastgen-small": lambda: _pipeline_snapshots(FastGenSystem()),
    "pipeline-moe-infinity-small": lambda: _pipeline_snapshots(MoEInfinitySystem()),
    "pipeline-fiddler-small": lambda: _pipeline_snapshots(FiddlerSystem()),
    "pipeline-mixtral-offloading-small": lambda: _pipeline_snapshots(
        MixtralOffloadingSystem()
    ),
    # Fresh prefetcher per batch (offline predictor bound to each batch).
    "pipeline-sida-small": lambda: _pipeline_snapshots(SiDASystem()),
    # Builder edge shapes (rows goldens only).
    "pipeline-disk-small": lambda: _edge_rows(
        _scenario(), _fixed_placement(_scenario(), _disk_level, "dram")
    ),
    "pipeline-dense-small": lambda: _edge_rows(
        _dense_scenario(), _planned(_dense_scenario())
    ),
    "pipeline-kv-dram-small": lambda: _edge_rows(
        _scenario(), _planned(_scenario(), kv_level="dram")
    ),
    "pipeline-sparse-attention-small": lambda: _edge_rows(
        _scenario(),
        _planned(_scenario(), kv_level="vram"),
        sparse_attention=SparseAttentionConfig(enabled=True, sinks=4, window=16),
    ),
    "pipeline-all-resident-small": lambda: _edge_rows(
        _scenario(), _fixed_placement(_scenario(), lambda spec: "vram", "vram")
    ),
    "cluster-affinity-2replica": _cluster_snapshot,
    "fleet-roundrobin-poisson-16replica": lambda: _fleet_snapshot(
        router="round-robin", arrival="poisson", replicas=16, requests=20_000
    ),
    "fleet-affinity-bursty-8replica": lambda: _fleet_snapshot(
        router="expert-affinity", arrival="bursty", replicas=8, requests=20_000
    ),
    "fleet-continuous-4replica": lambda: _scheduled_fleet_snapshot(
        scheduler="continuous", faults=""
    ),
    "fleet-continuous-chaos-4replica": lambda: _scheduled_fleet_snapshot(
        scheduler="continuous", faults="chaos"
    ),
    "fleet-group-chaos-4replica": lambda: _scheduled_fleet_snapshot(
        scheduler="group", faults="chaos"
    ),
    "fleet-group-faults-mixed-4replica": lambda: _scheduled_fleet_snapshot(
        scheduler="group", faults=MIXED_FAULTS, retry=MIXED_RETRY
    ),
    "fleet-continuous-faults-mixed-4replica": lambda: _scheduled_fleet_snapshot(
        scheduler="continuous", faults=MIXED_FAULTS, retry=MIXED_RETRY
    ),
    "continuous-preempt-streaming-3replica": lambda: _preemption_snapshot(
        faults=None
    ),
    "continuous-preempt-crash-drain-3replica": lambda: _preemption_snapshot(
        faults=FaultConfig(
            seed=4,
            crash_rate_per_hour=300.0,
            crash_downtime_s=1.0,
            transient_failure_prob=0.1,
            drains=((6.0, 1),),
        )
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name, update_goldens):
    snapshots = GOLDEN_CASES[name]()
    store = GoldenStore()
    mismatches = []
    for part, snapshot in snapshots.items():
        golden_name = f"{name}.{part}"
        if update_goldens:
            store.save(golden_name, snapshot)
        else:
            mismatches.extend(store.compare(golden_name, snapshot))
    assert not mismatches, (
        "\n".join(mismatches)
        + "\nIf this change is intentional, refresh with: "
        "PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens"
    )


def test_store_reports_missing_golden(tmp_path):
    store = GoldenStore(tmp_path)
    assert store.compare("nope", {"digest": "x"}) != []


def test_store_round_trip_and_diff(tmp_path):
    store = GoldenStore(tmp_path)
    snapshot = {"kind": "timeline", "num_ops": 3, "digest": "abc"}
    store.save("case", snapshot)
    assert store.load("case") == snapshot
    assert store.compare("case", snapshot) == []
    changed = {"kind": "timeline", "num_ops": 4, "digest": "def"}
    diff = store.compare("case", changed)
    assert any("num_ops" in line for line in diff)
