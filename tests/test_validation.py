"""Tests for the repro.validation subsystem.

The harness must (a) pass on genuine simulator output, (b) *fail* on
deliberately corrupted artifacts — a checker that cannot catch a seeded
bug proves nothing — and (c) drive a clean fuzzing campaign end to end,
including the CLI entry point.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import ClusterConfig, ClusterSimulator, build_cluster, make_router
from repro.core.engine import KlotskiSystem
from repro.errors import OutOfMemoryError
from repro.routing.workload import Workload
from repro.runtime.executor import Executor, ExecutorConfig
from repro.runtime.schedule import GPU, MemEffect, Schedule
from repro.runtime.timeline import Timeline
from repro.serving.requests import ArrivalConfig, generate_requests
from repro.validation import (
    FuzzConfig,
    FuzzReport,
    check_cluster,
    check_timeline,
    diff_timelines,
    run_differential,
    run_fuzz,
)
from tests.conftest import TINY_MOE, small_hardware
from tests.test_executor import make_hw


def small_schedule() -> Schedule:
    s = Schedule()
    w = s.transfer_in(2.0, "w", allocs=[MemEffect("vram", "w", 64)])
    a = s.compute(1.0, "a", deps=[w])
    s.compute(0.5, "b", deps=[a], frees=[MemEffect("vram", "w", 64)])
    s.transfer_out(0.25, "out", deps=[a])
    return s


def run_legacy(schedule, capacities=None) -> Timeline:
    executor = Executor(make_hw(), ExecutorConfig(engine="legacy"))
    return executor.run(schedule, capacities=capacities)


class TestTimelineInvariants:
    def test_clean_timeline_passes(self):
        s = small_schedule()
        for engine in ("legacy", "compiled"):
            t = Executor(make_hw(), ExecutorConfig(engine=engine)).run(s)
            assert check_timeline(s, t) == []

    def test_real_pipeline_passes(self, small_scenario):
        built = KlotskiSystem().build(small_scenario)
        timeline = Executor(small_scenario.hardware).run(built.schedule)
        assert check_timeline(built.schedule, timeline) == []

    def test_causality_violation_detected(self):
        s = small_schedule()
        t = run_legacy(s)
        # Pull op 1's start before its dependency's end.
        t.starts[1] = 0.5
        names = {v.invariant for v in check_timeline(s, t)}
        assert "causality" in names

    def test_resource_overlap_detected(self):
        s = Schedule()
        s.compute(2.0, "a")
        s.compute(2.0, "b")
        t = run_legacy(s)
        # Make op 1 start while op 0 still owns the GPU.
        t.starts[1], t.ends[1] = 1.0, 3.0
        names = {v.invariant for v in check_timeline(s, t)}
        assert "resource-exclusivity" in names

    def test_duration_mismatch_detected(self):
        s = small_schedule()
        t = run_legacy(s)
        t.ends[2] += 0.125
        names = {v.invariant for v in check_timeline(s, t)}
        assert "duration" in names

    def test_busy_time_and_makespan_mismatch_detected(self):
        s = small_schedule()
        t = run_legacy(s)
        t.busy_time[GPU] += 1.0
        t.makespan += 1.0
        names = {v.invariant for v in check_timeline(s, t)}
        assert {"busy-time", "makespan"} <= names

    def test_memory_peak_mismatch_detected(self):
        s = small_schedule()
        t = run_legacy(s)
        t.memory_peak["vram"] = 1
        names = {v.invariant for v in check_timeline(s, t)}
        assert "memory-peak" in names

    def test_negative_memory_level_detected(self):
        s = Schedule()
        s.compute(1.0, "a", frees=[MemEffect("vram", "ghost", 64)])
        t = Executor(make_hw(), ExecutorConfig(check_memory=False)).run(s)
        names = {v.invariant for v in check_timeline(s, t)}
        assert "memory-conservation" in names

    def test_capacity_overflow_detected_when_unchecked(self):
        s = Schedule()
        s.compute(1.0, "a", allocs=[MemEffect("vram", "big", 100)])
        t = Executor(make_hw(), ExecutorConfig(check_memory=False)).run(s)
        violations = check_timeline(s, t, capacities={"vram": 10})
        assert "capacity" in {v.invariant for v in violations}

    def test_op_count_mismatch_detected(self):
        s = small_schedule()
        t = run_legacy(s)
        t.starts, t.ends = t.starts[:-1], t.ends[:-1]
        assert "op-count" in {v.invariant for v in check_timeline(s, t)}


def tiny_cluster_run(scheduler: str = "group", count: int = 10, rate: float = 4.0):
    requests = generate_requests(
        ArrivalConfig(rate_per_s=rate, prompt_len_mean=16, gen_len=2, seed=9), count
    )
    replicas = build_cluster(
        TINY_MOE,
        [small_hardware(), small_hardware()],
        Workload(2, 2, prompt_len=16, gen_len=2),
        seed=1,
    )
    simulator = ClusterSimulator(
        replicas,
        make_router("least-outstanding"),
        ClusterConfig(slo_s=60.0, max_wait_s=2.0, scheduler=scheduler),
    )
    return simulator.run(requests), requests


def busy_continuous_run():
    """A continuous run whose queues build, so batches fill to capacity."""
    from repro.validation.invariants import _peak_overlap

    report, requests = tiny_cluster_run("continuous", count=40, rate=500.0)
    assert report.scheduler == "continuous"
    assert check_cluster(report, requests) == []
    stats = report.replicas[0]
    intervals = [
        (r.start_s, r.completion_s)
        for r in report.records
        if r.replica_id == stats.replica_id
    ]
    assert _peak_overlap(intervals)[0] == stats.batch_capacity
    return report, requests


class TestClusterInvariants:
    def test_clean_report_passes(self):
        report, requests = tiny_cluster_run()
        assert check_cluster(report, requests) == []

    def test_lost_request_detected(self):
        report, requests = tiny_cluster_run()
        report.records.pop()
        names = {v.invariant for v in check_cluster(report, requests)}
        assert "request-conservation" in names

    def test_double_dispatch_detected(self):
        report, requests = tiny_cluster_run()
        report.records.append(report.records[0])
        names = {v.invariant for v in check_cluster(report, requests)}
        assert "double-dispatch" in names

    def test_unknown_request_detected(self):
        report, requests = tiny_cluster_run()
        names = {v.invariant for v in check_cluster(report, requests[:-1])}
        assert "request-conservation" in names

    def test_makespan_regression_detected(self):
        report, requests = tiny_cluster_run()
        report.makespan_s = 0.001
        names = {v.invariant for v in check_cluster(report, requests)}
        assert "accounting" in names

    def test_overlapping_groups_detected(self):
        import dataclasses

        report, requests = tiny_cluster_run()
        # Shift one group's interval into the middle of another group on
        # the same replica.
        by_replica = {}
        for i, record in enumerate(report.records):
            by_replica.setdefault(record.replica_id, []).append(i)
        victim = next(ids for ids in by_replica.values() if len(ids) >= 2)
        a, b = report.records[victim[0]], report.records[victim[-1]]
        if (a.start_s, a.completion_s) == (b.start_s, b.completion_s):
            pytest.skip("need two distinct groups on one replica")
        mid = (a.start_s + a.completion_s) / 2
        report.records[victim[-1]] = dataclasses.replace(
            b, start_s=mid, completion_s=mid + (b.completion_s - b.start_s)
        )
        names = {v.invariant for v in check_cluster(report, requests)}
        assert "replica-serialization" in names

    def test_double_booked_identical_intervals_detected(self):
        import dataclasses

        report, requests = tiny_cluster_run()
        # Collapse every record on one replica onto a single interval while
        # the replica's stats still report multiple executed groups: the
        # set-of-intervals view alone would dedupe this to "one group".
        stats = next(s for s in report.replicas if s.groups >= 2)
        target = [
            i for i, r in enumerate(report.records) if r.replica_id == stats.replica_id
        ]
        first = report.records[target[0]]
        for i in target[1:]:
            report.records[i] = dataclasses.replace(
                report.records[i],
                start_s=first.start_s,
                completion_s=first.completion_s,
            )
        names = {v.invariant for v in check_cluster(report, requests)}
        assert "replica-serialization" in names


    def test_peak_overlap_is_half_open(self):
        from repro.validation.invariants import _peak_overlap

        assert _peak_overlap([(0.0, 1.0), (1.0, 2.0)]) == (1, 0.0)
        assert _peak_overlap([(0.0, 2.0), (1.0, 3.0), (1.5, 1.75)]) == (3, 1.5)
        assert _peak_overlap([]) == (0, 0.0)

    def test_continuous_batch_over_capacity_detected(self):
        import dataclasses

        report, requests = busy_continuous_run()
        # Stretch every completion on one replica to its last one: all
        # of its intervals then overlap at the latest start.
        stats = report.replicas[0]
        target = [
            i for i, r in enumerate(report.records)
            if r.replica_id == stats.replica_id and r.outcome == "completed"
        ]
        assert len(target) > stats.batch_capacity
        last = max(report.records[i].completion_s for i in target)
        for i in target:
            report.records[i] = dataclasses.replace(
                report.records[i], completion_s=last
            )
        report.invalidate_metrics()
        names = {v.invariant for v in check_cluster(report, requests)}
        assert "batch-capacity" in names

    def test_request_completed_on_two_replicas_detected(self):
        import dataclasses

        report, requests = busy_continuous_run()
        record = report.records[0]
        other = next(
            s.replica_id for s in report.replicas
            if s.replica_id != record.replica_id
        )
        report.records.append(dataclasses.replace(record, replica_id=other))
        names = {v.invariant for v in check_cluster(report, requests)}
        assert "replica-exclusivity" in names


class TestDifferential:
    def test_engines_agree_on_pipeline(self, small_scenario):
        built = KlotskiSystem().build(small_scenario)
        result = run_differential(built.schedule, small_scenario.hardware)
        assert result.ok and not result.oom
        assert result.timeline is not None and result.reference is not None

    def test_consistent_oom_is_ok(self):
        s = Schedule()
        s.compute(1.0, "a", allocs=[MemEffect("vram", "big", 1 << 40)])
        result = run_differential(s, make_hw(), capacities={"vram": 1 << 20})
        assert result.oom and result.ok

    def test_diff_detects_divergence(self):
        s = small_schedule()
        a, b = run_legacy(s), run_legacy(s)
        b.starts[1] += 0.5
        b.ends[1] += 0.5
        diffs = diff_timelines(a, b)
        assert diffs and "op 1" in diffs[0]

    def test_diff_detects_makespan_and_busy(self):
        s = small_schedule()
        a, b = run_legacy(s), run_legacy(s)
        b.makespan += 1.0
        b.busy_time[GPU] += 1.0
        diffs = "\n".join(diff_timelines(a, b))
        assert "makespan" in diffs and "busy[gpu]" in diffs

    def test_single_engine_oom_reported(self, monkeypatch):
        s = Schedule()
        s.compute(1.0, "a", allocs=[MemEffect("vram", "big", 1 << 30)])

        real = Executor._replay_memory_compiled

        def no_oom(self, *args, **kwargs):
            try:
                return real(self, *args, **kwargs)
            except OutOfMemoryError:
                return {}, {}

        monkeypatch.setattr(Executor, "_replay_memory_compiled", no_oom)
        result = run_differential(s, make_hw(), capacities={"vram": 1})
        assert not result.ok
        assert "only the legacy engine raised OOM" in result.diffs[0]


class TestFuzz:
    def test_campaign_is_clean_and_deterministic(self):
        report = run_fuzz(FuzzConfig(cases=12, seed=2026, engine="both"))
        assert report.ok, report.summary()
        assert report.cases == 12
        assert report.pipeline_cases + report.cluster_cases == 12
        again = run_fuzz(FuzzConfig(cases=12, seed=2026, engine="both"))
        assert report.to_dict() == again.to_dict()

    def test_single_engine_modes(self):
        for engine in ("compiled", "legacy"):
            report = run_fuzz(FuzzConfig(cases=6, seed=5, engine=engine))
            assert report.ok, report.summary()

    def test_chaos_campaign_is_clean_and_deterministic(self):
        report = run_fuzz(FuzzConfig(cases=4, seed=11, chaos=True))
        assert report.ok, report.summary()
        assert report.cluster_cases == 4 and report.pipeline_cases == 0
        again = run_fuzz(FuzzConfig(cases=4, seed=11, chaos=True))
        assert report.to_dict() == again.to_dict()

    def test_cluster_sampler_reaches_both_residency_paths(self):
        """Fleets derive their slots from placement (0) or pin
        1..num_experts, so the serial-vs-batched differential covers both."""
        from repro.validation.fuzz import random_cluster_run_config

        explicit = set()
        for seed in range(40):
            config = random_cluster_run_config(np.random.default_rng(seed), seed)
            slots = config.cluster.expert_slots_per_replica
            assert 0 <= slots <= config.scenario.model["num_experts"]
            explicit.add(slots > 0)
        assert explicit == {False, True}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(cases=-1)
        with pytest.raises(ValueError):
            FuzzConfig(engine="warp")
        with pytest.raises(ValueError):
            FuzzConfig(cluster_every=0)

    def test_cases_run_from_their_replay_blob(self, monkeypatch):
        """A sample whose blob does not parse, or parses to another
        config, is a case failure carrying the sampled blob."""
        import dataclasses

        import repro.validation.fuzz as fuzz
        from repro.api import RunConfig, SystemConfig

        unparsable = RunConfig(system=SystemConfig("klotski", {"quantize": "no"}))
        monkeypatch.setattr(fuzz, "random_run_config", lambda rng: unparsable)
        report = FuzzReport()
        fuzz.run_pipeline_case(0, "both", report)
        assert report.pipeline_cases == 1
        assert len(report.violations) == 1
        assert "replay blob does not parse" in report.violations[0]
        assert "system.options.quantize: expected bool" in report.violations[0]
        assert report.failures[0]["config"] == unparsable.to_dict()

        sampled = fuzz.random_cluster_run_config(np.random.default_rng(0), 0)
        drifting = dataclasses.replace(  # a list where the schema says tuple
            sampled,
            cluster=dataclasses.replace(
                sampled.cluster, envs=list(sampled.cluster.envs)
            ),
        )
        monkeypatch.setattr(
            fuzz, "random_cluster_run_config", lambda rng, seed, chaos: drifting
        )
        report = FuzzReport()
        fuzz.run_cluster_case(0, report)
        assert report.cluster_cases == 1
        assert report.violations == [
            f"{report.failures[0]['tag']}: replay blob parses to a different config"
        ]

    def test_every_registered_system_is_drawn_or_golden(self):
        """A registered system the sampler cannot draw and no golden
        names is a path nothing pins: fail until one of them covers it."""
        from repro.api import system_names

        drawn = _drawn_system_names()
        assert set(system_names()) <= drawn
        assert _unpinned_systems(drawn) == []

    def test_registry_coverage_flags_what_nothing_pins(self, monkeypatch):
        """The coverage check above fails for a registered system that is
        neither drawn nor golden, and accepts one a golden names."""
        import repro.validation.fuzz as fuzz
        from repro.api.registry import SYSTEMS

        built_in = fuzz.system_choices()
        monkeypatch.setitem(SYSTEMS._entries, "unpinned", KlotskiSystem)
        # Drawing from the registry reaches a newly registered system.
        assert "unpinned" in _drawn_system_names()
        # A sampler fixed to the built-in choices, minus one with goldens,
        # leaves only the new system unpinned.
        monkeypatch.setattr(
            fuzz, "system_choices", lambda: tuple(c for c in built_in if c.name != "sida")
        )
        drawn = _drawn_system_names()
        assert "sida" not in drawn
        assert _unpinned_systems(drawn) == ["unpinned"]

    def test_every_registered_pass_is_drawn_in_any_order(self):
        """``validate --passes`` queues are subsets and orders of the
        ``PASSES`` registry: every pass and every order of the full
        registry is reached, including bubble filling before coalescing
        (merged groups over a permuted schedule)."""
        from repro.api import pass_names

        queues = _drawn_pass_queues()
        assert {name for queue in queues for name in queue} == set(pass_names())
        assert all(queue and len(set(queue)) == len(queue) for queue in queues)
        full = {queue for queue in queues if len(queue) == len(pass_names())}
        assert len(full) == math.factorial(len(pass_names()))
        assert any(
            "fill-bubbles" in q and "coalesce-transfers" in q
            and q.index("fill-bubbles") < q.index("coalesce-transfers")
            for q in queues
        )

    def test_pass_coverage_reaches_a_newly_registered_pass(self, monkeypatch):
        from repro.api.registry import PASSES
        from repro.passes.library import FillBubblesPass

        monkeypatch.setitem(PASSES._entries, "unpinned", FillBubblesPass)
        assert "unpinned" in {name for q in _drawn_pass_queues() for name in q}

    def test_report_summary_lists_failures(self):
        report = FuzzReport(cases=1, violations=["boom"], diffs=["drift"])
        text = report.summary()
        assert not report.ok
        assert "VIOLATION boom" in text and "DIFF drift" in text


def _drawn_system_names() -> set[str]:
    """System names 400 fuzz draws reach."""
    from repro.validation.fuzz import random_system_config

    rng = np.random.default_rng(0)
    return {random_system_config(rng).name for _ in range(400)}


def _drawn_pass_queues() -> set[tuple[str, ...]]:
    """Pass queues 400 fuzz draws reach."""
    from repro.validation.fuzz import random_pass_queue

    rng = np.random.default_rng(0)
    return {random_pass_queue(rng) for _ in range(400)}


def _unpinned_systems(drawn: set[str]) -> list[str]:
    """Registered systems neither in ``drawn`` nor named by a small
    pipeline golden."""
    from pathlib import Path

    from repro.api import system_names

    goldens = Path(__file__).parent / "goldens"
    return [
        name
        for name in system_names()
        if name not in drawn
        and not (
            goldens / f"pipeline-{name.replace('(q)', '-quantized')}-small.schedule.json"
        ).exists()
    ]


class TestValidateCLI:
    def test_validate_ok(self, capsys):
        assert main(["validate", "--fuzz", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "zero invariant violations" in out

    def test_validate_json(self, capsys):
        assert main(["validate", "--fuzz", "4", "--seed", "3", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["command"] == "validate"
        assert envelope["schema_version"] == 1
        payload = envelope["result"]
        assert payload["ok"] is True
        assert payload["cases"] == 4
        assert payload["failures"] == []

    def test_validate_chaos_cli(self, capsys):
        assert main(["validate", "--chaos", "3", "--seed", "5", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        payload = envelope["result"]
        assert payload["ok"] is True
        assert payload["cluster_cases"] == 3
        assert payload["pipeline_cases"] == 0

    def test_failure_payload_carries_replayable_config(self):
        """Every recorded failure embeds a from_dict-able config blob."""
        from repro.api import RunConfig

        report = FuzzReport(seed=7)
        config = RunConfig()
        report.record(
            "pipeline case 0", config, violations=["boom"], engine="both"
        )
        assert not report.ok
        blob = report.to_dict()["failures"][0]
        assert blob["violations"] == ["boom"]
        assert blob["engine"] == "both"
        assert RunConfig.from_dict(blob["config"]) == config
        # The blob survives a JSON round trip (it is what --json prints).
        assert json.loads(json.dumps(blob))["config"] == config.to_dict()

    def test_validate_single_engine(self, capsys):
        assert main(["validate", "--fuzz", "4", "--engine", "legacy"]) == 0


def test_fuzz_draws_klotski_prefetcher_knobs():
    """Klotski cases reach every path length and prefetch width."""
    from repro.validation.fuzz import random_run_config

    drawn = set()
    for seed in range(300):
        config = random_run_config(np.random.default_rng(seed))
        if config.system.name.startswith("klotski"):
            options = config.system.options
            experts = config.scenario.model["num_experts"]
            assert 1 <= options["prefetch_k"] <= experts
            drawn.add((options["path_length"], options["prefetch_k"] > 1))
    assert drawn == {(p, wide) for p in (1, 2, 3) for wide in (False, True)}


def test_fuzz_prefetcher_knobs_are_the_last_draws(monkeypatch):
    """Adding the knobs left every earlier draw of a case unchanged."""
    from repro.validation import fuzz

    with_knobs = [fuzz.random_run_config(np.random.default_rng(s)) for s in range(60)]
    monkeypatch.setattr(fuzz, "random_prefetcher_options", lambda rng, system, e: system)
    without = [fuzz.random_run_config(np.random.default_rng(s)) for s in range(60)]
    for a, b in zip(with_knobs, without):
        assert a.scenario == b.scenario
        assert a.system.name == b.system.name
        extra = {k: v for k, v in a.system.options.items() if k not in b.system.options}
        assert set(extra) <= {"path_length", "prefetch_k"}
        assert {k: a.system.options[k] for k in b.system.options} == b.system.options


def test_fuzz_reaches_disk_reads_and_cpu_experts():
    """The pipeline cases of ``--seed 0`` build schedules that read a
    spilled weight from disk and that run a Fiddler expert on the CPU,
    so the fuzzer reaches both builder branches."""
    from repro.api import build_scenario, build_system
    from repro.errors import ReproError
    from repro.runtime.schedule import CPU, DISK_IO, RESOURCE_CODES
    from repro.validation.fuzz import random_run_config

    wanted = {RESOURCE_CODES[DISK_IO], RESOURCE_CODES[CPU]}
    reached = set()
    for i in range(100):
        if (i + 1) % FuzzConfig().cluster_every == 0:
            continue
        case_seed = int(np.random.default_rng([0, i]).integers(0, 2**63))
        config = random_run_config(np.random.default_rng(case_seed))
        try:
            built = build_system(config.system).build(build_scenario(config.scenario))
        except (ReproError, ValueError):
            continue
        reached |= wanted.intersection(built.schedule._res)
        if reached == wanted:
            break
    assert reached == wanted
