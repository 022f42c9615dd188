"""The ``repro.obs`` observability layer: tracer, exporters, manifest.

Pins the subsystem's three contracts: (1) a *disabled* tracer is a true
no-op — ``span()`` hands back one shared singleton and allocates nothing
on the fast path; (2) recorded spans merge deterministically across
``experiments.Runner`` workers, so a parallel run and a serial run agree
on counters and on the merged span-name stream; (3) the export side —
Chrome-trace documents pass the schema validator and every CLI ``--json``
envelope carries a stable ``manifest`` block.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro import obs
from repro.obs import MANIFEST_KEYS, build_manifest, tracer
from repro.obs.export import (
    SELF_PID,
    SIMULATED_PID,
    chrome_trace,
    save_trace,
)
from repro.obs.tracecheck import check_file, validate_chrome_trace
from repro.obs.tracer import DEPTH, END, NAME, START, WORKER, _NULL_SPAN


@pytest.fixture(autouse=True)
def _tracer_hygiene():
    """Every test starts and ends with a quiet, disabled tracer."""
    obs.disable()
    obs.reset_counters()
    tracer._spans.clear()
    yield
    obs.disable()
    obs.reset_counters()
    tracer._spans.clear()


class TestDisabledNoOp:
    def test_span_returns_shared_singleton(self):
        assert obs.span("a") is _NULL_SPAN
        assert obs.span("b", {"k": 1}) is obs.span("c")

    def test_disabled_span_records_nothing(self):
        with obs.span("invisible"):
            pass
        assert obs.spans_snapshot() == []

    def test_disabled_span_fast_path_does_not_allocate(self):
        # The whole point of the singleton: an instrumented hot loop must
        # not create garbage when tracing is off. Warm the line first so
        # no lazy interning counts against it, then watch allocations.
        for _ in range(3):
            with obs.span("warm"):
                pass
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(1000):
            with obs.span("hot"):
                pass
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        leaked = sum(
            s.size_diff for s in after.compare_to(before, "lineno")
            if s.size_diff > 0
        )
        # tracemalloc's own bookkeeping shows up as a few small blocks;
        # 1000 allocating iterations would be tens of kilobytes.
        assert leaked < 2048

    def test_counters_count_even_while_disabled(self):
        obs.count("always.on")
        obs.count("always.on", 2)
        assert obs.counters_snapshot() == {"always.on": 3}

    def test_gauges_last_write_wins(self):
        obs.gauge("g", 1.0)
        obs.gauge("g", 7.5)
        assert obs.gauges_snapshot() == {"g": 7.5}


class TestSpanRecording:
    def test_nesting_depths_and_preorder(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner", {"k": 1}):
                pass
            with obs.span("sibling"):
                pass
        spans = obs.spans_snapshot()
        assert [(r[NAME], r[DEPTH]) for r in spans] == [
            ("outer", 0), ("inner", 1), ("sibling", 1),
        ]
        outer, inner, sibling = spans
        assert outer[START] <= inner[START] <= inner[END] <= outer[END]
        assert inner[END] <= sibling[START]

    def test_depth_restored_when_body_raises(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        with obs.span("after"):
            pass
        assert obs.spans_snapshot()[-1][DEPTH] == 0

    def test_enable_reset_clears_previous_recording(self):
        obs.enable()
        with obs.span("old"):
            pass
        obs.enable()  # reset=True default
        assert obs.spans_snapshot() == []

    def test_aggregate_self_time_excludes_children(self):
        obs.enable()
        with obs.span("parent"):
            with obs.span("child"):
                pass
        rows = {r["name"]: r for r in tracer.aggregate_spans()}
        parent, child = rows["parent"], rows["child"]
        assert parent["calls"] == child["calls"] == 1
        assert parent["self_s"] == pytest.approx(
            parent["total_s"] - child["total_s"]
        )

    def test_format_helpers_render(self):
        obs.enable()
        with obs.span("outer", {"k": 1}):
            with obs.span("inner"):
                pass
        tree = tracer.format_span_tree()
        assert "outer" in tree and "  inner" in tree and "k=1" in tree
        top = tracer.format_top(k=5)
        assert top.splitlines()[0].split()[0] == "span"
        assert "outer" in top


class TestCollectMerge:
    def test_collect_clears_and_merge_retags_worker(self):
        obs.enable()
        with obs.span("work"):
            pass
        obs.count("c", 2)
        payload = obs.collect()
        assert obs.spans_snapshot() == [] and obs.counters_snapshot() == {}
        json.dumps(payload)  # must be JSON-safe for the pool pipe
        obs.merge(payload, worker=3)
        obs.merge(payload, worker=4)
        assert [r[WORKER] for r in obs.spans_snapshot()] == [3, 4]
        assert obs.counters_snapshot() == {"c": 4}

    def _run_probe_grid(self, tmp_path, jobs: int, tag: str):
        from repro.experiments.runner import Runner
        from repro.experiments.spec import ExperimentSpec

        spec = ExperimentSpec(
            name="obs-probe",
            title="obs merge determinism",
            runner="probe",
            axes=(("value", (1, 2, 3, 4)),),
        )
        from repro.experiments.cache import ArtifactStore

        obs.reset_counters()
        obs.enable()
        Runner(ArtifactStore(tmp_path / tag), jobs=jobs).run(spec)
        obs.disable()
        return obs.counters_snapshot(), [
            (r[NAME], r[WORKER]) for r in obs.spans_snapshot()
        ]

    def test_parallel_run_matches_serial_counters(self, tmp_path):
        serial_counters, _ = self._run_probe_grid(tmp_path, 1, "serial")
        parallel_counters, _ = self._run_probe_grid(tmp_path, 2, "parallel")
        assert serial_counters == parallel_counters
        assert serial_counters["experiments.cells.computed"] == 4

    def test_parallel_merge_is_deterministic_across_runs(self, tmp_path):
        _, first = self._run_probe_grid(tmp_path, 2, "a")
        _, second = self._run_probe_grid(tmp_path, 2, "b")
        # Same merged (name, worker-lane) stream no matter how the pool
        # interleaved the cells.
        assert first == second
        assert ("cell", 1) in first and ("cell", 4) in first


class TestChromeExport:
    def test_spans_round_trip_schema(self, tmp_path):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        path = save_trace(tmp_path / "t.json")
        assert validate_chrome_trace(json.loads(path.read_text())) == []
        assert check_file(path) == []

    def test_merged_trace_has_self_and_simulated_groups(self, tmp_path):
        from repro.api import RunConfig, run_cluster

        obs.enable()
        config = RunConfig.from_dict(
            {
                "scenario": {
                    "model": "switch-base-8", "env": "env1",
                    "batch_size": 2, "gen_len": 2, "prompt_len": 32,
                },
                "cluster": {"replicas": 2, "group_batches": 1},
                "serve": {"requests": 4},
            }
        )
        report = run_cluster(config)
        doc = chrome_trace(report=report)
        assert validate_chrome_trace(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {SIMULATED_PID, SELF_PID}
        lanes = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert any("simulated" in name for name in lanes)
        assert any("wall time" in name for name in lanes)

    def test_validator_flags_malformed_events(self):
        bad = {
            "traceEvents": [
                {"name": "x", "ph": "X", "ts": 0.0},  # missing pid/tid/dur
                "not-an-object",
            ]
        }
        errors = validate_chrome_trace(bad)
        assert errors
        assert validate_chrome_trace({"traceEvents": []}) == [
            "traceEvents is empty"
        ]
        assert validate_chrome_trace([]) != []


class TestManifest:
    def test_build_manifest_hashes_config_and_defaults_seed(self):
        from repro.api import RunConfig

        config = RunConfig.from_dict(
            {"scenario": {"model": "switch-base-8", "env": "env1", "seed": 9}}
        )
        manifest = build_manifest("run", config=config)
        data = manifest.to_dict()
        assert tuple(data) == MANIFEST_KEYS
        assert data["seed"] == 9
        assert data["config_hash"] == build_manifest(
            "run", config=config
        ).config_hash
        from repro import __version__

        assert data["version"] == __version__

    def test_manifest_without_config(self):
        data = build_manifest("bench").to_dict()
        assert data["config_hash"] is None and data["seed"] is None
        assert data["wall_s"] == 0.0


class TestCLIObservability:
    def _envelope(self, capsys, argv):
        from repro.cli import main

        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_every_json_envelope_carries_manifest(self, capsys, tmp_path):
        for argv in (
            ["run", "--model", "switch-base-8", "--batch-size", "2",
             "--gen-len", "2", "--json"],
            ["experiments", "list", "--json"],
            ["validate", "--fuzz", "1", "--json"],
            ["bench", "table2", "--skip-full-cell",
             "--out", str(tmp_path / "b.json"), "--json"],
        ):
            envelope = self._envelope(capsys, argv)
            assert set(envelope) == {
                "command", "schema_version", "result", "manifest"
            }, argv
            assert tuple(envelope["manifest"]) == MANIFEST_KEYS, argv

    def test_run_manifest_counts_memo_traffic(self, capsys):
        envelope = self._envelope(
            capsys,
            ["run", "--model", "switch-base-8", "--batch-size", "2",
             "--gen-len", "2", "--json"],
        )
        manifest = envelope["manifest"]
        assert manifest["command"] == "run"
        assert manifest["config_hash"]
        assert manifest["wall_s"] > 0
        assert any(k.startswith("memo.") for k in manifest["counters"])

    def test_serve_report_carries_event_counters(self, capsys):
        envelope = self._envelope(
            capsys,
            ["serve", "--model", "switch-base-8", "--batch-size", "2",
             "--gen-len", "2", "--replicas", "2", "--requests", "6",
             "--group-batches", "1", "--json"],
        )
        counters = envelope["result"]["counters"]
        assert counters["arrivals"] == 6
        assert counters["completions"] == counters["dispatched_groups"]
        assert (
            counters["full_group_dispatches"]
            + counters["deadline_dispatches"]
            == counters["dispatched_groups"]
        )

    def test_run_trace_flag_writes_valid_merged_trace(self, capsys, tmp_path):
        trace = tmp_path / "run.json"
        envelope = self._envelope(
            capsys,
            ["run", "--model", "switch-base-8", "--batch-size", "2",
             "--gen-len", "2", "--trace", str(trace), "--json"],
        )
        assert envelope["command"] == "run"
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        assert {e["pid"] for e in doc["traceEvents"]} == {
            SIMULATED_PID, SELF_PID
        }

    def test_profile_prints_span_table(self, capsys):
        from repro.cli import main

        assert main(
            ["profile", "--model", "switch-base-8", "--batch-size", "2",
             "--gen-len", "2", "--n", "2", "--top", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "system.execute" in out
        assert "total ms" in out

    def test_tracecheck_cli_accepts_generated_trace(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.obs.tracecheck import main as tracecheck_main

        trace = tmp_path / "exp.json"
        assert cli_main(
            ["experiments", "run", "table2",
             "--cache", str(tmp_path / "cache"),
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert tracecheck_main([str(trace)]) == 0


class TestBuildStageSpans:
    """``InferenceSystem.build`` opens one span per stage call, each under
    ``system.build`` — never one per layer or per op."""

    @staticmethod
    def _subtree(spans, root):
        depth = spans[root][DEPTH]
        end = root + 1
        while end < len(spans) and spans[end][DEPTH] > depth:
            end += 1
        return spans[root + 1 : end]

    @pytest.mark.parametrize(
        "name,warmups", [("klotski", 1), ("accelerate", 1), ("sida", 3)]
    )
    def test_one_span_per_stage_call(self, small_scenario, name, warmups):
        from collections import Counter

        from repro.api.registry import SYSTEMS
        from repro.cli import BUILD_STAGES

        obs.enable()
        SYSTEMS.get(name)().run(small_scenario)
        obs.disable()
        spans = tracer.spans_snapshot()
        (root,) = [i for i, r in enumerate(spans) if r[NAME] == "system.build"]
        subtree = self._subtree(spans, root)
        direct = Counter(
            r[NAME] for r in subtree if r[DEPTH] == spans[root][DEPTH] + 1
        )
        assert {stage: direct[stage] for stage in BUILD_STAGES} == dict.fromkeys(
            BUILD_STAGES, 1
        )
        every = Counter(r[NAME] for r in spans)
        nested = Counter(r[NAME] for r in subtree)
        for stage in BUILD_STAGES:
            assert nested[stage] == every[stage]  # none outside system.build
        # A sequential system decides every batch inside its one decide
        # span; SiDA warms a fresh prefetcher per batch inside it.
        assert every["core.prefetcher.warmup"] == warmups
        assert every["core.pipeline.decide"] == 1

    @pytest.mark.parametrize("name", ["klotski", "accelerate"])
    def test_one_routing_sample_span_per_sampled_step(self, small_scenario, name):
        """Sampling opens one span per sampled step, never one per layer;
        memo hits open none."""
        from repro.api.registry import SYSTEMS
        from repro.routing.oracle import clear_step_routing_memo

        clear_step_routing_memo()
        obs.enable()
        SYSTEMS.get(name)().run(small_scenario)
        SYSTEMS.get(name)().run(small_scenario)  # every step a memo hit
        obs.disable()
        samples = [r for r in tracer.spans_snapshot() if r[NAME] == "routing.sample"]
        misses = obs.counters_snapshot()["memo.step_routing.miss"]
        workload = small_scenario.workload
        steps = workload.gen_len * (1 if name == "klotski" else workload.num_batches)
        assert len(samples) == misses == steps

    def test_child_time_sums_direct_children(self):
        obs.enable()
        for _ in range(2):
            with obs.span("parent"):
                with obs.span("a"):
                    with obs.span("deep"):
                        pass
                with obs.span("b"):
                    pass
        obs.disable()
        spans = tracer.spans_snapshot()
        parent_s, children = tracer.child_time(spans, "parent")
        assert set(children) == {"a", "b"}
        expected = sum(r[END] - r[START] for r in spans if r[NAME] == "a")
        assert children["a"] == pytest.approx(expected)
        assert parent_s >= children["a"] + children["b"]

    def test_profile_reports_stage_coverage(self, capsys):
        from repro.cli import main

        assert main(
            ["profile", "--model", "switch-base-8", "--batch-size", "2",
             "--gen-len", "2", "--json"]
        ) == 0
        build = json.loads(capsys.readouterr().out)["result"]["build"]
        assert build["system_build_s"] > 0
        assert set(build["stages_s"]) == {
            "core.placement.plan", "core.prefetcher.warmup",
            "core.pipeline.decide", "core.pipeline.materialize",
        }
        assert 0.5 < build["covered"] <= 1.0


class TestStageCoverage:
    """Named spans account for the wall time of a traced cell: the
    pipeline stages, schedule validation, fleet building, the cluster
    simulator, its scheduler and the report's metrics each open one span
    per call."""

    @staticmethod
    def covered(run) -> float:
        from time import perf_counter

        obs.enable()
        t0 = perf_counter()
        run()
        wall = perf_counter() - t0
        obs.disable()
        top = [r for r in tracer.spans_snapshot() if r[DEPTH] == 0]
        return sum(r[END] - r[START] for r in top) / wall

    SCENARIO = {
        "model": "mixtral-8x7b", "env": "env1", "batch_size": 8, "prompt_len": 64,
        "gen_len": 2, "seed": 3,
    }

    def test_named_spans_cover_a_pipeline_cell(self):
        from repro.api import RunConfig, build_scenario, build_system

        config = RunConfig.from_dict(
            {"scenario": {**self.SCENARIO, "n": 4}, "system": {"name": "klotski"}}
        )
        scenario = build_scenario(config.scenario)
        assert self.covered(lambda: build_system(config.system).run_safe(scenario)) >= 0.95
        names = {r[NAME] for r in tracer.spans_snapshot()}
        assert {"system.build", "runtime.schedule.validate"} <= names

    def test_named_spans_cover_a_fleet_cell(self):
        from repro.api import RunConfig
        from repro.api.run import build_requests, run_cluster
        from repro.cluster.replica import clear_group_timing_memo

        config = RunConfig.from_dict({
            "scenario": self.SCENARIO,
            "system": {"name": "klotski"},
            "cluster": {"replicas": 4, "group_batches": 2, "max_wait_s": 2.0,
                        "scheduler": "continuous", "engine": "serial"},
            "serve": {"arrival": "poisson", "requests": 400, "rate_per_s": 50.0},
        })
        requests = build_requests(config)
        clear_group_timing_memo()
        assert self.covered(lambda: run_cluster(config, requests=requests).to_dict()) >= 0.95
        names = [r[NAME] for r in tracer.spans_snapshot()]
        for name in (
            "cluster.fleet_build", "cluster.simulator.run", "serving.scheduler.run",
            "cluster.report.metrics",
        ):
            assert names.count(name) == 1
