"""Chrome-trace timeline lanes and the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.engine import KlotskiSystem
from repro.obs.export import chrome_trace, save_trace
from repro.runtime.executor import Executor, ExecutorConfig
from repro.runtime.schedule import GPU


@pytest.fixture(scope="module")
def small_result():
    from repro.routing.workload import Workload
    from repro.scenario import Scenario
    from tests.conftest import SMALL_MIXTRAL, small_hardware

    scenario = Scenario(
        SMALL_MIXTRAL, small_hardware(), Workload(4, 2, 32, 3), seed=3
    )
    return KlotskiSystem().run(scenario)


class TestChromeTraceExport:
    def test_event_structure(self, small_result):
        trace = chrome_trace(spans=[], timeline=small_result.timeline)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(events) == len(small_result.timeline.executed)
        for event in events[:20]:
            assert event["dur"] > 0
            assert event["ts"] >= 0
            assert "layer" in event["args"]

    def test_lane_metadata_present(self, small_result):
        trace = chrome_trace(spans=[], timeline=small_result.timeline)
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert any(m["args"]["name"] == GPU for m in meta)

    def test_file_roundtrip(self, small_result, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(path, spans=[], timeline=small_result.timeline)
        data = json.loads(path.read_text())
        assert "traceEvents" in data

    def test_timestamps_monotone_per_lane(self, small_result):
        trace = chrome_trace(spans=[], timeline=small_result.timeline)
        by_lane = {}
        for event in trace["traceEvents"]:
            if event["ph"] != "X":
                continue
            by_lane.setdefault(event["tid"], []).append(event)
        for events in by_lane.values():
            ends = [e["ts"] + e["dur"] for e in events]
            starts = [e["ts"] for e in events]
            for end, nxt in zip(ends, starts[1:]):
                assert nxt >= end - 1.0  # microsecond rounding slack

    def test_engines_export_identical_events(self, small_scenario):
        built = KlotskiSystem().build(small_scenario)
        traces = [
            chrome_trace(
                spans=[],
                timeline=Executor(
                    small_scenario.hardware, ExecutorConfig(engine=engine)
                ).run(built.schedule),
            )
            for engine in ("legacy", "compiled")
        ]
        assert traces[0] == traces[1]
        assert len(traces[0]["traceEvents"]) > len(built.schedule)


class TestCLI:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("plan", "calibrate", "run", "compare", "sweep-n"):
            assert command in text

    def test_plan_command(self, capsys):
        assert main(["plan", "--batch-size", "8", "--gen-len", "4"]) == 0
        out = capsys.readouterr().out
        assert "planned n" in out
        assert "binding constraint" in out

    def test_calibrate_command(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "t_io_expert" in out

    def test_calibrate_with_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        assert main(["calibrate", "--cache", str(cache)]) == 0
        assert cache.exists()

    def test_run_command(self, capsys):
        assert (
            main(["run", "--batch-size", "4", "--gen-len", "2", "--n", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "tok/s" in out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["plan", "--model", "gpt-17"])
