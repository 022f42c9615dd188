"""Public API surface and remaining CLI coverage."""

import json

import pytest

import repro
from repro.cli import main


class TestPublicAPI:
    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_one_cluster_config(self):
        import repro.api
        import repro.cluster

        assert repro.ClusterConfig is repro.api.ClusterConfig
        assert repro.cluster.ClusterConfig is repro.api.ClusterConfig
        assert repro.ClusterConfig(replicas=2).replicas == 2

    def test_subpackage_exports_resolve(self):
        import repro.analysis as analysis
        import repro.baselines as baselines
        import repro.cluster as cluster
        import repro.compression as compression
        import repro.core as core
        import repro.hardware as hardware
        import repro.model as model
        import repro.routing as routing
        import repro.runtime as runtime
        import repro.serving as serving

        for module in (
            analysis, baselines, cluster, compression, core, hardware, model,
            routing, runtime, serving,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_quickstart_snippet_runs(self):
        """The README quickstart, verbatim (shortened workload)."""
        from repro import KlotskiEngine, Scenario, Workload
        from repro.hardware import ENV1
        from repro.model import MIXTRAL_8X7B

        scenario = Scenario(
            MIXTRAL_8X7B, ENV1, Workload(batch_size=4, num_batches=1,
                                         prompt_len=64, gen_len=2)
        )
        engine = KlotskiEngine(scenario)
        plan = engine.plan()
        assert plan.n >= 1
        result = engine.run(n=2)
        assert "tok/s" in result.metrics.summary()

    def test_docstrings_on_public_modules(self):
        import importlib
        import pkgutil

        missing = []
        package = importlib.import_module("repro")
        for info in pkgutil.walk_packages(package.__path__, "repro."):
            module = importlib.import_module(info.name)
            if not (module.__doc__ or "").strip():
                missing.append(info.name)
        assert missing == []


class TestCLICoverage:
    def test_compare_command(self, capsys):
        code = main([
            "compare", "--batch-size", "4", "--gen-len", "2", "--n", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "klotski" in out and "flexgen" in out

    def test_sweep_command(self, capsys):
        code = main([
            "sweep-n", "--batch-size", "4", "--gen-len", "2",
            "--n-min", "2", "--n-max", "4", "--n-step", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Throughput vs n" in out

    def test_sweep_and_profile_build_the_configured_system(self, capsys):
        assert main([
            "sweep-n", "--batch-size", "4", "--gen-len", "2",
            "--n-min", "2", "--n-max", "2", "--set", "system.name=flexgen",
        ]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[-1].split()[0] == "flexgen"
        assert main([
            "profile", "--model", "switch-base-8", "--batch-size", "2",
            "--gen-len", "2", "--n", "2", "--set", "system.name=flexgen",
        ]) == 0
        out = capsys.readouterr().out
        assert "system=flexgen" in out
        assert "system=klotski" not in out

    def test_serve_flag_defaults_come_from_the_schema(self):
        """``serve`` with no flags describes the default cluster and
        serve sections, field for field."""
        from repro.api import ClusterConfig, ServeConfig
        from repro.cli import _serve_config, build_parser

        config = _serve_config(build_parser().parse_args(["serve"]))
        assert config.cluster == ClusterConfig()
        assert config.serve == ServeConfig()

    def test_run_quantized(self, capsys):
        code = main([
            "run", "--batch-size", "4", "--gen-len", "2", "--n", "2",
            "--quantize",
        ])
        assert code == 0
        assert "tok/s" in capsys.readouterr().out

    def test_run_json(self, capsys):
        code = main([
            "run", "--batch-size", "4", "--gen-len", "2", "--n", "2", "--json",
        ])
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["command"] == "run"
        assert envelope["schema_version"] == 1
        payload = envelope["result"]
        assert payload["oom"] is False
        assert payload["throughput"] > 0
        assert "bubble_fraction" in payload

    def test_compare_json(self, capsys):
        code = main([
            "compare", "--batch-size", "4", "--gen-len", "2", "--n", "2",
            "--json",
        ])
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["command"] == "compare"
        payload = envelope["result"]
        names = {row["system"] for row in payload["systems"]}
        assert "klotski" in names

    def test_run_and_compare_agree_on_oom(self, capsys):
        """Simulated OOM is a result: both commands exit 0 with an oom
        payload (the paper's §9.2 observation is data, not a crash)."""

        code = main([
            "run", "--model", "mixtral-8x22b", "--batch-size", "64",
            "--n", "2", "--gen-len", "2",
            "--set", "system.name=moe-infinity", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["result"]
        assert payload["oom"] is True and payload["oom_reason"]

        code = main([
            "compare", "--model", "mixtral-8x22b", "--batch-size", "64",
            "--n", "2", "--gen-len", "2", "--systems", "moe-infinity",
            "--json",
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["result"]["systems"]
        by_name = {row["system"]: row for row in rows}
        assert by_name["moe-infinity"]["oom"] is True

    def test_set_overrides_reach_the_config_tree(self, capsys):
        code = main([
            "run", "--batch-size", "4", "--gen-len", "2", "--n", "2",
            "--set", "scenario.skew=1.4",
            "--set", "system.name=flexgen", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["result"]
        assert payload["system"] == "flexgen"

    def test_typo_in_set_override_exits_with_suggestion(self):
        with pytest.raises(SystemExit, match="did you mean 'skew'"):
            main([
                "run", "--batch-size", "4", "--n", "2",
                "--set", "scenario.skwe=1.4",
            ])

    def test_serve_command(self, capsys):
        code = main([
            "serve", "--replicas", "2", "--router", "expert-affinity",
            "--requests", "8", "--batch-size", "4", "--gen-len", "2",
            "--group-batches", "1", "--max-wait", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "goodput" in out and "replica 1" in out

    def test_serve_json(self, capsys):
        code = main([
            "serve", "--replicas", "2", "--router", "round-robin",
            "--requests", "8", "--batch-size", "4", "--gen-len", "2",
            "--group-batches", "1", "--max-wait", "10", "--json",
        ])
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["command"] == "serve"
        payload = envelope["result"]
        assert payload["num_replicas"] == 2
        assert payload["num_requests"] == 8
        assert payload["throughput_tok_s"] > 0

    def test_serve_bursty_and_hetero(self, capsys):
        code = main([
            "serve", "--replicas", "2", "--envs", "env1,env2",
            "--arrival", "bursty", "--requests", "8", "--batch-size", "4",
            "--gen-len", "2", "--group-batches", "1", "--max-wait", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "env1-rtx3090" in out and "env2-h800" in out

    def test_serve_trace_replay(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(
            '[{"arrival_s": 0.0, "prompt_len": 64, "gen_len": 2},'
            ' {"arrival_s": 0.5, "prompt_len": 64, "gen_len": 2}]'
        )
        code = main([
            "serve", "--replicas", "1", "--arrival-trace", str(trace),
            "--batch-size", "4", "--group-batches", "1", "--max-wait", "5",
        ])
        assert code == 0
        assert "2 requests" in capsys.readouterr().out

    def test_serve_missing_trace_names_the_path(self, tmp_path):
        # The path set through --set, not the (unset) --arrival-trace.
        missing = tmp_path / "missing.json"
        options = json.dumps({"path": str(missing)})
        with pytest.raises(SystemExit) as exc:
            main([
                "serve", "--replicas", "1",
                "--set", "serve.arrival=trace",
                "--set", f"serve.arrival_options={options}",
            ])
        assert str(exc.value) == f"arrival trace file not found: {missing}"

    def test_serve_unknown_env(self):
        with pytest.raises(SystemExit):
            main(["serve", "--envs", "env99", "--requests", "2"])

    def test_serve_fault_preset_and_seed(self, capsys):
        code = main([
            "serve", "--replicas", "2", "--requests", "8",
            "--batch-size", "4", "--gen-len", "2", "--group-batches", "1",
            "--max-wait", "5", "--faults", "chaos", "--fault-seed", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults:" in out and "availability" in out

    def test_serve_inline_fault_json(self, capsys):
        code = main([
            "serve", "--replicas", "1", "--requests", "6",
            "--batch-size", "4", "--gen-len", "2", "--group-batches", "1",
            "--max-wait", "5", "--faults", '{"shed_queue_depth": 1}',
        ])
        assert code == 0
        assert "faults:" in capsys.readouterr().out

    def test_serve_fault_flag_errors(self):
        with pytest.raises(SystemExit, match="requires --faults"):
            main(["serve", "--requests", "2", "--fault-seed", "3"])
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["serve", "--requests", "2", "--faults", "{broken"])
        with pytest.raises(SystemExit):
            main(["serve", "--requests", "2", "--faults", "no-such-preset",
                  "--fault-seed", "1"])
