"""The declarative config surface: round-trips, suggestions, reports.

The contract under test (docs/api.md):

* ``from_dict(to_dict(c)) == c`` for every config — including every
  registered preset x system x router combination and
  hypothesis-sampled trees — and the dict form survives JSON;
* unknown keys and registry names fail with close-match suggestions;
* every problem in a tree is aggregated into one
  :class:`~repro.errors.ConfigValidationError` report;
* the flat experiment-cell dialect round-trips bit-identically, so
  content addresses (and with them the artifact cache and goldens) are
  pinned.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ClusterConfig,
    RunConfig,
    ScenarioConfig,
    ServeConfig,
    SystemConfig,
    apply_overrides,
    build_requests,
    build_scenario,
    build_system,
    hardware_preset_names,
    model_preset_names,
    router_names,
    run_pipeline,
    system_names,
)
from repro.errors import ConfigValidationError
from repro.experiments.spec import cell_key
from repro.validation.fuzz import random_run_config


def round_trip(config: RunConfig) -> RunConfig:
    """to_dict -> JSON -> from_dict, as a replay blob would travel."""
    return RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))


class TestRoundTrips:
    def test_default_tree(self):
        config = RunConfig()
        assert round_trip(config) == config

    def test_every_preset_system_router_combination(self):
        for model in model_preset_names():
            for env in hardware_preset_names():
                for system in system_names():
                    for router in router_names():
                        config = RunConfig(
                            scenario=ScenarioConfig(model=model, env=env),
                            system=SystemConfig(system),
                            cluster=ClusterConfig(replicas=2, router=router),
                            serve=ServeConfig(),
                        )
                        assert round_trip(config) == config, (
                            model, env, system, router,
                        )

    def test_inline_specs_round_trip(self):
        config = random_run_config(np.random.default_rng(5))
        assert isinstance(config.scenario.model, dict)
        assert isinstance(config.scenario.env, dict)
        assert round_trip(config) == config

    def test_round_tripped_config_runs_identically(self):
        config = RunConfig(
            scenario=ScenarioConfig(batch_size=2, n=2, prompt_len=32, gen_len=2),
            system=SystemConfig("klotski", {"quantize": True}),
        )
        a = run_pipeline(config)
        b = run_pipeline(round_trip(config))
        assert dataclasses.asdict(a.metrics) == dataclasses.asdict(b.metrics)

    def test_fuzz_sampled_configs_round_trip_and_build(self):
        for seed in range(8):
            config = random_run_config(np.random.default_rng(seed))
            assert round_trip(config) == config
            scenario = build_scenario(config.scenario)
            assert scenario.model.num_layers >= 2
            assert build_system(config.system).name


# Hypothesis strategy over the full tree (preset-named scenarios).
scenario_configs = st.builds(
    ScenarioConfig,
    model=st.sampled_from(model_preset_names()),
    env=st.sampled_from(hardware_preset_names()),
    batch_size=st.integers(1, 64),
    n=st.integers(1, 16),
    prompt_len=st.integers(1, 2048),
    gen_len=st.integers(1, 64),
    seed=st.integers(0, 2**31 - 1),
    skew=st.floats(0.1, 3.0, allow_nan=False),
    correlation=st.floats(0.0, 1.0, allow_nan=False),
    prefill_token_cap=st.integers(1, 4096),
)
system_configs = st.builds(
    SystemConfig,
    name=st.sampled_from(system_names()),
    options=st.just({}),
)
cluster_configs = st.builds(
    ClusterConfig,
    replicas=st.integers(1, 8),
    envs=st.lists(
        st.sampled_from(hardware_preset_names()), max_size=3
    ).map(tuple),
    router=st.sampled_from(router_names()),
    group_batches=st.integers(1, 4),
    max_wait_s=st.floats(0.1, 120.0, allow_nan=False),
    slo_s=st.floats(1.0, 600.0, allow_nan=False),
    partition_experts=st.booleans(),
)
serve_configs = st.builds(
    ServeConfig,
    arrival=st.sampled_from(["poisson", "bursty"]),
    requests=st.integers(1, 64),
    rate_per_s=st.floats(0.1, 20.0, allow_nan=False),
)
run_configs = st.builds(
    RunConfig,
    scenario=scenario_configs,
    system=system_configs,
    cluster=st.one_of(st.none(), cluster_configs),
    serve=st.one_of(st.none(), serve_configs),
)


@given(config=run_configs)
@settings(max_examples=200, deadline=None)
def test_round_trip_property(config):
    """sample -> to_dict -> JSON -> from_dict is the identity."""
    assert round_trip(config) == config


class TestSuggestions:
    def test_unknown_scenario_key_suggests_field(self):
        with pytest.raises(ConfigValidationError, match="did you mean 'batch_size'"):
            RunConfig.from_dict({"scenario": {"batchsize": 4}})

    def test_unknown_system_suggests_registry_name(self):
        with pytest.raises(ConfigValidationError, match="did you mean 'klotski'"):
            RunConfig.from_dict({"system": {"name": "klotsky"}})

    def test_unknown_router_suggests_registry_name(self):
        with pytest.raises(
            ConfigValidationError, match="did you mean 'round-robin'"
        ):
            RunConfig.from_dict({"cluster": {"router": "roundrobin"}})

    def test_unknown_model_preset_suggests(self):
        with pytest.raises(
            ConfigValidationError, match="did you mean 'mixtral-8x7b'"
        ):
            RunConfig.from_dict({"scenario": {"model": "mixtral-8x7"}})

    def test_unknown_system_option_suggests(self):
        with pytest.raises(ConfigValidationError, match="did you mean 'quantize'"):
            SystemConfig("klotski", {"quantise": True}).build()

    def test_unknown_top_level_section_suggests(self):
        with pytest.raises(ConfigValidationError, match="did you mean 'cluster'"):
            RunConfig.from_dict({"clutser": {}})


class TestAggregatedErrors:
    def test_all_errors_collected_into_one_report(self):
        with pytest.raises(ConfigValidationError) as exc:
            RunConfig.from_dict(
                {
                    "scenario": {"model": "nope", "batch_size": 0, "gen_len": -1},
                    "system": {"name": "warp-drive"},
                    "cluster": {"replicas": 0, "router": "nope"},
                    "serve": {"arrival": "nope", "requests": 0},
                }
            )
        errors = exc.value.errors
        assert len(errors) >= 7
        joined = "\n".join(errors)
        for fragment in (
            "scenario.batch_size",
            "scenario.gen_len",
            "unknown model preset",
            "system.name",
            "cluster.replicas",
            "cluster.router",
            "serve.arrival",
            "serve.requests",
        ):
            assert fragment in joined, fragment

    def test_type_mismatches_reported_with_paths(self):
        with pytest.raises(ConfigValidationError) as exc:
            RunConfig.from_dict(
                {"scenario": {"batch_size": "four", "skew": "steep"}}
            )
        joined = "\n".join(exc.value.errors)
        assert "scenario.batch_size: expected int" in joined
        assert "scenario.skew: expected float" in joined


def errors_of(tree: dict) -> list[str]:
    """The aggregated error lines ``RunConfig.from_dict`` reports."""
    with pytest.raises(ConfigValidationError) as exc:
        RunConfig.from_dict(tree)
    return exc.value.errors


class TestFaultSections:
    """``cluster.faults`` / ``cluster.retry`` dicts go through the one parser."""

    def test_string_seed_is_rejected_up_front(self):
        errors = errors_of(
            {"cluster": {"faults": {"seed": "x", "crash_rate_per_hour": 50}}}
        )
        assert errors == ["cluster.faults.seed: expected int, got str"]

    def test_fractional_counts_are_rejected(self):
        assert errors_of({"cluster": {"retry": {"max_attempts": 2.5}}}) == [
            "cluster.retry.max_attempts: expected int, got float"
        ]
        assert errors_of({"cluster": {"faults": {"breaker_threshold": 2.5}}}) == [
            "cluster.faults.breaker_threshold: expected int, got float"
        ]

    def test_string_rate_names_its_field(self):
        assert errors_of(
            {"cluster": {"faults": {"crash_rate_per_hour": "1.0"}}}
        ) == ["cluster.faults.crash_rate_per_hour: expected float, got str"]

    def test_misspelt_key_suggests(self):
        (error,) = errors_of({"cluster": {"faults": {"crash_rate_per_hr": 1.0}}})
        assert error.startswith("cluster.faults.crash_rate_per_hr: unknown key")
        assert "did you mean 'crash_rate_per_hour'" in error

    def test_post_init_errors_stay_at_the_section(self):
        assert errors_of({"cluster": {"retry": {"max_attempts": 0}}}) == [
            "cluster.retry: max_attempts must be >= 1"
        ]

    def test_direct_from_dict_is_strict_and_round_trips(self):
        from repro.cluster.faults import FaultConfig, RetryPolicy

        with pytest.raises(ConfigValidationError, match="seed: expected int"):
            FaultConfig.from_dict({"seed": "x"})
        faults = FaultConfig(seed=3, joins=((1.0, 2),), drains=((6.0, 1),))
        assert FaultConfig.from_dict(json.loads(json.dumps(faults.to_dict()))) == faults
        retry = RetryPolicy(max_attempts=5, jitter_frac=0.0)
        assert RetryPolicy.from_dict(retry.to_dict()) == retry


class TestFactoryOptions:
    """System and router options parse against the factory's own schema."""

    def test_klotski_options_are_typed(self):
        assert errors_of(
            {"system": {"name": "klotski", "options": {"quantize": "no"}}}
        ) == ["system.options.quantize: expected bool, got str"]

    def test_baseline_constructor_parameters_are_typed(self):
        assert errors_of(
            {"system": {"name": "moe-infinity", "options": {"cache_fraction": "0.3"}}}
        ) == ["system.options.cache_fraction: expected float, got str"]

    def test_options_a_system_does_not_take_are_rejected(self):
        (error,) = errors_of(
            {"system": {"name": "flexgen", "options": {"quantize": True}}}
        )
        assert error.startswith("system.options.quantize: unknown key")

    def test_router_options_are_checked_at_parse_time(self):
        (error,) = errors_of(
            {"cluster": {"router": "expert-affinity", "router_options": {"slak": 1}}}
        )
        assert error.startswith("cluster.router_options.slak: unknown key")
        assert "did you mean 'slack'" in error

    def test_build_parses_options_into_their_types(self):
        from repro.core.pipeline import PipelineFeatures

        system = SystemConfig(
            "klotski", {"prefetch_k": 3, "features": {"overlap": False}}
        ).build()
        assert system.options.prefetch_k == 3
        assert system.options.features == PipelineFeatures(overlap=False)
        moe = build_system(SystemConfig("moe-infinity", {"cache_fraction": 1}))
        assert moe.cache_fraction == 1.0
        router = ClusterConfig(router="expert-affinity", router_options={"slack": 2})
        assert router.build_router().slack == 2

    def test_untyped_factories_take_any_option(self):
        from repro.api.config import Errors, parse_options

        def factory(**options):
            return options

        errors = Errors()
        assert parse_options(factory, {"anything": [1]}, "p", errors) == {
            "anything": [1]
        }
        assert errors.items == []


class TestInlineSpecs:
    """Inline model / hardware dicts get the section parser's type checks."""

    def _env(self, **overrides):
        from repro.hardware.spec import ENV1

        env = dataclasses.asdict(ENV1)
        env.update(overrides)
        return env

    def test_integral_float_in_int_field_is_rejected(self):
        assert errors_of({"scenario": {"env": self._env(vram_bytes=24e9)}}) == [
            "scenario.env.vram_bytes: expected int, got float"
        ]

    def test_nested_sub_specs_are_typed(self):
        env = self._env()
        env["pcie_h2d"]["bandwidth_bytes_per_s"] = "fast"
        assert errors_of({"cluster": {"envs": ["env1", env]}}) == [
            "cluster.envs[1].pcie_h2d.bandwidth_bytes_per_s: expected float, got str"
        ]

    def test_post_init_error_is_reported_at_the_spec(self):
        from repro.model.config import MIXTRAL_8X7B

        model = {**dataclasses.asdict(MIXTRAL_8X7B), "num_heads": 7}
        assert errors_of({"scenario": {"model": model}}) == [
            "scenario.model: hidden_size must be divisible by num_heads"
        ]

    @pytest.mark.parametrize("field", ["num_heads", "num_kv_heads"])
    def test_zero_heads_are_reported_at_the_spec(self, field):
        from repro.model.config import MIXTRAL_8X7B

        model = {**dataclasses.asdict(MIXTRAL_8X7B), field: 0}
        assert errors_of({"scenario": {"model": model}}) == [
            f"scenario.model: {field} must be >= 1, got 0"
        ]

    def test_zero_link_bandwidth_is_reported_at_the_link(self):
        env = self._env()
        env["pcie_h2d"]["bandwidth_bytes_per_s"] = 0.0
        assert errors_of({"scenario": {"env": env}}) == [
            "scenario.env.pcie_h2d: bandwidth_bytes_per_s must be > 0, got 0.0"
        ]

    def test_negative_vram_is_reported_at_the_spec(self):
        assert errors_of({"scenario": {"env": self._env(vram_bytes=-5)}}) == [
            "scenario.env: vram_bytes must be >= 0, got -5"
        ]

    def test_missing_and_misspelt_keys(self):
        env = self._env()
        del env["disk_link"]
        assert errors_of({"scenario": {"env": env}}) == [
            "scenario.env: missing required keys: disk_link"
        ]
        env["disk_lnk"] = self._env()["disk_link"]
        (error,) = errors_of({"scenario": {"env": env}})
        assert "did you mean 'disk_link'" in error


def test_serialization_is_pinned():
    """to_dict is a content address: these hashes must never move."""
    from repro.api import stable_hash
    from repro.cluster.faults import FaultConfig, RetryPolicy

    config = RunConfig(
        scenario=ScenarioConfig(
            model="mixtral-8x22b", env="env2", batch_size=4, n=3, seed=5
        ),
        system=SystemConfig("klotski", {"quantize": True}, ("fill-bubbles",)),
        cluster=ClusterConfig(
            replicas=3, envs=("env1", "env2"), router="expert-affinity",
            router_options={"slack": 2}, faults={"seed": 7, "joins": [[20.0, 2]]},
            retry={"max_attempts": 4}, scheduler="continuous",
        ),
        serve=ServeConfig(arrival="bursty", hot_experts={"mode": "zipf", "skew": 1.5}),
    )
    assert round_trip(config) == config
    assert stable_hash(config.to_dict()) == (
        "62c0ebc66b3fe53622cb8e2a71dc832a3014d58ea34124b68b4a477303c7e09c"
    )
    assert stable_hash(RunConfig().to_dict()) == (
        "335869ffc77c83f99a049e8df01d9e1874df8a46ef30ef08bc1168d7046d914a"
    )
    assert stable_hash(FaultConfig(seed=3, drains=((6.0, 1),)).to_dict()) == (
        "3bd541e3ecda19297243058bba95d56ca716852a9239730b99f497a9387984e0"
    )
    assert stable_hash(RetryPolicy(max_attempts=5).to_dict()) == (
        "4b246afc5794e296557647ab706c1245a4158624499e95b7f8c2a3595a93d9f5"
    )


class TestSetOverrides:
    def test_dotted_paths_and_json_values(self):
        tree = {"scenario": {"batch_size": 4}, "system": {"name": "klotski"}}
        apply_overrides(
            tree,
            [
                "scenario.skew=1.3",
                "system.options.quantize=true",
                "system.name=klotski(q)",
                "scenario.model=mixtral-8x22b",
            ],
        )
        config = RunConfig.from_dict(tree)
        assert config.scenario.skew == 1.3
        assert config.scenario.model == "mixtral-8x22b"
        assert config.system == SystemConfig("klotski(q)", {"quantize": True})

    def test_malformed_entries_aggregate(self):
        with pytest.raises(ConfigValidationError) as exc:
            apply_overrides({}, ["novalue", "=3"])
        assert len(exc.value.errors) == 2

    def test_cannot_descend_into_scalar(self):
        with pytest.raises(ConfigValidationError, match="non-dict"):
            apply_overrides({"scenario": {"seed": 3}}, ["scenario.seed.deep=1"])


class TestCellDialect:
    def test_flat_dialect_round_trips_bit_identically(self):
        params = {
            "prompt_len": 512, "gen_len": 8, "seed": 1, "batch_size": 4,
            "model": "mixtral-8x7b", "env": "env1", "n": 6,
        }
        config = ScenarioConfig.from_cell_params({**params, "system": "klotski"})
        assert config.to_cell_params() == {
            k: params[k] for k in
            ("model", "env", "batch_size", "n", "prompt_len", "gen_len", "seed")
        }

    def test_known_cell_key_is_pinned(self):
        """The fig10 first-cell content address must never move: it is an
        artifact-store key and a golden-trace anchor."""
        params = {
            "prompt_len": 512, "gen_len": 8, "seed": 1, "scenario": "8x7b-env1",
            "batch_size": 4, "system": "klotski", "model": "mixtral-8x7b",
            "env": "env1", "n": 6,
        }
        assert cell_key("e2e", params) == (
            "3c716b90a35d76b40c48694978b4b48f76350581931f52af34e2f3cdd10c084c"
        )

    def test_grid_expansion_rejects_bad_cells(self):
        from repro.experiments.spec import ExperimentSpec

        spec = ExperimentSpec(
            name="bad", title="bad", runner="e2e",
            axes=(("system", ("klotski",)),),
            base={
                "model": "no-such-model", "env": "env1", "batch_size": 4,
                "n": 1, "prompt_len": 32, "gen_len": 2, "seed": 0,
            },
        )
        with pytest.raises(ConfigValidationError, match="unknown model preset"):
            spec.cells()


class TestServeBuilders:
    def test_trace_records_build_requests(self):
        config = RunConfig(
            scenario=ScenarioConfig(batch_size=2, prompt_len=16, gen_len=2),
            serve=ServeConfig(
                arrival="trace",
                arrival_options={
                    "records": [
                        {"arrival_s": 0.5, "prompt_len": 8, "gen_len": 1},
                        {"arrival_s": 0.1, "prompt_len": 9, "gen_len": 2},
                    ]
                },
                hot_experts={"mode": "none"},
            ),
        )
        requests = build_requests(config)
        assert [r.arrival_s for r in requests] == [0.1, 0.5]
        assert all(r.hot_expert is None for r in requests)

    def test_pinned_hot_expert(self):
        config = RunConfig(
            scenario=ScenarioConfig(prompt_len=16, gen_len=1),
            serve=ServeConfig(requests=5, hot_experts={"mode": "pin", "expert": 3}),
        )
        assert {r.hot_expert for r in build_requests(config)} == {3}

    def test_auto_tags_untagged_streams(self):
        config = RunConfig(
            scenario=ScenarioConfig(prompt_len=16, gen_len=1),
            serve=ServeConfig(requests=8),
        )
        assert all(r.hot_expert is not None for r in build_requests(config))


