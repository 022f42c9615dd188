"""Timing measurement and the local timing cache (§7 planner stage 1)."""

import json

from repro.hardware.calibrate import LayerTimings, TimingCache, measure
from repro.hardware.spec import ENV1, ENV2
from repro.model.config import MIXTRAL_8X7B, OPT_1_3B


class TestMeasure:
    def test_fields_positive(self):
        timings = measure(MIXTRAL_8X7B, ENV1)
        for name, value in vars(timings).items():
            if isinstance(value, float):
                assert value >= 0, name

    def test_io_compute_ratio_motivates_paper(self):
        """§1: the expert transfer dwarfs attention compute on Env1."""
        timings = measure(MIXTRAL_8X7B, ENV1, batch_size=16)
        assert timings.io_compute_ratio() > 5

    def test_whole_moe_layer_io_is_sum(self):
        timings = measure(MIXTRAL_8X7B, ENV1)
        assert timings.t_io_moe_layer > 7.9 * timings.t_io_expert

    def test_prefill_attention_slower(self):
        timings = measure(MIXTRAL_8X7B, ENV1)
        assert timings.t_c_attention_prefill > timings.t_c_attention_decode

    def test_dense_model_measurable(self):
        timings = measure(OPT_1_3B, ENV1)
        assert timings.t_io_gate == 0.0
        assert timings.t_io_expert > 0

    def test_env2_faster_io(self):
        t1 = measure(MIXTRAL_8X7B, ENV1)
        t2 = measure(MIXTRAL_8X7B, ENV2)
        assert t2.t_io_expert < t1.t_io_expert


class TestTimingCache:
    def test_miss_then_hit(self, tmp_path):
        cache = TimingCache(tmp_path / "timings.json")
        first = cache.get_or_measure(MIXTRAL_8X7B, ENV1)
        assert len(cache) == 1
        second = cache.get_or_measure(MIXTRAL_8X7B, ENV1)
        assert first == second

    def test_persisted_across_instances(self, tmp_path):
        path = tmp_path / "timings.json"
        TimingCache(path).get_or_measure(MIXTRAL_8X7B, ENV1)
        reloaded = TimingCache(path)
        assert len(reloaded) == 1
        timings = reloaded.get_or_measure(MIXTRAL_8X7B, ENV1)
        assert isinstance(timings, LayerTimings)

    def test_distinct_operating_points(self, tmp_path):
        cache = TimingCache(tmp_path / "t.json")
        cache.get_or_measure(MIXTRAL_8X7B, ENV1, batch_size=4)
        cache.get_or_measure(MIXTRAL_8X7B, ENV1, batch_size=64)
        cache.get_or_measure(MIXTRAL_8X7B, ENV2, batch_size=4)
        assert len(cache) == 3

    def test_corrupt_version_ignored(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"version": 0, "entries": {"x": {}}}))
        cache = TimingCache(path)
        assert len(cache) == 0
