"""Hardware specs: links, rooflines, and the two paper environments."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.hardware.spec import ENV1, ENV2, ENVIRONMENTS, GB, GiB, ComputeSpec, LinkSpec
from repro.model.config import MIXTRAL_8X7B


class TestLinkSpec:
    def test_transfer_time_scales_linearly(self):
        link = LinkSpec("l", 1 * GB, latency_s=0.0)
        assert link.transfer_time(GB) == pytest.approx(1.0)
        assert link.transfer_time(2 * GB) == pytest.approx(2.0)

    def test_latency_added_once(self):
        link = LinkSpec("l", 1 * GB, latency_s=1e-3)
        assert link.transfer_time(GB) == pytest.approx(1.001)

    def test_zero_bytes_free(self):
        link = LinkSpec("l", 1 * GB, latency_s=1e-3)
        assert link.transfer_time(0) == 0.0
        assert link.transfer_time(-5) == 0.0


class TestComputeSpec:
    def test_compute_bound_regime(self):
        spec = ComputeSpec("g", 1e12, 1e15, kernel_overhead_s=0.0)
        assert spec.compute_time(1e12, 1) == pytest.approx(1.0)

    def test_memory_bound_regime(self):
        spec = ComputeSpec("g", 1e15, 1e9, kernel_overhead_s=0.0)
        assert spec.compute_time(1, 1e9) == pytest.approx(1.0)

    def test_kernel_overhead_per_kernel(self):
        spec = ComputeSpec("g", 1e12, 1e12, kernel_overhead_s=1e-3)
        base = spec.compute_time(0, 0, kernels=1)
        assert spec.compute_time(0, 0, kernels=5) == pytest.approx(5 * base)

    def test_roofline_takes_max_not_sum(self):
        spec = ComputeSpec("g", 1e12, 1e9, kernel_overhead_s=0.0)
        # 1s of compute and 1s of memory traffic overlap, not add.
        assert spec.compute_time(1e12, 1e9) == pytest.approx(1.0)


class TestEnvironments:
    """Table 2 of the paper."""

    def test_env1_matches_table2(self):
        assert ENV1.vram_bytes == 24 * GiB  # RTX 3090
        assert ENV1.dram_bytes == 256 * GiB
        assert ENV1.disk_link.bandwidth_bytes_per_s == pytest.approx(1 * GB)

    def test_env2_matches_table2(self):
        assert ENV2.vram_bytes == 80 * GiB  # H800
        assert ENV2.dram_bytes == 800 * GiB

    def test_env2_faster_than_env1(self):
        assert ENV2.pcie_h2d.bandwidth_bytes_per_s > ENV1.pcie_h2d.bandwidth_bytes_per_s
        assert ENV2.gpu.flops_per_s > ENV1.gpu.flops_per_s

    def test_registry(self):
        assert ENVIRONMENTS["env1"] is ENV1
        assert ENVIRONMENTS["env2"] is ENV2

    def test_usable_vram_below_capacity(self):
        assert 0 < ENV1.usable_vram() < ENV1.vram_bytes

    def test_expert_transfer_calibration(self):
        """§1: one Mixtral-8x7B expert takes ~21 ms over Env1's PCIe."""
        seconds = ENV1.pcie_h2d.transfer_time(MIXTRAL_8X7B.expert_bytes())
        assert 0.015 < seconds < 0.03

    def test_attention_compute_calibration(self):
        """§1: attention compute ~2.6 ms at batch size 16 on the 3090."""
        from repro.hardware.costmodel import CostModel

        cost = CostModel(MIXTRAL_8X7B, ENV1)
        seconds = cost.t_c_A(batch_size=16, new_tokens=1, context=512)
        assert 1e-3 < seconds < 5e-3

    def test_attention_io_imbalance(self):
        """The motivating gap: expert I/O dwarfs attention compute."""
        from repro.hardware.costmodel import CostModel

        cost = CostModel(MIXTRAL_8X7B, ENV1)
        assert cost.t_io_E() > 5 * cost.t_c_A(16, 1, 512)


class TestLinkRouting:
    def test_dram_vram_links(self):
        assert ENV1.link_for("dram", "vram") is ENV1.pcie_h2d
        assert ENV1.link_for("vram", "dram") is ENV1.pcie_d2h

    def test_disk_routes(self):
        assert ENV1.link_for("disk", "dram") is ENV1.disk_link

    def test_unknown_route_raises(self):
        with pytest.raises(ValueError):
            ENV1.link_for("vram", "vram")


class TestSpecChecks:
    """Values the timing formulas would divide by, or that no machine has."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bandwidth_bytes_per_s": 0.0},
            {"bandwidth_bytes_per_s": -1.0},
            {"bandwidth_bytes_per_s": 1 * GB, "latency_s": -1e-6},
        ],
    )
    def test_bad_link_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            LinkSpec("l", **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"flops_per_s": 0.0, "mem_bandwidth_bytes_per_s": 1e12},
            {"flops_per_s": 1e12, "mem_bandwidth_bytes_per_s": 0.0},
            {"flops_per_s": 1e12, "mem_bandwidth_bytes_per_s": 1e12,
             "kernel_overhead_s": -1e-6},
        ],
    )
    def test_bad_compute_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ComputeSpec("g", **kwargs)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"vram_bytes": -5},
            {"dram_bytes": -1},
            {"disk_bytes": -1},
            {"vram_usable_fraction": 0.0},
            {"vram_usable_fraction": 1.5},
            {"pinned_memory_speedup": 0.0},
        ],
    )
    def test_bad_machine_rejected(self, overrides):
        with pytest.raises(ConfigError):
            dataclasses.replace(ENV1, **overrides)
