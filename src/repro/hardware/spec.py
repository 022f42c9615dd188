"""Hardware specifications for the simulated inference environments.

The paper evaluates two environments (Table 2):

* **Environment 1** — NVIDIA RTX 3090 (24 GB), Intel Xeon Gold 5318Y with
  256 GB DRAM, 2 TB SSD read at ~1 GB/s, PCIe 4.0 x16.
* **Environment 2** — NVIDIA H800 (80 GB), Intel Xeon Platinum 8470 with
  800 GB DRAM, 1 TB SSD, PCIe 5.0 x16 (disk speed irrelevant: DRAM suffices).

Bandwidth values below are *effective* (measured-style) rather than
theoretical peaks, calibrated so that the motivating numbers in the paper
hold; e.g. transferring one Mixtral-8x7B expert (~336 MB in bf16) over
Env1's PCIe takes ~21 ms (§1), which implies ~16 GB/s effective host-to-
device bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

GB = 1_000_000_000
GiB = 1 << 30


def _check(spec, positive=(), non_negative=()) -> None:
    """Reject rates the timing formulas divide by, and negative sizes."""
    for name in positive:
        value = getattr(spec, name)
        if not value > 0:
            raise ConfigError(f"{name} must be > 0, got {value}")
    for name in non_negative:
        value = getattr(spec, name)
        if not value >= 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class LinkSpec:
    """A unidirectional data link (PCIe direction, or disk-to-DRAM)."""

    name: str
    bandwidth_bytes_per_s: float
    latency_s: float = 10e-6

    def __post_init__(self):
        _check(self, ("bandwidth_bytes_per_s",), ("latency_s",))

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` across this link."""
        if nbytes <= 0:
            return 0.0
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class ComputeSpec:
    """An execution resource (GPU or CPU) described by a simple roofline.

    ``time = kernel_overhead * kernels + max(flops / flops_per_s,
    bytes / mem_bandwidth)`` — compute-bound for large matmuls (prefill),
    memory-bound for decode-style GEMVs, with a per-kernel launch cost that
    dominates tiny ops.
    """

    name: str
    flops_per_s: float
    mem_bandwidth_bytes_per_s: float
    kernel_overhead_s: float = 30e-6

    def __post_init__(self):
        _check(
            self,
            ("flops_per_s", "mem_bandwidth_bytes_per_s"),
            ("kernel_overhead_s",),
        )

    def compute_time(self, flops: float, bytes_moved: float, kernels: int = 1) -> float:
        """Seconds to run an op with the given FLOP and byte footprint."""
        roofline = max(flops / self.flops_per_s, bytes_moved / self.mem_bandwidth_bytes_per_s)
        return self.kernel_overhead_s * kernels + roofline

    def compute_times(self, flops, bytes_moved, kernels: int = 1):
        """Vectorized :meth:`compute_time` over arrays of FLOP/byte counts.

        Elementwise IEEE operations match the scalar path bit-for-bit.
        """
        roofline = np.maximum(
            flops / self.flops_per_s,
            bytes_moved / self.mem_bandwidth_bytes_per_s,
        )
        return self.kernel_overhead_s * kernels + roofline


@dataclass(frozen=True)
class HardwareSpec:
    """A complete machine: GPU, CPU, three-level memory, and links."""

    name: str
    gpu: ComputeSpec
    cpu: ComputeSpec
    vram_bytes: int
    dram_bytes: int
    disk_bytes: int
    pcie_h2d: LinkSpec
    pcie_d2h: LinkSpec
    disk_link: LinkSpec
    # Fraction of VRAM usable for weights/KV after framework reserves.
    vram_usable_fraction: float = 0.92
    pinned_memory_speedup: float = 1.25

    def __post_init__(self):
        _check(
            self,
            ("pinned_memory_speedup",),
            ("vram_bytes", "dram_bytes", "disk_bytes"),
        )
        if not 0 < self.vram_usable_fraction <= 1:
            raise ConfigError(
                "vram_usable_fraction must be in (0, 1], got "
                f"{self.vram_usable_fraction}"
            )

    def usable_vram(self) -> int:
        """Bytes of VRAM available to tensors after framework reserve."""
        return int(self.vram_bytes * self.vram_usable_fraction)

    def link_for(self, src: str, dst: str) -> LinkSpec:
        """The link used to move data from memory level ``src`` to ``dst``."""
        route = (src, dst)
        if route == ("dram", "vram"):
            return self.pcie_h2d
        if route == ("vram", "dram"):
            return self.pcie_d2h
        if route in (("disk", "dram"), ("disk", "vram"), ("dram", "disk")):
            return self.disk_link
        raise ValueError(f"no link between {src!r} and {dst!r}")


def _rtx3090() -> ComputeSpec:
    # 71 TFLOPS peak bf16 tensor; ~45% achievable in framework kernels.
    return ComputeSpec(
        name="rtx3090",
        flops_per_s=32e12,
        mem_bandwidth_bytes_per_s=800 * GB,
        kernel_overhead_s=200e-6,
    )


def _h800() -> ComputeSpec:
    # ~990 TFLOPS peak bf16 (dense); ~40% achievable.
    return ComputeSpec(
        name="h800",
        flops_per_s=400e12,
        mem_bandwidth_bytes_per_s=3000 * GB,
        kernel_overhead_s=100e-6,
    )


def _xeon(name: str, flops: float) -> ComputeSpec:
    # Effective GEMV rates: expert weights stream from DRAM at a fraction of
    # peak bandwidth (Fiddler reports tens of ms per expert on such CPUs).
    return ComputeSpec(
        name=name,
        flops_per_s=flops,
        mem_bandwidth_bytes_per_s=45 * GB,
        kernel_overhead_s=5e-6,
    )


ENV1 = HardwareSpec(
    name="env1-rtx3090",
    gpu=_rtx3090(),
    cpu=_xeon("xeon-gold-5318y", 0.6e12),
    vram_bytes=24 * GiB,
    dram_bytes=256 * GiB,
    disk_bytes=2000 * GB,
    pcie_h2d=LinkSpec("pcie4-h2d", 16 * GB),
    pcie_d2h=LinkSpec("pcie4-d2h", 16 * GB),
    disk_link=LinkSpec("ssd-read", 1 * GB, latency_s=80e-6),
)

ENV2 = HardwareSpec(
    name="env2-h800",
    gpu=_h800(),
    cpu=_xeon("xeon-platinum-8470", 1.6e12),
    vram_bytes=80 * GiB,
    dram_bytes=800 * GiB,
    disk_bytes=1000 * GB,
    pcie_h2d=LinkSpec("pcie5-h2d", 40 * GB),
    pcie_d2h=LinkSpec("pcie5-d2h", 40 * GB),
    disk_link=LinkSpec("ssd-read", 3 * GB, latency_s=80e-6),
)

ENVIRONMENTS = {"env1": ENV1, "env2": ENV2}


def _register_presets() -> None:
    # The presets double as repro.api registry entries, so declarative
    # configs resolve them by name ({"env": "env1"}).
    from repro.api.registry import register_hardware_preset

    for key, spec in ENVIRONMENTS.items():
        register_hardware_preset(key, spec)


_register_presets()
