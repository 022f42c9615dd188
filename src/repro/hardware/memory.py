"""Capacity-tracked memory pools and the VRAM/DRAM/disk hierarchy.

Schedulers allocate and free named tensors in pools; the pools enforce
capacity (raising :class:`~repro.errors.OutOfMemoryError` exactly where a
real runtime would hit a CUDA/host OOM) and record a usage timeline so that
experiments like the paper's Figure 12 (GPU memory usage over the prefill)
can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OutOfMemoryError

VRAM = "vram"
DRAM = "dram"
DISK = "disk"
LEVELS = (VRAM, DRAM, DISK)


@dataclass
class _Allocation:
    nbytes: int
    tag: str


class MemoryPool:
    """One level of the memory hierarchy with capacity accounting.

    Tracks live named allocations, current and peak usage, and an optional
    ``(time, used_bytes)`` usage timeline for plotting.
    """

    def __init__(self, name: str, capacity_bytes: int):
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.name = name
        self.capacity = capacity_bytes
        self.used = 0
        self.peak = 0
        self._allocations: dict[str, _Allocation] = {}
        self.usage_timeline: list[tuple[float, int]] = []

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def contains(self, tensor_id: str) -> bool:
        return tensor_id in self._allocations

    def size_of(self, tensor_id: str) -> int:
        return self._allocations[tensor_id].nbytes

    def alloc(self, tensor_id: str, nbytes: int, *, time: float = 0.0, tag: str = "") -> None:
        """Reserve ``nbytes`` for ``tensor_id``; raises on OOM or double alloc."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if tensor_id in self._allocations:
            raise ValueError(f"tensor {tensor_id!r} already allocated in {self.name}")
        if self.used + nbytes > self.capacity:
            raise OutOfMemoryError(self.name, nbytes, self.free)
        self._allocations[tensor_id] = _Allocation(nbytes, tag)
        self.used += nbytes
        self.peak = max(self.peak, self.used)
        self.usage_timeline.append((time, self.used))

    def free_tensor(self, tensor_id: str, *, time: float = 0.0) -> int:
        """Release ``tensor_id``; returns the freed byte count."""
        allocation = self._allocations.pop(tensor_id, None)
        if allocation is None:
            raise KeyError(f"tensor {tensor_id!r} not allocated in {self.name}")
        self.used -= allocation.nbytes
        self.usage_timeline.append((time, self.used))
        return allocation.nbytes

    def live_tensors(self) -> list[str]:
        return list(self._allocations)

    def reset(self) -> None:
        self._allocations.clear()
        self.used = 0
        self.peak = 0
        self.usage_timeline.clear()


@dataclass
class MemoryHierarchy:
    """The three-level VRAM/DRAM/disk memory system of one machine."""

    vram: MemoryPool
    dram: MemoryPool
    disk: MemoryPool

    @classmethod
    def from_spec(cls, spec) -> "MemoryHierarchy":
        """Build pools sized from a :class:`~repro.hardware.spec.HardwareSpec`."""
        return cls(
            vram=MemoryPool(VRAM, spec.usable_vram()),
            dram=MemoryPool(DRAM, spec.dram_bytes),
            disk=MemoryPool(DISK, spec.disk_bytes),
        )

    def pool(self, level: str) -> MemoryPool:
        if level == VRAM:
            return self.vram
        if level == DRAM:
            return self.dram
        if level == DISK:
            return self.disk
        raise KeyError(f"unknown memory level {level!r}")

    def location_of(self, tensor_id: str) -> str | None:
        """The level currently holding ``tensor_id``, or None."""
        for level in LEVELS:
            if self.pool(level).contains(tensor_id):
                return level
        return None

    def total_used(self) -> int:
        return self.vram.used + self.dram.used + self.disk.used

    def reset(self) -> None:
        for level in LEVELS:
            self.pool(level).reset()
