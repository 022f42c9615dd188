"""Simulated hardware: specs and the cost model."""

from repro.hardware.costmodel import CostModel, OpCost
from repro.hardware.spec import ENV1, ENV2, ENVIRONMENTS, ComputeSpec, HardwareSpec, LinkSpec

__all__ = [
    "CostModel",
    "OpCost",
    "ENV1",
    "ENV2",
    "ENVIRONMENTS",
    "ComputeSpec",
    "HardwareSpec",
    "LinkSpec",
]
