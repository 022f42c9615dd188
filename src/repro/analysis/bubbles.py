"""Bubble analysis: decomposing GPU idle time (paper §1, Figure 15).

*Inter-layer* bubbles are stalls before attention (or other cross-layer)
computation — the GPU waiting for the next layer's weights. *Intra-layer*
bubbles are stalls inside the MoE layer — waiting for expert (or gate)
transfers between expert computations. We classify each GPU idle gap by the
phase of the op whose start terminates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.schedule import (
    GPU,
    PHASE_ATTENTION,
    PHASE_EXPERT,
    PHASE_GATE,
    RESOURCE_CODES,
)
from repro.runtime.timeline import Timeline


@dataclass(frozen=True)
class BubbleReport:
    """Decomposition of one run's GPU idle time."""

    total_time: float
    busy_time: float
    inter_layer: float
    intra_layer: float
    other_idle: float

    @property
    def total_bubbles(self) -> float:
        return self.inter_layer + self.intra_layer + self.other_idle

    @property
    def bubble_fraction(self) -> float:
        if self.total_time <= 0:
            return 0.0
        return self.total_bubbles / self.total_time

    def summary(self) -> str:
        return (
            f"bubbles {self.bubble_fraction:.0%} of {self.total_time:.2f}s "
            f"(inter-layer {self.inter_layer:.2f}s, intra-layer "
            f"{self.intra_layer:.2f}s, other {self.other_idle:.2f}s)"
        )


def analyze_bubbles(timeline: Timeline) -> BubbleReport:
    """Classify every GPU idle gap of the timeline.

    GPU ops run FIFO, so issue order equals time order and the idle
    frontier is simply the previous op's end — the gap array is one
    vectorized subtraction. Only the (few) significant gaps are walked
    in Python, in time order, each added to its class's running sum.
    """
    ids = np.flatnonzero(timeline.resources == RESOURCE_CODES[GPU])
    inter = intra = other = 0.0
    if ids.size >= 2:
        gaps = timeline.starts[ids][1:] - timeline.ends[ids][:-1]
        phases = timeline.schedule._phases
        for k in np.flatnonzero(gaps > 1e-9).tolist():
            phase = phases[ids[k + 1]]
            if phase in (PHASE_EXPERT, PHASE_GATE):
                intra += float(gaps[k])
            elif phase == PHASE_ATTENTION:
                inter += float(gaps[k])
            else:
                other += float(gaps[k])
    return BubbleReport(
        total_time=timeline.makespan,
        busy_time=timeline.busy_time.get(GPU, 0.0),
        inter_layer=inter,
        intra_layer=intra,
        other_idle=other,
    )


def block_time(timeline: Timeline, layer: int, step: int | None = None) -> float:
    """Wall time spanned by one MoE block's ops (Figure 15's per-block view).

    ``step`` filters by the ``s{step}`` suffix convention of op labels; when
    None the first occurrence of the layer is measured.
    """
    ops = [
        e
        for e in timeline.executed
        if e.op.layer == layer
        and (step is None or e.op.label.endswith(f"s{step}"))
    ]
    if not ops:
        return 0.0
    return max(e.end for e in ops) - min(e.start for e in ops)
