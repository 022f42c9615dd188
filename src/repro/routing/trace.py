"""Expert activation traces: record, aggregate, and analyze routing.

An *assignment* is an int array of shape ``[n_tokens, top_k]`` giving the
experts each token was routed to at one layer of one step. Traces collect
assignments across layers/steps and offer the aggregate views the paper
uses: per-layer expert frequencies (Figure 5 heatmaps), hot-expert sets, and
top-K coverage (§3.2: "K experts usually cover most of the inputs").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def expert_token_counts(assignments: np.ndarray, num_experts: int) -> np.ndarray:
    """Tokens routed to each expert (a token with top-k counts k times)."""
    if assignments.size == 0:
        return np.zeros(num_experts, dtype=np.int64)
    return np.bincount(assignments.reshape(-1), minlength=num_experts).astype(np.int64)


def activated_experts(assignments: np.ndarray) -> list[int]:
    """Distinct experts that received at least one token."""
    if assignments.size == 0:
        return []
    return sorted(int(e) for e in np.unique(assignments))


def hot_experts(counts: np.ndarray, k: int) -> list[int]:
    """The ``k`` most-loaded experts, busiest first (ties by expert id).

    ``counts`` may be an array or an int sequence.
    """
    return top_experts(np.asarray(counts), k).tolist()


def top_experts(counts: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``counts`` (or scores), its ``k`` highest columns,
    highest first, ties by column: :func:`hot_experts` row by row."""
    return np.argsort(-counts, axis=-1, kind="stable")[..., :k]


def coverage(counts: np.ndarray, experts: list[int]) -> float:
    """Fraction of routed tokens handled by ``experts``."""
    total = counts.sum()
    if total == 0:
        return 0.0
    return float(counts[list(experts)].sum() / total)


@dataclass
class StepTrace:
    """Routing of every layer for one generation step."""

    assignments: list[np.ndarray] = field(default_factory=list)

    def append(self, layer_assignments: np.ndarray) -> None:
        self.assignments.append(np.asarray(layer_assignments))

    @property
    def num_layers(self) -> int:
        return len(self.assignments)

    def layer(self, layer: int) -> np.ndarray:
        return self.assignments[layer]


@dataclass
class ExpertTrace:
    """Routing across steps; the unit produced by a full generation run."""

    num_experts: int
    steps: list[StepTrace] = field(default_factory=list)

    def append(self, step: StepTrace) -> None:
        self.steps.append(step)

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def layer_counts(self) -> np.ndarray:
        """``[num_layers, num_experts]`` token counts over the whole trace."""
        if not self.steps:
            return np.zeros((0, self.num_experts), dtype=np.int64)
        num_layers = self.steps[0].num_layers
        counts = np.zeros((num_layers, self.num_experts), dtype=np.int64)
        for step in self.steps:
            for layer, assignment in enumerate(step.assignments):
                counts[layer] += expert_token_counts(assignment, self.num_experts)
        return counts

    def popularity(self) -> np.ndarray:
        """Per-layer routing frequencies (rows sum to 1); Figure 5 heatmap."""
        counts = self.layer_counts().astype(np.float64)
        totals = counts.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return counts / totals

    def topk_coverage(self, k: int) -> np.ndarray:
        """Per-layer fraction of tokens covered by the k hottest experts."""
        pop = self.popularity()
        return np.sort(pop, axis=1)[:, ::-1][:, :k].sum(axis=1)
