"""Correlation-aware expert prefetcher (paper §6.2).

The prefetcher maintains an *expert correlation table*: for every layer,
the frequency with which a token routed to expert ``e`` (or expert path
``(e1, .., el)`` for path length ``l > 1``) at the previous layer(s) is
routed to expert ``e'`` at the current layer. The table is built during a
warm-up pre-run and updated online during inference (updates are not
persisted, matching the paper's choice to keep tasks from contaminating
each other).

At inference, each in-flight token's *tendency* for the upcoming layer is
looked up from its recent expert path; tendencies are aggregated across all
tokens of the multi-batch group, and the top-K experts are prefetched
(K defaults to the gate's top-k — §3.2 observes K experts usually cover
most tokens).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.routing.trace import expert_token_counts, hot_experts


class CorrelationTable:
    """Frequency table ``counts[layer][prev_path, next_expert]``.

    ``path_length=1`` (the paper's default, §8) uses a dense
    ``[layers, E, E]`` array; longer paths index a dense
    ``[layers, E**l, E]`` array via base-E path encoding. Layer 0 has no
    predecessor and uses a marginal popularity prior.
    """

    def __init__(self, num_layers: int, num_experts: int, path_length: int = 1):
        if path_length < 1:
            raise ValueError("path_length must be >= 1")
        if num_experts**path_length > 1_000_000:
            raise ValueError("path_length too large for this expert count")
        self.num_layers = num_layers
        self.num_experts = num_experts
        self.path_length = path_length
        self._marginal = np.zeros((num_layers, num_experts), dtype=np.float64)
        self._counts = np.zeros(
            (num_layers, num_experts**path_length, num_experts), dtype=np.float64
        )
        # Per-layer "has data" flags; avoid scanning the table on every
        # prediction just to know whether it is empty.
        self._has_data = np.zeros(num_layers, dtype=bool)

    # ---- recording -----------------------------------------------------------

    def encode_paths(self, history: np.ndarray) -> np.ndarray:
        """Base-E encode ``[n_tokens, path_length]`` histories to indices."""
        idx = np.zeros(len(history), dtype=np.int64)
        for col in range(history.shape[1]):
            idx = idx * self.num_experts + history[:, col]
        return idx

    def record_step(self, assignments: list[np.ndarray]) -> None:
        """Accumulate one step's routing (list of ``[n, k]`` per layer)."""
        primaries = [np.asarray(a)[:, 0] for a in assignments]
        for layer, assignment in enumerate(assignments):
            self._marginal[layer] += expert_token_counts(
                np.asarray(assignment), self.num_experts
            )
            if layer < self.path_length:
                continue
            if self.path_length == 1:
                paths = primaries[layer - 1]
            else:
                history = np.stack(
                    [
                        primaries[layer - self.path_length + i]
                        for i in range(self.path_length)
                    ],
                    axis=1,
                )
                paths = self.encode_paths(history)
            flat = paths[:, None] * self.num_experts + np.asarray(assignment)
            self._accumulate(layer, flat)

    def _accumulate(self, layer: int, flat: np.ndarray) -> None:
        """Add one routed-token batch to ``counts[layer]`` via bincount.

        ``np.bincount`` on the flattened (path, expert) indices is an
        order-of-magnitude faster than ``np.add.at`` for large expert
        counts (switch-base-128, path_length > 1).
        """
        table = self._counts[layer]
        table += np.bincount(
            flat.reshape(-1), minlength=table.size
        ).reshape(table.shape)
        if flat.size:
            self._has_data[layer] = True

    # ---- prediction ------------------------------------------------------------

    def tendencies(self, layer: int, history: np.ndarray | None) -> np.ndarray:
        """Aggregated expert scores for ``layer`` over all in-flight tokens.

        ``history`` is ``[n_tokens, path_length]`` primary experts from the
        preceding layers (None when unavailable, e.g. the first layers).
        """
        if history is None or layer < self.path_length:
            return self._marginal[layer].copy()
        if not self._has_data[layer]:
            return self._marginal[layer].copy()
        paths = history[:, 0] if self.path_length == 1 else self.encode_paths(history)
        table = self._counts[layer]
        # sum of gathered rows == (path histogram) @ table; both are exact
        # integer sums in float64, so the matvec is bit-identical and far
        # cheaper than materializing the [n_tokens, E] gather.
        path_counts = np.bincount(paths, minlength=table.shape[0])
        scores = path_counts @ table
        if scores.sum() == 0:
            return self._marginal[layer].copy()
        return scores

    def predict_hot(self, layer: int, history: np.ndarray | None, k: int) -> list[int]:
        """Top-``k`` predicted-hot experts for the upcoming layer."""
        return hot_experts(self.tendencies(layer, history), k)


class ExpertPrefetcher:
    """Stateful prefetcher driving hot-expert prediction during a run."""

    def __init__(
        self,
        num_layers: int,
        num_experts: int,
        *,
        top_k: int,
        path_length: int = 1,
        prefetch_k: int | None = None,
        online_update: bool = True,
    ):
        self.table = CorrelationTable(num_layers, num_experts, path_length)
        self.top_k = top_k
        self.prefetch_k = prefetch_k if prefetch_k is not None else top_k
        self.online_update = online_update
        self.path_length = path_length
        # Rolling primary-expert history of the current step's tokens.
        self._history: list[np.ndarray] = []
        # Accuracy bookkeeping (paper Figure 13).
        self.stats = PrefetchStats(num_layers)

    def warm_up(self, steps: list[list[np.ndarray]]) -> None:
        """Build the correlation table from pre-run routing traces."""
        for step in steps:
            self.table.record_step(step)

    def begin_step(self) -> None:
        self._history = []

    def predict(self, layer: int) -> list[int]:
        """Hot experts to prefetch for ``layer`` given the step so far."""
        history = None
        if len(self._history) >= self.path_length:
            if self.path_length == 1:
                history = self._history[-1][:, None]
            else:
                history = np.stack(self._history[-self.path_length :], axis=1)
        return self.table.predict_hot(layer, history, self.prefetch_k)

    def observe(
        self,
        layer: int,
        assignments: np.ndarray,
        predicted: list[int],
        counts: np.ndarray | Sequence[int] | None = None,
    ) -> None:
        """Feed back the gate's actual routing for ``layer``.

        ``counts`` may pass a precomputed per-expert token histogram of
        ``assignments`` (an array or int sequence; the schedule builder
        reads it from the routing's stats) to skip the recount.
        """
        assignments = np.asarray(assignments)
        self._history.append(assignments[:, 0])
        if counts is None:
            counts = expert_token_counts(assignments, self.table.num_experts)
        self.stats.record(layer, counts, predicted, self.prefetch_k)
        if self.online_update:
            self.table._marginal[layer] += np.asarray(counts)
            if layer >= self.path_length and len(self._history) > self.path_length:
                if self.path_length == 1:
                    paths = self._history[-2]
                else:
                    history = np.stack(
                        self._history[-self.path_length - 1 : -1], axis=1
                    )
                    paths = self.table.encode_paths(history)
                flat = paths[:, None] * self.table.num_experts + assignments
                self.table._accumulate(layer, flat)


class PrefetchStats:
    """Per-layer prefetch accuracy, mirroring Figure 13's two curves."""

    def __init__(self, num_layers: int):
        self.num_layers = num_layers
        self.hot_hits = np.zeros(num_layers)  # predicted ∩ actual top-K
        self.hot_total = np.zeros(num_layers)
        self.participated = np.zeros(num_layers)  # predicted with >=1 token
        self.predicted_total = np.zeros(num_layers)

    def record(
        self, layer: int, counts: np.ndarray | Sequence[int], predicted: list[int], k: int
    ) -> None:
        if not predicted:
            return
        actual_hot = set(hot_experts(counts, k))
        self.hot_hits[layer] += len(actual_hot.intersection(predicted))
        self.hot_total[layer] += len(predicted)
        self.participated[layer] += sum(1 for e in predicted if counts[e] > 0)
        self.predicted_total[layer] += len(predicted)

    def hot_accuracy(self) -> np.ndarray:
        """Per-layer fraction of prefetched experts that were truly hot."""
        total = np.where(self.hot_total == 0, 1, self.hot_total)
        return self.hot_hits / total

    def participation_rate(self) -> np.ndarray:
        """Per-layer fraction of prefetched experts that received tokens."""
        total = np.where(self.predicted_total == 0, 1, self.predicted_total)
        return self.participated / total
