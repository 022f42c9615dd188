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
from itertools import chain

import numpy as np

from repro.routing.trace import hot_experts, top_experts


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
        """Base-E encode ``[..., path_length]`` histories to indices."""
        idx = np.zeros(history.shape[:-1], dtype=np.int64)
        for col in range(history.shape[-1]):
            idx = idx * self.num_experts + history[..., col]
        return idx

    def _step_paths(self, primaries: np.ndarray) -> np.ndarray:
        """``[layers - path_length, n_tokens]`` path index of every token
        into layers ``path_length..``: its primaries at the preceding
        ``path_length`` layers."""
        p, depth = self.path_length, len(primaries)
        if p == 1:
            return primaries[:-1]
        return self.encode_paths(
            np.stack([primaries[i : depth - p + i] for i in range(p)], axis=-1)
        )

    def record_step(self, assignments, totals: np.ndarray | None = None) -> None:
        """Accumulate one step's routing (``[layers, n, k]``, or a list of
        ``[n, k]`` per layer): every layer's marginal (``totals``, the
        ``[layers, E]`` per-expert token counts, when known) and, from
        layer ``path_length`` on, its (path, expert) counts, in one
        ``bincount`` each."""
        assignments = np.asarray(assignments)
        num_layers, n = assignments.shape[:2]
        num_experts, p = self.num_experts, self.path_length
        if totals is None:
            totals = np.bincount(
                (np.arange(num_layers)[:, None, None] * num_experts + assignments).ravel(),
                minlength=num_layers * num_experts,
            ).reshape(num_layers, num_experts)
        self._marginal += totals
        if num_layers <= p:
            return
        rows = self._counts.shape[1]
        paths = self._step_paths(assignments[:, :, 0]) + (
            np.arange(p, num_layers)[:, None] * rows
        )
        flat = (paths[:, :, None] * num_experts + assignments[p:]).ravel()
        self._counts += np.bincount(flat, minlength=self._counts.size).reshape(
            self._counts.shape
        )
        if n:
            self._has_data[p:] = True

    # ---- prediction ------------------------------------------------------------

    def scores(self, first: int, paths: np.ndarray) -> np.ndarray:
        """``[m, E]`` aggregated expert scores of layers ``first..first+m-1``
        over their in-flight tokens, whose path indices are ``paths``
        (``[m, n_tokens]``).

        A layer's scores are the sum of its table rows over the tokens'
        paths, computed as (path histogram) @ table; both are exact
        integer sums in float64, so any summation order gives the same
        bits. A layer without a predecessor path, without recorded data,
        or whose tokens' paths were never seen falls back to its marginal
        popularity.
        """
        m = len(paths)
        layers = slice(first, first + m)
        marginal = self._marginal[layers]
        rows = self._counts.shape[1]
        hist = np.bincount(
            (np.arange(m)[:, None] * rows + paths).ravel(), minlength=m * rows
        ).reshape(m, 1, rows)
        scores = np.matmul(hist, self._counts[layers])[:, 0]
        known = (
            (np.arange(first, first + m) >= self.path_length)
            & self._has_data[layers]
            & (scores.sum(axis=1) != 0)
        )
        return np.where(known[:, None], scores, marginal)

    def tendencies(self, layer: int, history: np.ndarray | None) -> np.ndarray:
        """Aggregated expert scores for ``layer`` over all in-flight tokens.

        ``history`` is ``[n_tokens, path_length]`` primary experts from the
        preceding layers (None when unavailable, e.g. the first layers).
        """
        if history is None:
            return self._marginal[layer].copy()
        return self.scores(layer, self.encode_paths(history)[None])[0]

    def predict_hot(self, layer: int, history: np.ndarray | None, k: int) -> list[int]:
        """Top-``k`` predicted-hot experts for the upcoming layer."""
        return hot_experts(self.tendencies(layer, history), k)


class ExpertPrefetcher:
    """Stateful prefetcher driving hot-expert prediction during a run.

    A run feeds it one step at a time: :meth:`predict_step` forecasts
    every layer of the step from the table as it stands, then
    :meth:`observe_step` scores those forecasts and learns the step's
    routing. Within a step, layer ``l``'s forecast reads only table row
    ``l`` and the routing of earlier layers, and learning layer ``l``
    writes only row ``l``, so this equals predicting and observing layer
    by layer.
    """

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
        # Accuracy bookkeeping (paper Figure 13).
        self.stats = PrefetchStats(num_layers)

    def warm_up(self, steps) -> None:
        """Build the correlation table from pre-run routing traces (each
        a step's ``[layers, n, k]`` assignments), recorded as one step of
        all their tokens: every count is a per-token sum."""
        if len(steps):
            self.table.record_step(np.concatenate([np.asarray(s) for s in steps], axis=1))

    def predict_first(self) -> list[int]:
        """Hot experts to prefetch for layer 0 of the next step."""
        return hot_experts(self.table._marginal[0], self.prefetch_k)

    def predict_step(self, primaries: np.ndarray) -> list[list[int]]:
        """Hot experts to prefetch for every layer of one step whose tokens
        route to ``primaries`` (``[layers, n_tokens]`` primary experts);
        layer ``l``'s forecast sees the routing of layers before ``l``."""
        table, p = self.table, self.path_length
        scores = table._marginal.copy()
        if table.num_layers > p:
            scores[p:] = table.scores(p, table._step_paths(primaries))
        return top_experts(scores, self.prefetch_k).tolist()

    def observe_step(
        self, assignments: np.ndarray, totals: np.ndarray, predicted: list[list[int]]
    ) -> None:
        """Feed back one step's actual routing: ``[layers, n, k]``
        assignments, their ``[layers, E]`` per-expert token counts, and the
        experts prefetched for each layer."""
        self.stats.record_step(totals, predicted, self.prefetch_k)
        if self.online_update:
            self.table.record_step(assignments, totals)


class PrefetchStats:
    """Per-layer prefetch accuracy, mirroring Figure 13's two curves."""

    def __init__(self, num_layers: int):
        self.num_layers = num_layers
        self.hot_hits = np.zeros(num_layers)  # predicted ∩ actual top-K
        self.hot_total = np.zeros(num_layers)
        self.participated = np.zeros(num_layers)  # predicted with >=1 token
        self.predicted_total = np.zeros(num_layers)

    def record_step(
        self, totals: np.ndarray, predicted: Sequence[Sequence[int]], k: int
    ) -> None:
        """Score one step: ``totals[l]`` is layer ``l``'s per-expert token
        count, ``predicted[l]`` its (distinct) prefetched experts."""
        lengths = np.fromiter(map(len, predicted), dtype=np.int64, count=len(predicted))
        if not lengths.any():
            return
        totals = np.asarray(totals)
        layers = np.repeat(np.arange(len(predicted)), lengths)
        experts = np.fromiter(chain.from_iterable(predicted), dtype=np.int64)
        hot = np.zeros(totals.shape, dtype=bool)
        top = top_experts(totals, k)
        hot[np.arange(len(totals))[:, None], top] = True
        self.hot_hits += np.bincount(
            layers, weights=hot[layers, experts], minlength=self.num_layers
        )
        self.participated += np.bincount(
            layers, weights=totals[layers, experts] > 0, minlength=self.num_layers
        )
        self.hot_total += lengths
        self.predicted_total += lengths

    def hot_accuracy(self) -> np.ndarray:
        """Per-layer fraction of prefetched experts that were truly hot."""
        total = np.where(self.hot_total == 0, 1, self.hot_total)
        return self.hot_hits / total

    def participation_rate(self) -> np.ndarray:
        """Per-layer fraction of prefetched experts that received tokens."""
        total = np.where(self.predicted_total == 0, 1, self.predicted_total)
        return self.participated / total
