"""Routing oracles: the interface schedulers use to obtain expert routing.

During simulation the scheduler needs, for every (step, layer), the expert
assignment of each in-flight token. A :class:`RoutingOracle` provides that
either from the synthetic router (full-scale benchmarks) or from a recorded
trace of the real numpy model (functional tests, small-scale runs). Every
scheduler in a comparison consumes the *same* oracle, so routing is held
constant across systems.

Prefill steps route ``batch_size * prompt_len`` tokens per batch; to keep
simulation cheap the oracle samples at most ``prefill_token_cap`` tokens and
reports a ``scale`` factor, which builders apply to token counts when
costing expert computation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from repro.obs import count, span
from repro.routing.synthetic import RoutingModelConfig, SyntheticRouter
from repro.routing.trace import ExpertTrace
from repro.routing.workload import Workload


def batch_slice_sizes(rows: int, n: int) -> list[int]:
    """Rows per batch slice, matching ``np.array_split(np.arange(rows), n)``:
    the first ``rows % n`` slices get one extra row."""
    base, extra = divmod(rows, n)
    return [base + 1 if b < extra else base for b in range(n)]


class RoutingStats(NamedTuple):
    """Token counts of one layer's routing split into ``n`` batch slices.

    Slices follow :func:`batch_slice_sizes`. Every field is an int
    tuple, so the stats are read-only and compact; with ``n == 1`` the
    per-batch fields share the per-expert objects.

    Attributes:
        counts: flat ``[n * E]`` tokens routed by batch ``b`` to expert
            ``e`` at index ``b * E + e``.
        totals: ``[E]`` tokens routed to each expert over all batches.
        pairs: flat indices ``b * E + e`` of the nonzero ``counts``, in
            ``(batch, expert)`` order.
        active: experts with at least one token, ascending.
        inactive: experts with no tokens, ascending.
    """

    counts: tuple[int, ...]
    totals: tuple[int, ...]
    pairs: tuple[int, ...]
    active: tuple[int, ...]
    inactive: tuple[int, ...]

    @classmethod
    def of(cls, assignments: np.ndarray, n: int, num_experts: int) -> "RoutingStats":
        """The stats of one layer's ``[n_tokens, top_k]`` assignments."""
        return StepStats.of(assignments[None], n, num_experts).layers[0]


class StepStats:
    """Token counts of every layer of one step split into ``n`` batch
    slices, with each layer's :class:`RoutingStats` derived on first use.

    Attributes:
        counts: ``[layers, n, E]`` tokens per (layer, batch, expert).
        totals: ``[layers, E]`` tokens per (layer, expert).
    """

    __slots__ = ("counts", "totals", "_layers")

    def __init__(self, counts: np.ndarray, totals: np.ndarray):
        self.counts = counts
        self.totals = totals
        self._layers: list[RoutingStats] | None = None

    @classmethod
    def of(cls, assignments, n: int, num_experts: int) -> "StepStats":
        """Count every layer with one ``bincount`` from the step's
        ``[layers, n_tokens, top_k]`` assignments (or a list of each
        layer's ``[n_tokens, top_k]``, token counts varying)."""
        num_layers = len(assignments)
        width = n * num_experts
        bases = np.arange(num_layers, dtype=np.int64) * width
        batches = np.arange(n, dtype=np.int64) * num_experts
        if isinstance(assignments, np.ndarray):
            offsets = bases[:, None] + np.repeat(
                batches, batch_slice_sizes(assignments.shape[1], n)
            )
            flat = (offsets[:, :, None] + assignments).ravel()
        else:
            flat = np.concatenate([
                ((base + np.repeat(batches, batch_slice_sizes(len(a), n)))[:, None] + a).ravel()
                for base, a in zip(bases.tolist(), assignments)
            ])
        counts = np.bincount(flat, minlength=num_layers * width).reshape(
            num_layers, n, num_experts
        )
        return cls(counts, counts.sum(axis=1))

    @property
    def layers(self) -> list[RoutingStats]:
        """Each layer's :class:`RoutingStats`."""
        if self._layers is None:
            num_layers, n, num_experts = self.counts.shape
            total_rows = [tuple(row) for row in self.totals.tolist()]
            actives = _row_entries(self.totals != 0)
            inactives = _row_entries(self.totals == 0)
            if n == 1:
                self._layers = [
                    RoutingStats(t, t, a, a, i)
                    for t, a, i in zip(total_rows, actives, inactives)
                ]
            else:
                flat = self.counts.reshape(num_layers, n * num_experts)
                self._layers = [
                    RoutingStats(tuple(c), t, p, a, i)
                    for c, t, p, a, i in zip(
                        flat.tolist(), total_rows, _row_entries(flat != 0), actives,
                        inactives,
                    )
                ]
        return self._layers


def _row_entries(mask: np.ndarray) -> list[tuple[int, ...]]:
    """Per row of a 2-D ``mask``, the ascending columns set in it."""
    rows, cols = np.nonzero(mask)
    ends = np.searchsorted(rows, np.arange(1, len(mask) + 1)).tolist()
    cols = cols.tolist()
    return [tuple(cols[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)]


@dataclass(frozen=True)
class LayerRouting:
    """Routing of one layer at one step.

    :meth:`stats` is derived on first use and kept on the instance, so
    every system reading a memoized routing with the same split shares
    one derivation.
    """

    layer: int
    assignments: np.ndarray  # [n_tokens, top_k]
    scale: float = 1.0  # token-count multiplier (prefill subsampling)
    _stats: RoutingStats | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_tokens(self) -> int:
        return int(self.assignments.shape[0])

    def stats(self, n: int, num_experts: int) -> RoutingStats:
        """Routing stats over ``n`` batch slices (the last split is cached;
        its field lengths identify ``(n, num_experts)``)."""
        stats = self._stats
        if (
            stats is None
            or len(stats.totals) != num_experts
            or len(stats.counts) != n * num_experts
        ):
            stats = RoutingStats.of(self.assignments, n, num_experts)
            object.__setattr__(self, "_stats", stats)
        return stats


class StepRouting:
    """Routing of every layer of one step: ``[layers, n_tokens, top_k]``
    assignments (a list of per-layer arrays when token counts vary by
    layer, as a recorded trace may) plus each layer's
    :class:`LayerRouting` view of them.

    Iterating yields the layers in order. :meth:`stats` counts every
    layer in one pass and keeps the last split, so the systems sharing a
    memoized step share one count.
    """

    def __init__(self, assignments, scale: float = 1.0):
        if not isinstance(assignments, np.ndarray) and len({a.shape for a in assignments}) == 1:
            assignments = np.stack(assignments)
        self.assignments = assignments
        self.scale = scale
        self.layers = [LayerRouting(layer, a, scale) for layer, a in enumerate(assignments)]
        self._stats: StepStats | None = None

    def __iter__(self) -> Iterator[LayerRouting]:
        return iter(self.layers)

    @property
    def primaries(self) -> np.ndarray:
        """``[layers, n_tokens]`` primary expert of every token."""
        return self.assignments[:, :, 0]

    def stats(self, n: int, num_experts: int) -> StepStats:
        """Every layer's stats over ``n`` batch slices (the last split is
        kept)."""
        stats = self._stats
        if stats is None or stats.counts.shape[1:] != (n, num_experts):
            stats = self._stats = StepStats.of(self.assignments, n, num_experts)
        return stats


class RoutingOracle:
    """Base interface: the :class:`StepRouting` of each generation step."""

    num_layers: int
    num_experts: int
    top_k: int

    def step_routing(self, step: int, workload: Workload) -> StepRouting:
        raise NotImplementedError


# Process-wide memo of sampled step routing. Synthetic streams are pure
# functions of (router config, prefill cap, oracle seed, step, token count),
# and comparison studies run many systems against the *same* oracle, so one
# sampling pass serves every system sharing the evaluation point. Bounded
# LRU: a full-scale step is ~0.5 MB of assignments plus each layer's
# routing stats once a builder reads them (int tuples, a few hundred bytes
# per layer), so the cap keeps this under ~64 MB.
_STEP_ROUTING_MEMO: OrderedDict = OrderedDict()
_STEP_ROUTING_MEMO_CAP = 96

# Routers by config. A router's tables (popularity, chain map, the pool
# tables it caches as it samples) are pure functions of its config, so
# the oracles of one config (every system and batch stream of a
# comparison, and the warm-up) share one router and its warm caches.
_ROUTERS: dict = {}


def clear_step_routing_memo() -> None:
    """Drop the process-wide step-routing memo and the shared routers
    (test/benchmark hygiene)."""
    _STEP_ROUTING_MEMO.clear()
    _ROUTERS.clear()


class SyntheticOracle(RoutingOracle):
    """Oracle backed by :class:`SyntheticRouter`; deterministic per seed.

    Sampled steps are memoized process-wide (the stream is a pure function
    of the oracle's configuration), so the baselines of a comparison study
    reuse the routing Klotski already sampled; assignments are returned
    read-only. See :func:`clear_step_routing_memo`. The router is built on
    first use: memo hits need only the config.
    """

    def __init__(
        self,
        config: RoutingModelConfig,
        *,
        prefill_token_cap: int = 2048,
        seed: int = 1234,
    ):
        self.config = config
        self._router: SyntheticRouter | None = None
        self.num_layers = config.num_layers
        self.num_experts = config.num_experts
        self.top_k = config.top_k
        self.prefill_token_cap = prefill_token_cap
        self.seed = seed

    @property
    def router(self) -> SyntheticRouter:
        """The synthetic router of this config (built on first use and
        shared by every oracle of the config; callers pass their own
        generator to it)."""
        if self._router is None:
            router = _ROUTERS.get(self.config)
            if router is None:
                if len(_ROUTERS) >= _STEP_ROUTING_MEMO_CAP:
                    _ROUTERS.clear()
                router = _ROUTERS[self.config] = SyntheticRouter(self.config)
            self._router = router
        return self._router

    def tokens_for_step(self, step: int, workload: Workload) -> tuple[int, float]:
        """(sampled token count, scale) for one step across the batch group."""
        if step == 0:
            actual = workload.prefill_tokens
            sampled = min(actual, self.prefill_token_cap)
            return sampled, actual / sampled
        return workload.total_sequences, 1.0

    def step_routing(self, step: int, workload: Workload) -> StepRouting:
        n_tokens, scale = self.tokens_for_step(step, workload)
        key = (
            self.config,
            self.prefill_token_cap,
            self.seed,
            step,
            n_tokens,
            scale,
        )
        cached = _STEP_ROUTING_MEMO.get(key)
        if cached is None:
            count("memo.step_routing.miss")
            with span("routing.sample", {"step": step, "tokens": n_tokens}):
                assignments = self.router.sample_step(
                    n_tokens, np.random.default_rng(self.seed * 100_003 + step)
                )
            assignments.setflags(write=False)
            cached = StepRouting(assignments, scale)
            if len(_STEP_ROUTING_MEMO) >= _STEP_ROUTING_MEMO_CAP:
                _STEP_ROUTING_MEMO.popitem(last=False)
            _STEP_ROUTING_MEMO[key] = cached
        else:
            count("memo.step_routing.hit")
            _STEP_ROUTING_MEMO.move_to_end(key)
        return cached


class TraceOracle(RoutingOracle):
    """Oracle replaying a recorded :class:`ExpertTrace` (e.g. from the
    numpy model), repeating the last step if the workload is longer."""

    def __init__(self, trace: ExpertTrace, top_k: int):
        if trace.num_steps == 0:
            raise ValueError("empty trace")
        self.trace = trace
        self.num_layers = trace.steps[0].num_layers
        self.num_experts = trace.num_experts
        self.top_k = top_k

    def step_routing(self, step: int, workload: Workload) -> StepRouting:
        src = self.trace.steps[min(step, self.trace.num_steps - 1)]
        return StepRouting(src.assignments)
