"""Expert-aware multi-batch pipeline schedule builder (paper §5, Alg. 1).

This module turns one generation workload into a :class:`Schedule` — the op
DAG executed by the simulator. The builder implements the full paradigm:

* **multi-batch weight sharing** — the ``n`` batches of a group run
  back-to-back through each layer, so one weight transfer serves ``n``
  computations (zig-zag block schedule);
* **expert-aware prefetch** — during the attention phase only the gate and
  the K predicted-hot experts of the next MoE layer are transferred; cold
  experts stream on demand the moment a gate requests them;
* **expert-major ordering** — expert computation is grouped by expert and
  ordered hot-first / transfer-order (see :mod:`repro.core.ordering`);
* **immediate release** — an expert's VRAM is freed right after its last
  computation, and every stream interaction of Algorithm 1 (weight
  prefetch, on-demand expert transfer, KV load, KV store) appears as
  dependency edges on the FIFO ``h2d``/``d2h`` resources.

Feature flags turn individual mechanisms off, which yields both the
ablation ladder of Table 3 and several baselines (FlexGen-like = multi-batch
with whole-MoE-layer prefetch; Accelerate-like = no overlap; Fiddler-like =
CPU expert computation), all on identical substrates.

Emission runs in two passes per :meth:`PipelineBuilder.build` call:

* **decide** makes one array pass per step (:meth:`_decide_step`). A
  step repeats one per-layer op template — attention block, gates (or
  dense FFNs), cold on-demand transfers, expert ops, immediate frees,
  next-layer prefetch — between an embed and an LM-head op, and the
  template's sizes follow from the step's tables alone: the routing
  counts, the prefetcher's forecasts (one ``predict_step`` /
  ``observe_step`` per step), the expert order and cold set, and the
  resident and on-disk weight masks. The pass sizes every segment of
  the step (a disk-spilled weight adds its read before its copy),
  places all of the step's ops with one cumsum, and records the ops'
  columns, their ``(op, dependency)`` pairs and their memory effects as
  arrays. The ``[layers, stride]`` matrix of the transfer that made each
  weight slot ready gives attention, gate and expert dependencies and
  the frees; without overlap (Accelerate-style synchronous loading) the
  last transfer and compute before an op are searches over the step's
  sorted transfer and compute ops. Only the layer-0 weights prefetched
  at a step's tail, the last head, transfer and compute ops, and the
  group's KV tensors carry over to the next step.
* **materialize** concatenates the arrays of every group decided since
  the last call, puts the columns in op order, turns the dependency
  pairs into sorted deduplicated tuples, orders the memory effects into
  attachment order (frees in release order) with one lexsort, and
  appends everything with one :meth:`Schedule.extend_raw` call; labels
  stay deferred until someone reads them.

The ``tests/goldens/pipeline-*-small.rows.json`` goldens pin every column,
and ``tests/test_emission_differential.py`` holds the pass to the per-layer
decider it replaced. One builder serves a whole run: sequential systems
call :meth:`decide` once per batch with a new oracle (and prefetcher) and
materialize once, so only the per-group decision state resets between
calls, while placement-derived tables (weight bytes and transfer times,
residency, split shapes) persist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.sparse_attention import SparseAttentionConfig
from repro.core.ordering import ordered_step_experts
from repro.core.placement import DISK, VRAM, PlacementPlan
from repro.core.prefetcher import ExpertPrefetcher
from repro.hardware.costmodel import CostModel, OpCost
from repro.model.tensors import TensorInventory, attn_id, expert_id, gate_id
from repro.obs import span
from repro.routing.oracle import LayerRouting, RoutingOracle, batch_slice_sizes
from repro.routing.workload import Workload
from repro.runtime.schedule import (
    CPU,
    D2H,
    DISK_IO,
    EV_ALLOC,
    EV_FREE,
    GPU,
    H2D,
    H2D_OD,
    PHASE_ATTENTION,
    PHASE_EXPERT,
    PHASE_GATE,
    PHASE_KV,
    PHASE_OTHER,
    PHASE_TRANSFER,
    RESOURCE_CODES,
    Schedule,
    gc_paused,
)

QUANT_BYTES_FACTOR = 0.28  # 4-bit weights + group scale/zero metadata

_GPU = RESOURCE_CODES[GPU]
_CPU = RESOURCE_CODES[CPU]
_H2D = RESOURCE_CODES[H2D]
_H2D_OD = RESOURCE_CODES[H2D_OD]
_D2H = RESOURCE_CODES[D2H]
_DISK = RESOURCE_CODES[DISK_IO]

# Phase codes of the materialized phase column.
_PHASES = np.array(
    [PHASE_OTHER, PHASE_TRANSFER, PHASE_ATTENTION, PHASE_KV, PHASE_GATE, PHASE_EXPERT],
    dtype=object,
)
_P_OTHER, _P_TRANSFER, _P_ATTN, _P_KV, _P_GATE, _P_EXPERT = range(6)

# Label formats by label code: ``l`` layer, ``b`` batch, ``s`` step, ``x``
# expert, ``t`` tensor id (transfer rows keep their weight index in ``x``).
_LABELS = (
    "init:resident", "embed:s{s}", "head:s{s}", "h2d:{t}", "disk:{t}",
    "kvload:L{l}b{b}s{s}", "attn:L{l}b{b}s{s}", "kvstore:L{l}b{b}s{s}",
    "gate:L{l}b{b}s{s}", "ffn:L{l}b{b}s{s}", "exp{x}:L{l}b{b}s{s}",
    "exp{x}:L{l}s{s}", "d2h:hid:L{l}e{x}s{s}", "cpu-exp{x}:L{l}s{s}",
    "h2d:hid:L{l}e{x}s{s}",
)
(_L_INIT, _L_EMBED, _L_HEAD, _L_H2D, _L_DISK, _L_KVLOAD, _L_ATTN, _L_KVSTORE,
 _L_GATE, _L_FFN, _L_EXP_B, _L_EXP, _L_D2H_HID, _L_CPU_EXP, _L_H2D_HID) = range(15)

# A batch's attention block by its op count: (label, resource, phase) of
# the kv load (KV streamed from DRAM), the attention and the kv store.
_ATTN_BLOCKS = {
    1: ((_L_ATTN, _GPU, _P_ATTN),),
    2: ((_L_ATTN, _GPU, _P_ATTN), (_L_KVSTORE, _D2H, _P_KV)),
    3: ((_L_KVLOAD, _H2D, _P_KV), (_L_ATTN, _GPU, _P_ATTN), (_L_KVSTORE, _D2H, _P_KV)),
}


def _render_labels(codes, xs, layers, batches, steps, tids) -> list[str]:
    """Render one build's deferred labels (see :data:`_LABELS`)."""
    return [
        _LABELS[c].format(l=l, b=b, s=s, x=x, t=tids[x] if c in (_L_H2D, _L_DISK) else "")
        for c, x, l, b, s in zip(
            codes.tolist(), xs.tolist(), layers.tolist(), batches.tolist(), steps.tolist()
        )
    ]


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The concatenated ``arange(lo[i], hi[i])``."""
    lengths = hi - lo
    ends = np.cumsum(lengths)
    return np.repeat(lo - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0)


def _dep_tuples(rows: np.ndarray, deps: np.ndarray, count: int, ids: np.ndarray) -> np.ndarray:
    """Per row ``0..count-1``, the sorted distinct ``deps`` paired with it
    as a tuple of ``ids`` (an object array, so equal op ids share one int
    object), in an object array.

    The rows are ordered by dependency count; each count's entries are
    gathered from ``ids`` at once and grouped into tuples of that width.
    """
    key = np.sort(rows * len(ids) + deps)
    if key.size:
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    rows, deps = np.divmod(key, len(ids))
    lengths = np.bincount(rows, minlength=count)
    by_length = np.argsort(lengths, kind="stable")
    starts = np.cumsum(lengths) - lengths
    per_width = np.bincount(lengths, minlength=1)
    out: list[tuple] = [()] * int(per_width[0])
    lo = len(out)
    for width in (np.flatnonzero(per_width[1:]) + 1).tolist():
        hi = lo + int(per_width[width])
        first = starts[by_length[lo:hi]]
        flat = ids[deps[(first[:, None] + np.arange(width)).ravel()]].tolist()
        out += zip(*[iter(flat)] * width)
        lo = hi
    tuples = np.empty(count, dtype=object)
    tuples[by_length] = _objects(out)
    return tuples


def _objects(items: list) -> np.ndarray:
    """A 1-D object array of ``items`` (tuples stay single elements)."""
    return np.fromiter(items, dtype=object, count=len(items))


@dataclass(frozen=True)
class PipelineFeatures:
    """Mechanism switches; defaults are full Klotski."""

    overlap: bool = True  # prefetch next layer during current compute
    hot_prefetch: bool = True  # False: transfer the whole MoE layer
    adjust_order: bool = True  # expert-major hot-first ordering
    quantize: bool = False  # 4-bit expert + attention weights
    cpu_experts: bool = False  # Fiddler-style CPU expert execution

    @classmethod
    def klotski(cls, quantize: bool = False) -> "PipelineFeatures":
        return cls(quantize=quantize)

    @classmethod
    def simple_pipeline(cls) -> "PipelineFeatures":
        """Single-batch whole-layer prefetch (ablation baseline)."""
        return cls(hot_prefetch=False, adjust_order=False)


@dataclass
class BuildResult:
    """Schedule plus metadata needed to derive metrics."""

    schedule: Schedule
    step_last_op: list[int] = field(default_factory=list)
    groups_built: int = 0


@dataclass
class _StepCosts:
    """The attention block's shape and durations, constant within a step."""

    m: int  # attention-block ops per batch (1, 2 or 3; see _ATTN_BLOCKS)
    attn_durs: list[float]  # the attention block's n * m durations
    kv_alloc_delta: int




# A CPU round trip's resources and label codes.
_TRIP_RES = np.array([_D2H, _CPU, _H2D])
_TRIP_LABELS = np.array([_L_D2H_HID, _L_CPU_EXP, _L_H2D_HID])

# Columns of the unit table: one row per layer unit (a layer of a step).
(_U_START, _U_STEP, _U_LAYER, _U_LAST_ATTN, _U_LAST_GATE, _U_TAIL, _U_NEXT, _U_BLO,
 _U_BHI, _U_NOD) = range(10)


class _Decisions:
    """What the decide pass records until the next materialize.

    Op ids are absolute (``start`` is the length of the schedule the
    decisions were made for); ``init`` marks the resident blob's op 0.
    Each step appends arrays:

    * ``units``: a ``[layers, 10]`` unit table (see the ``_U_*``
      columns): first op, step, layer, the last attention and gate ops,
      the tail (the last op of the layer's barrier), the first op after
      the layer's experts, the previous layer's barrier as an op range
      (the first layer's: the embed) and, without overlap, the last
      transfer before the unit;
      plus the unit's ``[stride]`` row of the ready-transfer matrix
      (``ready``) and of each expert slot's last op (``last``; -1: none);
    * ``steps``: the step's embed, head, durations and units;
    * op rows: ``prefetches`` (copy ops, weights, runs) on the prefetch
      stream, ``on_demand`` (copy ops, weights) on the on-demand stream,
      ``experts`` (GPU expert ops, durations, layers, experts, batches)
      and ``trips`` (CPU round trips); a transfer's disk read is the op
      before its copy;
    * dependencies: ``pairs`` ``(op, dependency)``, ``ranges`` ``(op,
      first, end)``, ``prefix`` ``(unit, dependency)`` additions to a
      unit's attention prefix and ``run_pairs`` / ``run_ranges``, those of
      a prefetch run (a run's transfers share one dependency tuple);
    * memory effects besides transfer allocations and layer frees:
      ``allocs`` (KV growth), ``frees`` (CPU-path experts) and per group
      ``releases`` (its KV at its last head), keyed by weight index or
      ``len(tids) + i`` for the i-th ``extra`` tensor.
    """

    def __init__(self, start: int):
        self.start = start
        self.nops = start  # the next op id
        self.init = False
        self.nunits = self.nruns = 0
        self.units: list[np.ndarray] = []
        self.ready: list[np.ndarray] = []
        self.last: list[np.ndarray] = []
        self.steps: list[tuple] = []
        self.prefetches: list[tuple] = []
        self.on_demand: list[tuple] = []
        self.experts: list[tuple] = []
        self.trips: list[tuple] = []
        self.pairs: list[tuple] = []
        self.ranges: list[tuple] = []
        self.prefix: list[tuple] = []
        self.run_pairs: list[tuple] = []
        self.run_ranges: list[tuple] = []
        self.allocs: list[tuple] = []
        self.frees: list[tuple] = []
        self.releases: list[tuple] = []
        self.extra_tids: list[str] = []
        self.extra_nbytes: list[int] = []


class _Group:
    """Decision state one step hands to the next within a batch group."""

    def __init__(self, stride: int):
        # Op of the transfer that made each layer-0 weight slot ready at
        # the previous step's tail (-1: none).
        self.carry = np.full(stride, -1, dtype=np.int64)
        self.head = -1  # the previous step's LM head
        self.last_transfer = -1  # the last weight copy issued
        self.kv_keys: list[int] = []


class PipelineBuilder:
    """Builds the op DAG for one batch group over a full generation."""

    def __init__(
        self,
        *,
        cost_model: CostModel,
        inventory: TensorInventory,
        oracle: RoutingOracle,
        workload: Workload,
        placement: PlacementPlan,
        prefetcher: ExpertPrefetcher | None,
        features: PipelineFeatures | None = None,
        sparse_attention: SparseAttentionConfig | None = None,
    ):
        self.cost = cost_model
        self.model = cost_model.model
        self.inventory = inventory
        self.oracle = oracle
        self.workload = workload
        self.placement = placement
        self.prefetcher = prefetcher
        self.features = features or PipelineFeatures()
        self.sparse_attention = sparse_attention or SparseAttentionConfig()
        self.n = workload.num_batches
        self._dense = self.model.is_dense
        self._kv_bytes_per_token = self.model.kv_bytes_per_token()
        self._kv_store = placement.kv_level != "vram"
        # (rows, scale) -> per-batch gate / FFN durations.
        self._block_durs: dict[tuple[int, float], list[float]] = {}
        # (scale, on_cpu) -> expert duration by routed token count.
        self._dur_tables: dict[tuple[float, bool], np.ndarray] = {}
        # Attention-block shape m -> the layer unit's op template.
        self._templates: dict[int, tuple] = {}
        # (step, rows, scale) -> the step's costs and unit durations.
        self._step_memo: dict[tuple, tuple] = {}
        # step -> the names of its KV growth tensors (KV kept in VRAM).
        self._kv_names: dict[int, list[str]] = {}
        self._weight_tables()
        self._pending: _Decisions | None = None

    def _weight_tables(self) -> None:
        """Per-weight tables, indexed ``w = layer * stride + slot`` (slot 0
        attention, 1 gate, ``2 + e`` expert ``e``; a dense FFN is slot 2),
        and the static prefetch candidates."""
        model, placement, features = self.model, self.placement, self.features
        num_layers, num_experts = model.num_layers, model.num_experts
        self._stride = stride = num_experts + 2
        tids: list[str] = []
        for layer in range(num_layers):
            tids += [attn_id(layer), gate_id(layer)]
            tids += [expert_id(layer, e) for e in range(num_experts)]
        self._tids = tids
        nbytes = [self.inventory.nbytes(t) if t in self.inventory else 0 for t in tids]
        if features.quantize:  # attention and experts, not gates
            nbytes = [
                nb if w % stride == 1 else int(nb * QUANT_BYTES_FACTOR)
                for w, nb in enumerate(nbytes)
            ]
        self._nbytes = nbytes
        transfer_time, pinned = self.cost.transfer_time, placement.pinned
        self._h2d_durs = np.array(
            [transfer_time(nb, "dram", "vram", pinned=pinned) for nb in nbytes]
        )
        self._disk_durs = np.array([transfer_time(nb, "disk", "dram") for nb in nbytes])
        levels = [placement.location.get(t) for t in tids]
        self._resident = np.array([lv == VRAM for lv in levels]).reshape(num_layers, stride)
        # Ops per transfer: a spilled weight's disk read, then its copy.
        self._cost = 1 + np.array([lv == DISK for lv in levels], dtype=np.int64)
        if model.is_dense:
            static_hot = [0]
        elif features.cpu_experts:
            static_hot = []
        elif not features.hot_prefetch:
            static_hot = list(range(num_experts))
        else:
            static_hot = list(range(min(model.top_k, num_experts)))
        self._static_hot = static_hot
        # Prefetch candidates, in issue order: the attention (and gate)
        # weights, then the hot experts; rows are layers 0..L-1, then
        # layer 0 again (the next step's, prefetched at a step's tail).
        self._block_slots = np.array([0] if model.is_dense else [0, 1], dtype=np.int64)
        self._gate_slot = 2 if model.is_dense else 1
        self._pf_layers = np.append(np.arange(num_layers), 0)
        slots = np.concatenate([self._block_slots, np.array(static_hot, dtype=np.int64) + 2])
        self._static_pf = self._candidates(np.broadcast_to(slots, (num_layers + 1, len(slots))))
        in_vram = self._resident[:, 2:].copy()
        in_vram[:, static_hot] = True
        self._static_in_vram = in_vram
        self._cold_cost = self._cost.reshape(num_layers, stride)[:, 2:]

    def _candidates(self, slots: np.ndarray) -> tuple:
        """``[layers + 1, k]`` candidate slots with their weights, whether
        to transfer them (not resident) and ops per transfer."""
        layers = self._pf_layers[:, None]
        w = layers * self._stride + slots
        return slots, w, ~self._resident[layers, slots], self._cost[w]

    # ---- per-step and per-routing costs -----------------------------------------

    def _step_costs(self, step: int, new_tokens: int, context: int) -> _StepCosts:
        """Everything constant across the layers and batches of one step."""
        model = self.model
        wl = self.workload
        cost_model, sparse = self.cost, self.sparse_attention
        context_eff = sparse.effective_context(context)
        cost = cost_model.attention_cost(wl.batch_size, new_tokens, context_eff)
        if self.features.quantize:
            cost = cost.merged(cost_model.dequant_cost(model.attention_bytes()))
        attn_dur = cost_model.gpu_time(cost)
        pinned = self.placement.pinned

        kv_stream = self.placement.kv_level == "dram" and step > 0
        delta = int(wl.batch_size * new_tokens * self._kv_bytes_per_token)
        kv_store_dur = cost_model.transfer_time(delta, "vram", "dram", pinned=pinned)
        grown = sparse.effective_context(wl.context_at(step))
        prev = sparse.effective_context(max(0, wl.context_at(step) - new_tokens))
        kv_alloc_delta = int(wl.batch_size * (grown - prev) * self._kv_bytes_per_token)
        if kv_stream and self._kv_store:
            kv_bytes = int(wl.batch_size * context_eff * self._kv_bytes_per_token)
            kv_load_dur = cost_model.transfer_time(kv_bytes, "dram", "vram", pinned=pinned)
            m, attn_durs = 3, [kv_load_dur, attn_dur, kv_store_dur] * self.n
        elif self._kv_store:
            m, attn_durs = 2, [attn_dur, kv_store_dur] * self.n
        else:
            m, attn_durs = 1, [attn_dur] * self.n

        return _StepCosts(m=m, attn_durs=attn_durs, kv_alloc_delta=kv_alloc_delta)

    def _gate_or_ffn_durs(self, rows: int, scale: float) -> list[float]:
        """Per-batch gate durations (MoE) or dense FFN durations for ``rows``
        routed rows, cached per ``(rows, scale)``; equal slice sizes share
        one costing."""
        key = (rows, scale)
        durs = self._block_durs.get(key)
        if durs is None:
            cost_model = self.cost
            sizes = batch_slice_sizes(rows, self.n)
            by_size: dict[int, float] = {}
            for size in set(sizes):
                if self.model.is_dense:
                    cost = cost_model.expert_cost(max(1.0, size * scale))
                    if self.features.quantize:
                        cost = cost.merged(
                            cost_model.dequant_cost(self.model.expert_bytes())
                        )
                else:
                    cost = cost_model.gate_cost(max(1, int(size * scale)))
                by_size[size] = cost_model.gpu_time(cost)
            durs = self._block_durs[key] = [by_size[size] for size in sizes]
        return durs

    def _duration_table(self, routing: LayerRouting, on_cpu: bool = False) -> np.ndarray:
        """Expert durations indexed by routed token count for ``routing``.

        Entry ``c`` costs ``max(1, c * scale)`` tokens. One vectorized
        ``expert_times`` call fills the table per ``(scale, on_cpu)``; its
        operations are elementwise IEEE ones, so every entry is
        bit-identical to costing that count on its own. A token routes to
        each expert at most once per top-k slot, so no count exceeds the
        assignment size.
        """
        scale, size = routing.scale, routing.assignments.size
        key = (scale, on_cpu)
        table = self._dur_tables.get(key)
        if table is None or len(table) <= size:
            table = self._dur_tables[key] = self.cost.expert_times(
                np.maximum(1.0, np.arange(size + 1) * scale),
                quantize=self.features.quantize,
                on_cpu=on_cpu,
            )
        return table

    def _step_tables(self, step: int, routing) -> tuple:
        """A step's :class:`_StepCosts`, its units' ``[1 or layers,
        n * (m + 1)]`` durations and its embed duration (memoized while
        layers share a token count, as every synthetic step does)."""
        a, scale = routing.assignments, routing.scale
        key = (step, a.shape[1], scale) if isinstance(a, np.ndarray) else None
        tables = self._step_memo.get(key)
        if tables is None:
            wl, model = self.workload, self.model
            new_tokens = wl.prompt_len if step == 0 else 1
            context = wl.prompt_len if step == 0 else wl.context_at(step)
            stp = self._step_costs(step, new_tokens, context)
            rows = [a.shape[1]] if key else [len(x) for x in a]
            durs = np.array([stp.attn_durs + self._gate_or_ffn_durs(r, scale) for r in rows])
            embed = self.cost.gpu_time(OpCost(
                0.0, wl.total_sequences * new_tokens * model.hidden_size * model.dtype_bytes, 1
            ))
            tables = (stp, durs, embed)
            if key:
                self._step_memo[key] = tables
        return tables

    def _template(self, m: int) -> tuple:
        """The layer unit's op template for attention blocks of ``m`` ops
        (``n * m`` attention-block ops, then ``n`` gate or dense FFN ops):
        per-op label code, resource, phase and batch arrays and the
        offsets of the attention ops and the gates (a kv load is the op
        before its attention, a kv store the op after)."""
        template = self._templates.get(m)
        if template is None:
            n, block = self.n, _ATTN_BLOCKS[m]
            gate = (_L_FFN, _GPU, _P_EXPERT) if self._dense else (_L_GATE, _GPU, _P_GATE)
            rows = [entry for _ in range(n) for entry in block] + [gate] * n
            code, res, phase = (np.array(c, dtype=np.int64) for c in zip(*rows))
            batch = np.concatenate([np.repeat(np.arange(n), m), np.arange(n)])
            template = self._templates[m] = (
                code, res, phase, batch, np.flatnonzero(code == _L_ATTN),
                np.arange(n * m, n * (m + 1)),
            )
        return template

    # ---- build ------------------------------------------------------------------

    def build(self, schedule: Schedule | None = None) -> BuildResult:
        """Emit one batch group's generation into ``schedule``.

        :meth:`decide` followed by :meth:`materialize`. Sequential systems
        instead decide every batch on one builder, swapping :attr:`oracle`
        (and :attr:`prefetcher`) in between, and materialize once.
        """
        schedule = schedule if schedule is not None else Schedule()
        with span("core.pipeline.decide"):
            heads = self.decide(len(schedule))
        with span("core.pipeline.materialize"):
            self.materialize(schedule)
        return BuildResult(schedule=schedule, step_last_op=heads, groups_built=1)

    def decide(self, start: int = 0) -> list[int]:
        """Decide one batch group's generation (the decide pass).

        The group's ops follow any group decided but not yet
        materialized; ``start`` is the length of the schedule the pending
        groups will be materialized into (read by the first of them, which
        also emits the resident blob into an empty schedule). The
        per-group decision state starts fresh on every call.

        Returns:
            The op id of each step's last op (the LM head).
        """
        with gc_paused():
            return self._decide_group(start)

    def _decide_group(self, start: int) -> list[int]:
        if self._pending is None:
            self._pending = _Decisions(start)
        d = self._pending
        features, model, wl = self.features, self.model, self.workload
        self._predict = (
            self.prefetcher is not None
            and features.hot_prefetch
            and not (model.is_dense or features.cpu_experts)
        )
        if d.nops == 0:  # sequential systems share one resident blob per run
            d.init = True
            d.nops = 1
            d.extra_tids.append("resident+workspace")
            d.extra_nbytes.append(
                self.placement.resident_bytes + self.placement.activation_reserve_bytes
            )
        tokens = wl.total_sequences  # the head computes last-position logits
        self._head_dur = self.cost.gpu_time(
            OpCost(
                2.0 * model.hidden_size * model.vocab_size * tokens,
                model.vocab_size * tokens * model.dtype_bytes,
                2,
            )
        )
        group = _Group(self._stride)
        heads = [self._decide_step(step, group) for step in range(wl.num_steps)]
        if group.kv_keys and heads:
            # The group's KV cache is released when its generation completes
            # (sequential systems reuse the space for the next batch).
            d.releases.append((heads[-1], np.array(group.kv_keys, dtype=np.int64)))
        return heads

    def _decide_step(self, step: int, g: _Group) -> int:
        """Decide every layer of one step at once; returns its LM head.

        The step's ops run: the layer-0 top-up transfers, the embed, per
        layer its unit, cold transfers, experts and the next layer's
        prefetch, then the head and the next step's layer-0 prefetch.
        """
        d, n, features, model = self._pending, self.n, self.features, self.model
        stride, resident, overlap = self._stride, self._resident, features.overlap
        routing = self.oracle.step_routing(step, self.workload)
        stp, unit_durs, embed_dur = self._step_tables(step, routing)
        m = stp.m
        num_layers = len(routing.layers)
        layer_ids = np.arange(num_layers)
        unit = n * (m + 1)
        attn_at = self._template(m)[4]
        gpu_experts = not (self._dense or features.cpu_experts)
        cpu = features.cpu_experts and not self._dense
        last_step = step + 1 == self.workload.num_steps

        # ---- the step's tables ------------------------------------------------
        hot = self.prefetcher.predict_step(routing.primaries) if self._predict else None
        if gpu_experts or cpu:
            stats = routing.stats(n, model.num_experts)
            counts, totals = stats.counts, stats.totals
            widest = self._widest_layer(routing)
            gpu_durs = self._duration_table(widest)
        cold = None
        if gpu_experts:
            if self.prefetcher is not None:
                self.prefetcher.observe_step(
                    routing.assignments, totals,
                    hot if hot is not None else [self._static_hot] * num_layers,
                )
            active = totals > 0
            if hot is None:
                in_vram = self._static_in_vram
            else:
                # The next step's layer-0 forecast; the last step issues
                # no tail, so any forecast of the same width stands in.
                tail_hot = hot[0] if last_step else self.prefetcher.predict_first()
                hot_experts = np.array(hot + [tail_hot], dtype=np.int64)
                in_vram = resident[:, 2:].copy()
                in_vram[layer_ids[:, None], hot_experts[:-1]] = True
            if features.hot_prefetch:
                cold = active & ~in_vram
        # Prefetch candidates: rows 0..L-1 this step's layers (row 0 tops
        # layer 0 up), row L the next step's layer 0.
        if hot is None:
            slots, pf_w, pf_ok, pf_cost = self._static_pf
        else:
            slots, pf_w, pf_ok, pf_cost = self._candidates(np.concatenate(
                [np.broadcast_to(self._block_slots, (num_layers + 1, len(self._block_slots))),
                 hot_experts + 2],
                axis=1,
            ))
        pf_ok = pf_ok.copy()
        pf_ok[0] &= g.carry[slots[0]] < 0
        if last_step:
            pf_ok[-1] = False
        pf_cum = np.cumsum(pf_ok * pf_cost, axis=1)
        if cold is not None:
            # Layer 0's cold experts skip those tail-prefetched or topped up.
            ready0 = g.carry >= 0
            ready0[slots[0][pf_ok[0]]] = True
            cold[0] &= ~ready0[2:]
            cold_cum = np.cumsum(cold * self._cold_cost, axis=1)

        # ---- expert segments -----------------------------------------------------
        if gpu_experts and features.adjust_order:
            # Expert-major: in-VRAM experts busiest first, then cold ones
            # ascending (see repro.core.ordering).
            order, x_count = ordered_step_experts(totals, in_vram)
            x_layer, x_pos = np.nonzero(np.arange(order.shape[1]) < x_count[:, None])
            x_expert = order[x_layer, x_pos]
            x_tokens = totals[x_layer, x_expert]
        elif gpu_experts:
            # Batch-major: one op per routed (batch, expert) pair.
            x_layer, x_batch, x_expert = np.nonzero(counts)
            x_count = np.bincount(x_layer, minlength=num_layers)
            x_pos = np.arange(len(x_layer)) - (np.cumsum(x_count) - x_count)[x_layer]
            x_tokens = counts[x_layer, x_batch, x_expert]
        elif cpu:
            # Fiddler: a non-resident expert runs on the CPU when that beats
            # moving it; a CPU round trip is 3 ops, a load 2 (3 from disk).
            x_layer, x_expert = np.nonzero(totals)
            x_tokens = totals[x_layer, x_expert]
            x_w = x_layer * stride + 2 + x_expert
            cpu_durs = self._duration_table(widest, on_cpu=True)
            on_cpu = ~resident[x_layer, x_expert + 2] & (
                cpu_durs[x_tokens] <= self._h2d_durs[x_w] + gpu_durs[x_tokens]
            )
            loaded = ~(resident[x_layer, x_expert + 2] | on_cpu)
            x_size = np.where(on_cpu, 3, 1 + loaded * self._cost[x_w])
            x_count = np.bincount(x_layer, weights=x_size, minlength=num_layers).astype(np.int64)
        else:
            x_count = np.zeros(num_layers, dtype=np.int64)

        # ---- place every op of the step with one cumsum -------------------------
        # Segments: top-up, embed, per layer (unit, cold, experts,
        # prefetch of the next layer), head, tail.
        nseg = 4 * num_layers + 4
        seg = np.zeros(nseg, dtype=np.int64)
        pf_seg = self._pf_segments(num_layers)
        seg[pf_seg] = pf_cum[:, -1]
        seg[1] = seg[nseg - 2] = 1
        seg[2 : nseg - 2 : 4] = unit
        if cold is not None:
            seg[3 : nseg - 1 : 4] = cold_cum[:, -1]
        seg[4 : nseg : 4] = x_count
        first = np.cumsum(seg) - seg + d.nops
        d.nops = int(first[-1] + seg[-1])
        embed, head = int(first[1]), int(first[nseg - 2])
        ustart = first[2 : nseg - 2 : 4]
        xstart = first[4 : nseg : 4]
        gate_base = ustart + n * m
        last_gate = gate_base + n - 1
        first_attn = ustart + attn_at[0]
        pairs, ranges = d.pairs, d.ranges

        # ---- transfers and the ready matrix --------------------------------------
        ready = np.full((num_layers, stride), -1, dtype=np.int64)
        ready[0] = g.carry
        r, c = np.nonzero(pf_ok)
        pf_copy = first[pf_seg[r]] + pf_cum[r, c] - 1
        now = r < num_layers
        ready[r[now], slots[r[now], c[now]]] = pf_copy[now]
        g.carry = np.full(stride, -1, dtype=np.int64)
        g.carry[slots[num_layers, c[~now]]] = pf_copy[~now]
        # Each row of prefetch candidates is one run of transfers sharing
        # its dependencies: prefetches fire off the current layer's first
        # attention (the tail off the last layer's), the top-up off
        # nothing; without overlap, they wait on the current layer's
        # barrier and last compute op (the top-up on the last head, the
        # tail on this one).
        run = d.nruns + np.arange(num_layers + 1)
        d.nruns += num_layers + 1
        d.prefetches.append((pf_copy, pf_w[r, c], run[r], step))
        if overlap:
            d.run_pairs.append((run[1:], first_attn))
        else:
            d.run_pairs.append((run[-1:], np.array([head])))
            if g.head >= 0:
                d.run_pairs.append((run[:1], np.array([g.head])))
        copies = [pf_copy]
        if cold is not None:
            # Cold experts stream on demand off the first gate routing to
            # them (without overlap, also after the last gate).
            cl, ce = np.nonzero(cold)
            cold_copy = first[3 + 4 * cl] + cold_cum[cl, ce] - 1
            ready[cl, ce + 2] = cold_copy
            gates = gate_base[cl] + (counts[cl, :, ce] > 0).argmax(axis=1) if n > 1 else gate_base[cl]
            cold_w = cl * stride + 2 + ce
            d.on_demand.append((cold_copy, cold_w, step))
            copies.append(cold_copy)
            cold_run = cold_copy - self._cost[cold_w] + 1
            pairs.append((cold_run, gates))
            if not overlap:
                pairs.append((cold_run, last_gate[cl]))

        # ---- experts, barriers and tails --------------------------------------------
        # A layer ends in its barrier — the last op of each expert, else
        # its gates — which the next layer's attention waits on; its tail
        # (last barrier op) frees what the layer leaves loaded.
        b_lo, b_hi, tail = gate_base, gate_base + n, last_gate
        last = np.full((num_layers, stride), -1, dtype=np.int64)
        lc_after = last_gate  # the last compute op of each layer
        if gpu_experts:
            x_ops = xstart[x_layer] + x_pos
            if features.adjust_order:
                last[x_layer, x_expert + 2] = x_ops
                if n == 1:
                    pairs.append((x_ops, gate_base[x_layer]))
                else:
                    xi, xb = np.nonzero(counts[x_layer, :, x_expert])
                    pairs.append((x_ops[xi], gate_base[x_layer[xi]] + xb))
                d.experts.append((x_ops, gpu_durs[x_tokens], x_layer, x_expert, None, step))
            else:
                np.maximum.at(last, (x_layer, x_expert + 2), x_ops)
                pairs.append((x_ops, gate_base[x_layer] + x_batch))
                d.experts.append((x_ops, gpu_durs[x_tokens], x_layer, x_expert, x_batch, step))
            op = ready[x_layer, x_expert + 2]
            pairs.append((x_ops[op >= 0], op[op >= 0]))
            some = x_count > 0
            b_lo = np.where(some, xstart, gate_base)
            b_hi = np.where(some, xstart + x_count, b_hi)
            tail = lc_after = b_hi - 1
        elif cpu:
            x_end = xstart[x_layer] + np.cumsum(x_size) - (np.cumsum(x_count) - x_count)[x_layer] - 1
            x_start = x_end - x_size + 1
            gpu, trip, load = np.flatnonzero(~on_cpu), np.flatnonzero(on_cpu), np.flatnonzero(loaded)
            d.experts.append((
                x_end[gpu], gpu_durs[x_tokens[gpu]], x_layer[gpu], x_expert[gpu], None, step,
            ))
            d.trips.append((
                x_start[trip], x_layer[trip], x_expert[trip], x_tokens[trip],
                cpu_durs[x_tokens[trip]], routing.scale, step,
            ))
            # Each expert's first op waits on the gates routing to it, and
            # so does a loaded expert's GPU op, after its copy.
            if n == 1:
                xi, gates = np.arange(len(x_layer)), gate_base[x_layer]
            else:
                xi, xb = np.nonzero(counts[x_layer, :, x_expert])
                gates = gate_base[x_layer[xi]] + xb
            pairs.append((x_start[xi], gates))
            also = loaded[xi]
            pairs.append((x_end[xi[also]], gates[also]))
            l_w, l_end = x_w[load], x_end[load]
            d.on_demand.append((l_end - 1, l_w, step))
            pairs.append((l_end, l_end - 1))
            d.frees.append((l_end, l_w))
            copies.append(l_end - 1)
            some = x_count > 0
            tail = np.where(some, xstart + x_count - 1, last_gate)
            # Barrier: the last op of every expert (the gates if none).
            bar_layer, bar_ops = x_layer, x_end
            if not some.all():
                none = ~some
                bar_layer = np.concatenate([np.repeat(layer_ids[none], n), x_layer])
                bar_ops = np.concatenate([(gate_base[none, None] + np.arange(n)).ravel(), x_end])
                by_layer = np.argsort(bar_layer, kind="stable")
                bar_layer, bar_ops = bar_layer[by_layer], bar_ops[by_layer]
            b_lo = b_hi = np.zeros(num_layers, dtype=np.int64)
            after = bar_layer < num_layers - 1
            d.prefix.append((d.nunits + bar_layer[after] + 1, bar_ops[after]))
            pairs.append((np.full(int((~after).sum()), head), bar_ops[~after]))
            if not overlap:
                # A layer's last compute: its last GPU expert, else its
                # last gate; each load also waits on the one before it.
                gpu_end = np.where(on_cpu, -1, x_end)
                lc_after = last_gate.copy()
                np.maximum.at(lc_after, x_layer, gpu_end)
                before = np.maximum.accumulate(np.concatenate([[-1], gpu_end[:-1]]))[load]
                pairs.append((x_start[load], np.maximum(before, last_gate[x_layer[load]])))
                d.run_pairs.append((run[bar_layer[after] + 1], bar_ops[after]))
        if not cpu:
            ranges.append((np.array([head]), b_lo[-1:], b_hi[-1:]))
            if not overlap:
                d.run_ranges.append((run[1:-1], b_lo[:-1], b_hi[:-1]))
        if not overlap:
            d.run_pairs.append((run[1:-1], lc_after[:-1]))

        # ---- the unit table ------------------------------------------------------------
        units = np.empty((num_layers, 10), dtype=np.int64)
        units[:, _U_START] = ustart
        units[:, _U_STEP] = step
        units[:, _U_LAYER] = layer_ids
        units[:, _U_LAST_ATTN] = ustart + attn_at[-1]
        units[:, _U_LAST_GATE] = last_gate
        units[:, _U_TAIL] = tail
        units[:, _U_NEXT] = first[5 : nseg - 2 : 4]
        units[0, _U_BLO], units[0, _U_BHI] = embed, embed + 1
        units[1:, _U_BLO] = b_lo[:-1]
        units[1:, _U_BHI] = b_hi[:-1]
        if cpu:
            units[1:, _U_BHI] = units[1:, _U_BLO]
        d.units.append(units)
        d.ready.append(ready)
        d.last.append(last)
        d.steps.append((embed, head, embed_dur, step, m, unit_durs, d.nunits, num_layers))
        d.nunits += num_layers
        if g.head >= 0:
            pairs.append((np.array([embed]), np.array([g.head])))
        if not self._kv_store and stp.kv_alloc_delta > 0:
            # KV stays in VRAM: the cache growth lands on each attention op.
            key = len(self._tids) + len(d.extra_tids)
            keys = np.arange(key, key + num_layers * n)
            names = self._kv_names.get(step)
            if names is None:
                names = self._kv_names[step] = [
                    f"kv.{layer}.{b}.s{step}" for layer in range(num_layers) for b in range(n)
                ]
            d.extra_tids += names
            d.extra_nbytes += [stp.kv_alloc_delta] * len(keys)
            ops = (ustart[:, None] + attn_at).ravel()
            d.allocs.append((ops, keys))
            g.kv_keys += keys.tolist()

        # ---- synchronous execution --------------------------------------------------
        if not overlap:
            # Every compute op but kv loads and stores and CPU round trips
            # waits on the last transfer before it.
            moved = np.sort(np.concatenate([[g.last_transfer]] + copies))
            units[:, _U_NOD] = moved[np.searchsorted(moved, ustart) - 1]
            waiters = np.array([embed, head])
            if gpu_experts:
                waiters = np.concatenate([waiters, x_ops])
            elif cpu:
                waiters = np.concatenate([waiters, x_end[gpu]])
            before = moved[np.searchsorted(moved, waiters) - 1]
            pairs.append((waiters[before >= 0], before[before >= 0]))
            g.last_transfer = int(moved[-1])
        else:
            units[:, _U_NOD] = -1
        g.head = head
        return head

    # ---- step tables --------------------------------------------------------------

    @staticmethod
    def _widest_layer(routing) -> LayerRouting:
        """The layer of a step with the most routed assignments."""
        if isinstance(routing.assignments, np.ndarray):
            return routing.layers[0]
        return max(routing.layers, key=lambda layer: layer.assignments.size)

    @staticmethod
    def _pf_segments(num_layers: int) -> np.ndarray:
        """Segment of each prefetch-candidate row: the top-up, the
        prefetch of layers 1..L-1 and the tail."""
        return np.concatenate([[0], np.arange(5, 4 * num_layers + 1, 4), [4 * num_layers + 3]])

    # ---- materialize pass -----------------------------------------------------------

    def materialize(self, schedule: Schedule) -> None:
        """Append every decided op to ``schedule`` (the materialize pass).

        Fills the columns of all groups decided since the last call at
        once; ``schedule`` must have the length the first of them was
        decided for.
        """
        with gc_paused():
            self._materialize(schedule)

    def _materialize(self, schedule: Schedule) -> None:
        d, self._pending = self._pending, None
        if d is None or d.nops == d.start:
            return
        if len(schedule) != d.start:
            raise ValueError(
                f"decided for a schedule of {d.start} ops, got {len(schedule)}"
            )
        start, total = d.start, d.nops - d.start
        ids = np.arange(start, d.nops).astype(object)  # one int object per op id
        units, ready, last = (np.concatenate(x) for x in (d.units, d.ready, d.last))
        pairs = list(d.pairs)

        # Embeds and heads (and the resident blob's op 0).
        embeds, heads, embed_durs, step_ids = (list(c) for c in list(zip(*d.steps))[:4])
        init = [start] if d.init else []
        families = [_family(
            np.array(embeds + heads + init), _GPU,
            np.array(embed_durs + [self._head_dur] * len(heads) + [0.0] * len(init)),
            -1, _P_OTHER, -1,
            np.array([_L_EMBED] * len(embeds) + [_L_HEAD] * len(heads) + [_L_INIT] * len(init)),
            -1, np.array(step_ids + step_ids + [-1] * len(init)),
        )]
        # Transfers, prefetch stream then on-demand: a spilled weight's
        # disk read, then its copy, which allocates the weight.
        pf_copy, pf_w, run, pf_step = _stack(d.prefetches, 4)
        od_copy, od_w, od_step = _stack(d.on_demand, 3)
        copy, w, step = (np.concatenate(c) for c in ((pf_copy, od_copy), (pf_w, od_w), (pf_step, od_step)))
        res = np.repeat([_H2D, _H2D_OD], [len(pf_copy), len(od_copy)])
        disk = self._cost[w] == 2
        layer = w // self._stride
        families.append(_family(
            copy, res, self._h2d_durs[w], layer, _P_TRANSFER, -1, _L_H2D, w, step,
        ))
        families.append(_family(
            copy[disk] - 1, _DISK, self._disk_durs[w[disk]], layer[disk], _P_TRANSFER, -1,
            _L_DISK, w[disk], step[disk],
        ))
        pairs.append((copy[disk], copy[disk] - 1))
        # A prefetch run's transfers share its dependency tuple.
        run_ops = pf_copy - disk[: len(pf_copy)] - start
        rows, deps = _pairs(d.run_pairs, d.run_ranges)
        run_deps = _dep_tuples(rows, deps - start, d.nruns, ids)[run]
        # GPU experts and CPU round trips.
        x_ops, x_dur, x_layer, x_expert, x_batch, x_step = _stack(d.experts, 6)
        batch_major = x_batch is not None
        families.append(_family(
            x_ops, _GPU, x_dur, x_layer, _P_EXPERT, x_batch if batch_major else -1,
            _L_EXP_B if batch_major else _L_EXP, x_expert, x_step,
        ))
        if d.trips:
            families.append(self._trip_rows(d, pairs))
        effects = [(copy, EV_ALLOC, w, 2 * copy, 0), self._frees(units, ready, last)]
        if init:
            effects.append((np.array(init), EV_ALLOC, np.array([len(self._tids)]), -1, 0))
        for records, kind in ((d.allocs, EV_ALLOC), (d.frees, EV_FREE)):
            if records:
                ops, keys = _stack(records, 2)
                effects.append((ops, kind, keys, 2 * ops, 0))
        if d.releases:
            keys, group_heads = _stack([(k, h) for h, k in d.releases], 2)
            effects.append((group_heads, EV_FREE, keys, 2 * group_heads + 1, np.arange(len(keys))))

        ops, res, dur, layers, phases, batches, codes, xs, steps = (
            np.concatenate(c) for c in zip(*families)
        )
        unit_ops, unit_cols, dep_ops, unit_deps = self._unit_rows(d, units, ready, ids)
        other = ops - start
        ops = np.concatenate([unit_ops, other])
        if ops.size != total:  # pragma: no cover - a decide-pass bug
            raise AssertionError(f"materialized {ops.size} of {total} ops")
        order = np.empty(total, dtype=np.int64)
        order[ops] = np.arange(total)
        res, dur, layers, phases, batches, codes, xs, steps = (
            np.concatenate([u, c])[order]
            for u, c in zip(unit_cols, (res, dur, layers, phases, batches, codes, xs, steps))
        )
        # The other ops' dependencies, from pairs and ranges.
        alone = np.ones(total, dtype=bool)
        alone[run_ops] = False
        other = other[alone[other]]
        rows, on = _pairs(pairs, d.ranges)
        slot = np.empty(total, dtype=np.int64)
        slot[other] = np.arange(len(other))
        deps = np.empty(total, dtype=object)
        deps[dep_ops] = _objects(unit_deps)
        deps[run_ops] = run_deps
        deps[other] = _dep_tuples(slot[rows - start], on - start, len(other), ids)
        ev_op, ev_kind, ev_key, ev_order, ev_rank = (
            np.concatenate(c) for c in zip(*(_family(*e) for e in effects))
        )
        attach = np.lexsort((ev_rank, ev_order))
        keys, ev_op, ev_kind = ev_key[attach], ev_op[attach], ev_kind[attach]
        # Equal durations, op ids and byte counts share one Python object,
        # as they do when ops are authored one by one.
        palette, index = np.unique(dur, return_inverse=True)
        nbytes = np.array(self._nbytes + d.extra_nbytes, dtype=object)[keys]
        schedule.extend_raw(
            res.tolist(),
            palette.astype(object)[index].tolist(),
            deps.tolist(),
            (
                _render_labels,
                (
                    codes.astype(np.int8), xs.astype(np.int32), layers.astype(np.int32),
                    batches.astype(np.int32), steps.astype(np.int32), self._tids,
                ),
            ),
            layers.tolist(),
            _PHASES[phases].tolist(),
            batches.tolist(),
            effects=(
                ids[ev_op - start].tolist(),
                ev_kind.tolist(),
                ["vram"] * len(keys),
                np.array(self._tids + d.extra_tids, dtype=object)[keys].tolist(),
                nbytes.tolist(),
            ),
            arrays=(
                res, dur, ev_op, ev_kind, np.zeros(len(keys), dtype=np.int16),
                nbytes.astype(np.int64), ("vram",) if len(keys) else (),
            ),
        )

    def _trip_rows(self, d: _Decisions, pairs: list) -> tuple:
        """CPU round trips' columns (hidden states down, CPU compute,
        hidden states up), each op waiting on the one before."""
        starts, layer, expert, tokens, cpu_durs, scale, step = _stack(d.trips, 7)
        model = self.model
        nbytes = (tokens * scale * model.hidden_size * model.dtype_bytes).astype(np.int64)
        ops = starts[:, None] + np.arange(3)
        pairs.append((ops[:, 1:].ravel(), ops[:, :2].ravel()))
        durs = np.column_stack([
            self.cost.transfer_times(nbytes, "vram", "dram"), cpu_durs,
            self.cost.transfer_times(nbytes, "dram", "vram"),
        ])
        count = len(starts)
        return _family(
            ops.ravel(), np.tile(_TRIP_RES, count), durs.ravel(), np.repeat(layer, 3),
            _P_EXPERT, -1, np.tile(_TRIP_LABELS, count), np.repeat(expert, 3),
            np.repeat(step, 3),
        )

    def _frees(self, units, ready, last) -> tuple:
        """Free every weight still ready at the end of its layer, in
        release order: routed experts after their last op, then the
        attention, the gate and any other experts by id at the layer's
        tail (batch-major order frees those other experts first)."""
        unit, slot = np.nonzero(ready >= 0)
        routed = last[unit, slot]
        op = np.where(
            slot == 0, units[unit, _U_LAST_ATTN],
            np.where(slot == self._gate_slot, units[unit, _U_LAST_GATE], units[unit, _U_TAIL]),
        )
        kind = np.where(slot == 0, 1, np.where(slot == self._gate_slot, 2, 3))
        if not (self._dense or self.features.cpu_experts or self.features.adjust_order):
            kind = np.where(kind == 3, 0, kind) + 1
        is_routed = routed >= 0
        op[is_routed] = routed[is_routed]
        kind[is_routed] = 0
        w = units[unit, _U_LAYER] * self._stride + slot
        return (
            op, EV_FREE, w, 2 * units[unit, _U_NEXT] - 1,
            (kind << 40) + np.where(is_routed, op, w),
        )

    def _unit_rows(self, d: _Decisions, units, ready, ids: np.ndarray) -> tuple:
        """Every layer unit's ops: their op ids (from ``d.start``) and
        columns (but the first), and op ids with dependency tuples.

        A unit's attention ops share one prefix (the previous layer's
        barrier, the attention weight's transfer and, without overlap,
        the last transfer before the unit) and its gates another (the
        gate weight's transfer and that last transfer); a kv load's
        attention, a kv store and a gate also wait on the op of their
        batch before them.
        """
        n, start = self.n, d.start
        count = len(units)
        index = np.arange(count)
        lo, hi, nod = units[:, _U_BLO], units[:, _U_BHI], units[:, _U_NOD]
        attn, gate = ready[:, 0], ready[:, self._gate_slot]
        rows = [np.repeat(2 * index, hi - lo), 2 * index[attn >= 0], 2 * index[gate >= 0] + 1,
                2 * index[nod >= 0], 2 * index[nod >= 0] + 1]
        deps = [_ranges(lo, hi), attn[attn >= 0], gate[gate >= 0], nod[nod >= 0], nod[nod >= 0]]
        for unit, dep in d.prefix:
            rows.append(2 * unit)
            deps.append(dep)
        prefixes = _dep_tuples(np.concatenate(rows), np.concatenate(deps) - start, 2 * count, ids)
        col_ops, cols, dep_ops, tuples = [], [], [], []
        by_m: dict[int, list] = {}
        for embed, head, embed_dur, step, m, durs, first, num_layers in d.steps:
            by_m.setdefault(m, []).append((first, num_layers, durs))
        for m, steps in by_m.items():
            code, res, phase, batch, attn_at, gate_at = self._template(m)
            width, firsts, lengths = len(code), *(np.array(c) for c in list(zip(*steps))[:2])
            sel = _ranges(firsts, firsts + lengths)
            base = units[sel, _U_START] - start
            col_ops.append((base[:, None] + np.arange(width)).ravel())
            if all(len(x) == 1 for _, _, x in steps):
                durs = np.repeat(np.concatenate([x for _, _, x in steps]), lengths, axis=0)
            else:  # trace steps whose layers differ in token count
                durs = np.concatenate([np.broadcast_to(x, (k, width)) for _, k, x in steps])
            cols.append((
                np.tile(res, len(sel)),
                durs.ravel(),
                np.repeat(units[sel, _U_LAYER], width), np.tile(phase, len(sel)),
                np.tile(batch, len(sel)), np.tile(code, len(sel)), np.full(len(sel) * width, -1),
                np.repeat(units[sel, _U_STEP], width),
            ))
            attn_ops = (base[:, None] + attn_at).ravel()
            attn_obj = ids[attn_ops].tolist()
            shared = prefixes[np.repeat(2 * sel, n)].tolist()
            if m == 3:
                dep_ops.append(attn_ops - 1)
                tuples += [()] * len(attn_ops)
                shared = list(map(tuple.__add__, shared, zip(ids[attn_ops - 1].tolist())))
            dep_ops.append(attn_ops)
            tuples += shared
            if m >= 2:
                dep_ops.append(attn_ops + 1)
                tuples += zip(attn_obj)
            dep_ops.append((base[:, None] + gate_at).ravel())
            tuples += map(tuple.__add__, prefixes[np.repeat(2 * sel + 1, n)].tolist(), zip(attn_obj))
        return (
            np.concatenate(col_ops), [np.concatenate(c) for c in zip(*cols)],
            np.concatenate(dep_ops), tuples,
        )


def _pairs(pairs: list[tuple], ranges: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """``(row, dependency)`` arrays of ``(rows, deps)`` pairs and ``(rows,
    first, end)`` dependency ranges."""
    rows, deps = [r for r, _ in pairs], [x for _, x in pairs]
    if ranges:
        r, lo, hi = (np.concatenate(c) for c in zip(*ranges))
        rows.append(np.repeat(r, hi - lo))
        deps.append(_ranges(lo, hi))
    if not rows:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(rows), np.concatenate(deps)


def _stack(records: list[tuple], width: int) -> list:
    """Concatenate ``width``-field records field by field: arrays join; a
    scalar field (a step, a scale) repeats over its record's length, that
    of its first field; a None field stays None."""
    if not records:
        return [np.zeros(0, dtype=np.int64)] * width
    lengths = [len(record[0]) for record in records]
    out = []
    for field in zip(*records):
        if field[0] is None:
            out.append(None)
        elif isinstance(field[0], np.ndarray):
            out.append(np.concatenate(field))
        else:
            out.append(np.repeat(field, lengths))
    return out


def _family(ops: np.ndarray, *columns) -> tuple:
    """``ops`` with its other columns, scalars broadcast to its length."""
    count = len(ops)
    return (ops,) + tuple(
        c if isinstance(c, np.ndarray) else np.full(count, c) for c in columns
    )
