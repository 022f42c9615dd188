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

Emission is *batched*: everything that is constant within a generation
step (attention / KV-movement durations, batch-slice shapes) is computed
once per step, per-batch expert token counts come from the routing's
memoized :class:`~repro.routing.oracle.RoutingStats` (shared by every
system reading the same routing), and expert durations are looked up in
a per-builder table indexed by routed token count, evaluated once through
the vectorized cost model — the emitted schedule is bit-identical to
per-op emission, just without the per-op Python cost.

One builder serves a whole run: sequential systems call :meth:`build`
once per batch with a new oracle (and prefetcher), so only the per-group
emission state resets between calls, while placement-derived caches
(weight bytes, tensor ids, residency, split shapes) persist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.sparse_attention import SparseAttentionConfig
from repro.core.ordering import ordered_active_experts
from repro.core.placement import DISK, PlacementPlan
from repro.core.prefetcher import ExpertPrefetcher
from repro.hardware.costmodel import CostModel, OpCost
from repro.model.tensors import TensorInventory, attn_id, expert_id, gate_id
from repro.routing.oracle import (
    LayerRouting,
    RoutingOracle,
    RoutingStats,
    batch_slice_sizes,
)
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
    MemEffect,
    PHASE_ATTENTION,
    PHASE_EXPERT,
    PHASE_GATE,
    PHASE_KV,
    PHASE_OTHER,
    PHASE_TRANSFER,
    RESOURCE_CODES,
    Schedule,
)

QUANT_BYTES_FACTOR = 0.28  # 4-bit weights + group scale/zero metadata

_GPU_CODE = RESOURCE_CODES[GPU]
_CPU_CODE = RESOURCE_CODES[CPU]
_H2D_CODE = RESOURCE_CODES[H2D]
_H2D_OD_CODE = RESOURCE_CODES[H2D_OD]
_D2H_CODE = RESOURCE_CODES[D2H]
_DISK_CODE = RESOURCE_CODES[DISK_IO]


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
    """Durations and slice shapes that are constant within one step."""

    attn_dur: float
    kv_load_dur: float  # only meaningful when kv streams from DRAM
    kv_stream: bool
    kv_store_dur: float
    kv_alloc_delta: int
    batch_sizes: list[int]  # rows per batch slice (array_split shapes)
    rows: int  # routed rows of the step across the batch group
    scale: float = 1.0  # prefill-subsampling token multiplier
    gate_dur_b: list[float] = field(default_factory=list)  # per batch slice
    attn_block_durs: list[float] = field(default_factory=list)  # interleaved


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
        self._kv_bytes_per_token = self.model.kv_bytes_per_token()
        # rows -> batch-slice sizes split cache.
        self._split_cache: dict[int, list[int]] = {}
        # (scale, on_cpu) -> expert duration by routed token count.
        self._dur_tables: dict[tuple[float, bool], list[float]] = {}
        # Placement residency is static across a build; cache it per layer
        # together with the expert tensor-id strings, and keep the
        # VRAM-resident tensor ids as a set for O(1) checks on the
        # per-transfer hot path.
        self._resident_cache: dict[int, set[int]] = {}
        self._expert_ids: dict[int, list[str]] = {}
        self._resident_ids = {
            tid for tid in placement.location if placement.is_resident(tid)
        }
        self._disk_ids = {
            tid for tid, level in placement.location.items() if level == DISK
        }
        self._wbytes_cache: dict[str, int] = {}
        # Constant block columns, shared across every layer's extend_raw
        # call (extend copies the values out, so reuse is safe).
        n = self.n
        self._gpu_codes_n = [_GPU_CODE] * n
        self._gate_phases_n = [PHASE_GATE] * n
        self._expert_phases_n = [PHASE_EXPERT] * n
        self._batches_0n = list(range(n))
        self._attn_consts: dict[tuple[bool, bool], tuple[list, list, list]] = {}

    def _attn_block_consts(
        self, kv_stream: bool, kv_store: bool
    ) -> tuple[list[int], list[str], list[int]]:
        """(resources, phases, batches) columns of the attention block."""
        cached = self._attn_consts.get((kv_stream, kv_store))
        if cached is None:
            n = self.n
            if kv_stream and kv_store:
                res = [_H2D_CODE, _GPU_CODE, _D2H_CODE] * n
                phases = [PHASE_KV, PHASE_ATTENTION, PHASE_KV] * n
                batches = [b for b in range(n) for _ in range(3)]
            elif kv_store:
                res = [_GPU_CODE, _D2H_CODE] * n
                phases = [PHASE_ATTENTION, PHASE_KV] * n
                batches = [b for b in range(n) for _ in range(2)]
            else:
                res = self._gpu_codes_n
                phases = [PHASE_ATTENTION] * n
                batches = self._batches_0n
            cached = (res, phases, batches)
            self._attn_consts[(kv_stream, kv_store)] = cached
        return cached

    def _layer_expert_ids(self, layer: int) -> list[str]:
        ids = self._expert_ids.get(layer)
        if ids is None:
            ids = [expert_id(layer, e) for e in range(self.model.num_experts)]
            self._expert_ids[layer] = ids
        return ids

    def _resident_experts(self, layer: int) -> set[int]:
        resident = self._resident_cache.get(layer)
        if resident is None:
            is_resident = self.placement.is_resident
            resident = {
                e
                for e, tid in enumerate(self._layer_expert_ids(layer))
                if is_resident(tid)
            }
            self._resident_cache[layer] = resident
        return resident

    # ---- small helpers ---------------------------------------------------------

    def _weight_bytes(self, tensor_id: str, kind: str) -> int:
        cached = self._wbytes_cache.get(tensor_id)
        if cached is not None:
            return cached
        nbytes = self.inventory.nbytes(tensor_id)
        if self.features.quantize and kind in ("attn", "expert"):
            nbytes = int(nbytes * QUANT_BYTES_FACTOR)
        self._wbytes_cache[tensor_id] = nbytes
        return nbytes

    def _gpu(self, cost: OpCost, label: str, **kw) -> int:
        return self._gpu_dur(self.cost.gpu_time(cost), label, **kw)

    def _gpu_dur(
        self, duration: float, label: str, *, deps: list[int], layer: int = -1,
        phase: str = PHASE_OTHER,
    ) -> int:
        """Emit a GPU op from a precomputed duration."""
        if not self.features.overlap and self._last_transfer is not None:
            # Synchronous (Accelerate-style) execution: computation also
            # waits for every weight transfer issued so far.
            deps = deps + [self._last_transfer]
        op = self._schedule.append_row(
            _GPU_CODE, duration, label, self._sorted_deps(deps), layer, phase
        )
        self._last_compute = op
        return op

    def _load_weight(
        self,
        tensor_id: str,
        kind: str,
        layer: int,
        deps: list[int],
        *,
        on_demand: bool = False,
    ) -> int | None:
        """Issue transfer ops bringing ``tensor_id`` to VRAM; None if resident.

        ``on_demand`` routes the copy through the dedicated on-demand CUDA
        stream (paper §8), so gate-triggered expert transfers do not block
        the weight-prefetch stream head-of-line.
        """
        if tensor_id in self._resident_ids:
            return None
        ready = self._ready.get(tensor_id)
        if ready is not None:
            return ready
        sched = self._schedule
        nbytes = self._weight_bytes(tensor_id, kind)
        all_deps = list(deps)
        if not self.features.overlap and self._last_compute is not None:
            all_deps.append(self._last_compute)
        if tensor_id in self._disk_ids:
            disk_op = sched.append_row(
                _DISK_CODE,
                self.cost.transfer_time(nbytes, "disk", "dram"),
                f"disk:{tensor_id}",
                self._sorted_deps(all_deps),
                layer,
                PHASE_TRANSFER,
            )
            all_deps = [disk_op]
        op = sched.append_row(
            _H2D_OD_CODE if on_demand else _H2D_CODE,
            self.cost.transfer_time(nbytes, "dram", "vram", pinned=self.placement.pinned),
            f"h2d:{tensor_id}",
            self._sorted_deps(all_deps),
            layer,
            PHASE_TRANSFER,
        )
        sched.append_effect(op, EV_ALLOC, "vram", tensor_id, nbytes)
        self._ready[tensor_id] = op
        self._last_transfer = op
        return op

    @staticmethod
    def _sorted_deps(deps: list[int]) -> tuple[int, ...]:
        """Canonical (sorted, deduplicated) dep tuple for append_row."""
        if len(deps) <= 1:
            return tuple(deps)
        return tuple(sorted(set(deps)))

    def _free_weight(self, tensor_id: str, op_id: int) -> None:
        """Attach the free effect for a weight to ``op_id`` (no-op if
        resident or never transferred: only transfers enter ``_ready``)."""
        if self._ready.pop(tensor_id, None) is not None:
            self._schedule.append_effect(
                op_id, EV_FREE, "vram", tensor_id, self._wbytes_cache[tensor_id]
            )

    def _free_experts(self, layer: int, pairs) -> None:
        """Attach free effects for ``(expert, op id)`` pairs of ``layer``,
        in order, skipping experts that are resident or not in flight."""
        eids = self._layer_expert_ids(layer)
        pop = self._ready.pop
        ops: list[int] = []
        tids: list[str] = []
        for e, op in pairs:
            tid = eids[e]
            if pop(tid, None) is not None:
                ops.append(op)
                tids.append(tid)
        if ops:
            wbytes = self._wbytes_cache
            self._schedule.extend_effects(
                ops, EV_FREE, "vram", tids, [wbytes[t] for t in tids]
            )

    def _dep(self, *ops: int | None) -> list[int]:
        return [op for op in ops if op is not None]

    def _dep_prefix(self, *deps: int | None) -> tuple[int, ...]:
        """Sorted, deduplicated dep tuple over already-emitted ops.

        Adds the running weight-transfer dependency in synchronous
        (no-overlap) mode, mirroring :meth:`_gpu_dur`. Used as the shared
        prefix of block-emitted deps: any op id appended behind it is
        newer than every prefix entry, so the tuple stays sorted.
        """
        items = {d for d in deps if d is not None}
        if not self.features.overlap and self._last_transfer is not None:
            items.add(self._last_transfer)
        if not items:
            return ()
        return tuple(sorted(items))

    # ---- per-step precomputation ------------------------------------------------

    def _batch_sizes(self, rows: int) -> list[int]:
        """Batch-slice sizes for ``rows`` (cached per row count)."""
        sizes = self._split_cache.get(rows)
        if sizes is None:
            sizes = self._split_cache[rows] = batch_slice_sizes(rows, self.n)
        return sizes

    def _step_costs(self, step: int, new_tokens: int, context: int) -> _StepCosts:
        """Everything constant across the layers and batches of one step."""
        model = self.model
        wl = self.workload
        context_eff = self.sparse_attention.effective_context(context)
        cost = self.cost.attention_cost(wl.batch_size, new_tokens, context_eff)
        if self.features.quantize:
            cost = cost.merged(self.cost.dequant_cost(model.attention_bytes()))
        attn_dur = self.cost.gpu_time(cost)

        kv_stream = self.placement.kv_level == "dram" and step > 0
        kv_load_dur = 0.0
        if kv_stream:
            kv_bytes = int(wl.batch_size * context_eff * self._kv_bytes_per_token)
            kv_load_dur = self.cost.transfer_time(
                kv_bytes, "dram", "vram", pinned=self.placement.pinned
            )

        delta = int(wl.batch_size * new_tokens * self._kv_bytes_per_token)
        kv_store_dur = self.cost.transfer_time(
            delta, "vram", "dram", pinned=self.placement.pinned
        )
        grown = self.sparse_attention.effective_context(wl.context_at(step))
        prev = self.sparse_attention.effective_context(
            max(0, wl.context_at(step) - new_tokens)
        )
        kv_alloc_delta = int(wl.batch_size * (grown - prev) * self._kv_bytes_per_token)

        rows, scale = (
            self.oracle.tokens_for_step(step, wl)
            if hasattr(self.oracle, "tokens_for_step")
            else (wl.total_sequences, 1.0)
        )
        sizes = self._batch_sizes(rows)
        kv_store = self.placement.kv_level != "vram"
        if kv_stream and kv_store:
            attn_block_durs = [kv_load_dur, attn_dur, kv_store_dur] * self.n
        elif kv_store:
            attn_block_durs = [attn_dur, kv_store_dur] * self.n
        else:
            attn_block_durs = [attn_dur] * self.n
        return _StepCosts(
            attn_dur=attn_dur,
            kv_load_dur=kv_load_dur,
            kv_stream=kv_stream,
            kv_store_dur=kv_store_dur,
            kv_alloc_delta=kv_alloc_delta,
            batch_sizes=sizes,
            rows=rows,
            scale=scale,
            gate_dur_b=self._gate_durations(sizes, scale)
            if not self.model.is_dense
            else [],
            attn_block_durs=attn_block_durs,
        )

    def _gate_durations(self, sizes: list[int], scale: float) -> list[float]:
        """Per-batch gate durations (at most two distinct slice sizes)."""
        cache: dict[int, float] = {}
        durs = []
        for rows in sizes:
            dur = cache.get(rows)
            if dur is None:
                tokens = max(1, int(rows * scale))
                dur = self.cost.gpu_time(self.cost.gate_cost(tokens))
                cache[rows] = dur
            durs.append(dur)
        return durs

    def _duration_table(
        self, routing: LayerRouting, on_cpu: bool = False
    ) -> list[float]:
        """Expert durations indexed by routed token count for ``routing``.

        Entry ``c`` costs ``max(1, c * scale)`` tokens. One vectorized
        ``expert_times`` call fills the table per ``(scale, on_cpu)``; its
        operations are elementwise IEEE ones, so every entry is
        bit-identical to costing that count on its own. A token routes to
        each expert at most once per top-k slot, so no count exceeds the
        assignment size.
        """
        key = (routing.scale, on_cpu)
        table = self._dur_tables.get(key)
        size = routing.assignments.size
        if table is None or len(table) <= size:
            table = self.cost.expert_times(
                np.maximum(1.0, np.arange(size + 1) * routing.scale),
                quantize=self.features.quantize,
                on_cpu=on_cpu,
            ).tolist()
            self._dur_tables[key] = table
        return table

    # ---- block emission --------------------------------------------------------------

    def _emit_attention_block(
        self, step: int, layer: int, barrier: list[int]
    ) -> list[int]:
        """Emit the layer's interleaved KV-load / attention / KV-store ops.

        One :meth:`Schedule.extend_raw` call per layer replaces ``3n``
        per-op emissions; op ids are assigned arithmetically, so dep
        tuples are built pre-sorted (block-local ids are always newer
        than the shared prefix). The interleaved columns are regular
        patterns, so they are built with list repetition/comprehensions
        instead of per-op appends — this block is ~60% of all emitted ops.
        """
        stp = self._step
        sched = self._schedule
        n = self.n
        attn_dep = self._ready.get(attn_id(layer))
        if self.features.overlap:
            # barrier is ascending (a block's op ids); the attn transfer is
            # either newer than all of it or older than all of it.
            if attn_dep is None:
                base_deps = tuple(barrier)
            elif not barrier or attn_dep > barrier[-1]:
                base_deps = tuple(barrier) + (attn_dep,)
            elif attn_dep < barrier[0]:
                base_deps = (attn_dep,) + tuple(barrier)
            else:
                base_deps = self._dep_prefix(attn_dep, *barrier)
        else:
            base_deps = self._dep_prefix(attn_dep, *barrier)
        kv_store = self.placement.kv_level != "vram"
        base_id = len(sched)
        rng = range(n)
        res, phases, batches = self._attn_block_consts(stp.kv_stream, kv_store)
        if stp.kv_stream and kv_store:
            # kvload b, attn b, kvstore b, kvload b+1, ...
            attn_ops = [base_id + 3 * b + 1 for b in rng]
            deps = [
                d
                for a in attn_ops
                for d in ((), base_deps + (a - 1,), (a,))
            ]
            patterns = ("kvload", "attn", "kvstore")
        elif kv_store:
            # attn b, kvstore b, ...
            attn_ops = [base_id + 2 * b for b in rng]
            deps = [d for a in attn_ops for d in (base_deps, (a,))]
            patterns = ("attn", "kvstore")
        else:
            attn_ops = [base_id + b for b in rng]
            deps = [base_deps] * n
            patterns = ("attn",)
        sched.extend_raw(
            res, stp.attn_block_durs, deps, None, [layer] * len(res), phases,
            batches, label_plan=(patterns, layer, step),
        )
        self._layer_first_compute = attn_ops[0]
        self._last_compute = attn_ops[-1]
        if not kv_store and stp.kv_alloc_delta > 0:
            # KV stays in VRAM: the cache growth lands on each attention op.
            tids = [f"kv.{layer}.{b}.s{step}" for b in rng]
            sched.extend_effects(
                attn_ops, EV_ALLOC, "vram", tids, [stp.kv_alloc_delta] * n
            )
            self._kv_allocs.extend((tid, stp.kv_alloc_delta) for tid in tids)
        return attn_ops

    # ---- main build -----------------------------------------------------------------

    def build(self, schedule: Schedule | None = None) -> BuildResult:
        """Emit one batch group's generation into ``schedule``.

        Sequential systems call this once per batch on one builder,
        swapping :attr:`oracle` (and :attr:`prefetcher`) in between; the
        per-group emission state below starts fresh on every call.
        """
        self._schedule = schedule if schedule is not None else Schedule()
        # tensor_id -> op id of the transfer that made it VRAM-ready.
        self._ready: dict[str, int] = {}
        self._pending_hot: dict[int, list[int]] = {}
        self._last_compute: int | None = None
        self._last_transfer: int | None = None
        self._layer_first_compute: int | None = None
        self._kv_allocs: list[tuple[str, int]] = []  # (tensor id, bytes)
        self._step: _StepCosts | None = None
        result = BuildResult(schedule=self._schedule, groups_built=1)
        wl = self.workload

        self._emit_init_residents()
        prev_step_tail: int | None = None
        for step in range(wl.num_steps):
            if self.prefetcher is not None:
                self.prefetcher.begin_step()
            new_tokens = wl.prompt_len if step == 0 else 1
            context = wl.prompt_len if step == 0 else wl.context_at(step)
            self._step = self._step_costs(step, new_tokens, context)
            # Layer 0 weights for this step (for step 0; later steps were
            # prefetched at the tail of the previous step).
            self._issue_layer_transfers(0, deps=[])
            barrier: list[int] = self._dep(prev_step_tail)
            embed_op = self._emit_embed(step, new_tokens, barrier)
            barrier = [embed_op]

            for routing in self.oracle.step_routing(step, wl):
                layer = routing.layer
                barrier = self._emit_layer(step, layer, routing, barrier)
                next_layer = layer + 1
                if next_layer < self.oracle.num_layers:
                    self._issue_layer_transfers(
                        next_layer, deps=self._prefetch_anchor(barrier)
                    )
            head_op = self._emit_head(step, new_tokens, barrier)
            if step + 1 < wl.num_steps:
                self._issue_layer_transfers(0, deps=self._prefetch_anchor([head_op]))
            prev_step_tail = head_op
            result.step_last_op.append(head_op)
        if self._kv_allocs and prev_step_tail is not None:
            # The group's KV cache is released when its generation completes
            # (sequential systems reuse the space for the next batch).
            tids, nbytes = zip(*self._kv_allocs)
            self._schedule.extend_effects(
                [prev_step_tail] * len(tids), EV_FREE, "vram", tids, nbytes
            )
            self._kv_allocs = []
        return result

    # ---- emission pieces ---------------------------------------------------------

    def _emit_init_residents(self) -> None:
        if len(self._schedule) > 0:
            return  # sequential systems share one resident blob per run
        static = self.placement.resident_bytes + self.placement.activation_reserve_bytes
        self._schedule.compute(
            0.0,
            "init:resident",
            allocs=[MemEffect("vram", "resident+workspace", static)],
            phase=PHASE_OTHER,
        )

    def _prefetch_anchor(self, barrier: list[int]) -> list[int]:
        """Dependency controlling when next-layer prefetch may start.

        With overlap, the next layer's weights start streaming once the
        current layer's computation begins (double buffering: at most two
        layers of weights are in flight); without overlap (Accelerate-like
        synchronous loading) transfers wait for the layer barrier.
        """
        if self.features.overlap:
            if self._layer_first_compute is None:
                return []
            return [self._layer_first_compute]
        return list(barrier)

    def _issue_layer_transfers(self, layer: int, deps: list[int]) -> None:
        """Issue attention/gate/expert weight transfers for ``layer``."""
        model = self.model
        weights = [(attn_id(layer), "attn")]
        if model.is_dense:
            hot = [0]  # the single FFN "expert" is the dense MoE layer
        else:
            weights.append((gate_id(layer), "gate"))
            if self.features.cpu_experts:
                hot = []
            elif not self.features.hot_prefetch:
                hot = list(range(model.num_experts))
            elif self.prefetcher is not None:
                hot = self.prefetcher.predict(layer)
            else:
                hot = list(range(min(model.top_k, model.num_experts)))
        eids = self._layer_expert_ids(layer)
        weights.extend((eids[e], "expert") for e in hot)
        self._load_block(layer, weights, deps)
        self._pending_hot[layer] = hot

    def _load_block(
        self, layer: int, weights: list[tuple[str, str]], deps: list[int]
    ) -> None:
        """Issue prefetch transfers for ``(tensor_id, kind)`` weights in order.

        Every pending weight shares the dependency prefix, so the common
        case (all stream from DRAM) is one :meth:`Schedule.extend_raw`
        call, row for row what :meth:`_load_weight` would emit per weight.
        A layer with a weight spilled to disk falls back to
        :meth:`_load_weight`, which interleaves the disk reads.
        """
        resident, ready = self._resident_ids, self._ready
        pending = [
            (tid, kind)
            for tid, kind in weights
            if tid not in resident and tid not in ready
        ]
        if not pending:
            return
        tids = [tid for tid, _ in pending]
        if not self._disk_ids.isdisjoint(tids):
            for tid, kind in weights:
                self._load_weight(tid, kind, layer, deps)
            return
        nbytes = [self._weight_bytes(tid, kind) for tid, kind in pending]
        transfer_time, pinned = self.cost.transfer_time, self.placement.pinned
        all_deps = list(deps)
        if not self.features.overlap and self._last_compute is not None:
            all_deps.append(self._last_compute)
        k = len(tids)
        sched = self._schedule
        base = sched.extend_raw(
            [_H2D_CODE] * k,
            [transfer_time(nb, "dram", "vram", pinned=pinned) for nb in nbytes],
            [self._sorted_deps(all_deps)] * k,
            [f"h2d:{tid}" for tid in tids],
            [layer] * k,
            [PHASE_TRANSFER] * k,
            [-1] * k,
        )
        ops = range(base, base + k)
        sched.extend_effects(list(ops), EV_ALLOC, "vram", tids, nbytes)
        ready.update(zip(tids, ops))
        self._last_transfer = base + k - 1

    def _emit_embed(self, step: int, new_tokens: int, deps: list[int]) -> int:
        tokens = self.workload.total_sequences * new_tokens
        cost = OpCost(0.0, tokens * self.model.hidden_size * self.model.dtype_bytes, 1)
        return self._gpu(cost, f"embed:s{step}", deps=deps, phase=PHASE_OTHER)

    def _emit_head(self, step: int, new_tokens: int, deps: list[int]) -> int:
        model = self.model
        tokens = self.workload.total_sequences  # logits only for last position
        flops = 2.0 * model.hidden_size * model.vocab_size * tokens
        cost = OpCost(flops, model.vocab_size * tokens * model.dtype_bytes, 2)
        return self._gpu(cost, f"head:s{step}", deps=deps, phase=PHASE_OTHER)

    def _emit_layer(
        self,
        step: int,
        layer: int,
        routing: LayerRouting,
        barrier: list[int],
    ) -> list[int]:
        """Emit one MoE block (attention + gate + experts); returns barrier."""
        model = self.model
        stp = self._step
        attn_ops = self._emit_attention_block(step, layer, barrier)

        scale = routing.scale
        rows = routing.assignments.shape[0]
        if rows == stp.rows:
            sizes = stp.batch_sizes
        else:  # trace oracles may vary rows per layer
            sizes = self._batch_sizes(rows)

        if model.is_dense:
            return self._emit_dense_ffn(step, layer, attn_ops, sizes, scale)

        stats = routing.stats(self.n, model.num_experts)
        gate_dep = self._ready.get(gate_id(layer))
        if self.features.overlap:
            prefix = () if gate_dep is None else (gate_dep,)
        else:
            prefix = self._dep_prefix(gate_dep)
        if sizes is stp.batch_sizes and scale == stp.scale:
            gate_durs = stp.gate_dur_b
        else:
            gate_durs = self._gate_durations(sizes, scale)
        base_id = self._schedule.extend_raw(
            self._gpu_codes_n,
            gate_durs,
            [prefix + (a,) for a in attn_ops],
            None,
            [layer] * self.n,
            self._gate_phases_n,
            self._batches_0n,
            label_plan=(("gate",), layer, step),
        )
        gate_ops = list(range(base_id, base_id + self.n))
        self._last_compute = gate_ops[-1]

        predicted = self._pending_hot.get(layer, [])
        if self.prefetcher is not None:
            self.prefetcher.observe(
                layer, routing.assignments, predicted, counts=stats.totals
            )

        resident = self._resident_experts(layer)

        # Per-expert gate dependencies: gate ops of the batches that routed
        # tokens to the expert, in batch (= op id) order.
        num_experts = model.num_experts
        involved_by_e: list[list[int]] = [[] for _ in range(num_experts)]
        for p in stats.pairs:
            b, e = divmod(p, num_experts)
            involved_by_e[e].append(base_id + b)

        if self.features.cpu_experts:
            expert_ops = self._emit_cpu_experts(
                step, layer, routing, stats, involved_by_e, resident
            )
        else:
            self._issue_cold_transfers(
                layer, stats, involved_by_e, predicted, resident
            )
            if self.features.adjust_order:
                expert_ops = self._emit_experts_expert_major(
                    step, layer, routing, stats, involved_by_e, predicted,
                    resident,
                )
            else:
                expert_ops = self._emit_experts_batch_major(
                    step, layer, routing, stats, gate_ops
                )

        self._attach_layer_frees(layer, attn_ops, gate_ops, expert_ops)
        return expert_ops if expert_ops else gate_ops

    # ---- expert emission variants -------------------------------------------------

    def _issue_cold_transfers(
        self,
        layer: int,
        stats: RoutingStats,
        involved_by_e: list[list[int]],
        predicted: list[int],
        resident: set[int],
    ) -> None:
        """On-demand transfers for activated non-prefetched experts, in
        ascending expert id (the order :func:`ordered_active_experts`
        assumes for cold experts)."""
        if not self.features.hot_prefetch:
            return  # whole layer already in the prefetch stream
        skip = resident.union(predicted)
        eids = self._layer_expert_ids(layer)
        for e in stats.active:
            if e not in skip:
                # The transfer fires off the first gate that routed tokens here.
                self._load_weight(
                    eids[e], "expert", layer, [involved_by_e[e][0]], on_demand=True
                )

    def _expert_cost(self, tokens: float) -> OpCost:
        cost = self.cost.expert_cost(max(1.0, tokens))
        if self.features.quantize:
            cost = cost.merged(self.cost.dequant_cost(self.model.expert_bytes()))
        return cost

    def _emit_experts_expert_major(
        self,
        step: int,
        layer: int,
        routing: LayerRouting,
        stats: RoutingStats,
        involved_by_e: list[list[int]],
        predicted: list[int],
        resident: set[int],
    ) -> list[int]:
        order = ordered_active_experts(
            stats.totals, predicted, resident=resident, adjust=True
        )
        if not order:
            return []
        table = self._duration_table(routing)
        totals = stats.totals
        no_overlap_dep = (
            self._last_transfer if not self.features.overlap else None
        )
        durs: list[float] = []
        deps: list[tuple[int, ...]] = []
        eids = self._layer_expert_ids(layer)
        ready_get = self._ready.get
        for e in order:
            involved = involved_by_e[e]  # ascending gate op ids
            transfer = ready_get(eids[e])
            if no_overlap_dep is not None:
                dep_set = set(involved)
                dep_set.add(no_overlap_dep)
                if transfer is not None:
                    dep_set.add(transfer)
                dep = tuple(sorted(dep_set))
            elif transfer is None:
                dep = tuple(involved)
            elif transfer > involved[-1]:  # on-demand: issued after the gates
                dep = tuple(involved) + (transfer,)
            else:  # prefetched: issued before the attention block
                dep = (transfer,) + tuple(involved)
            durs.append(table[totals[e]])
            deps.append(dep)
        k = len(order)
        base_id = self._schedule.extend_raw(
            [_GPU_CODE] * k, durs, deps, None,
            [layer] * k, [PHASE_EXPERT] * k, [-1] * k,
            label_plan=(("exp",), layer, step), label_tags=order,
        )
        ops = list(range(base_id, base_id + k))
        self._last_compute = ops[-1]
        self._free_experts(layer, zip(order, ops))
        return ops

    def _emit_experts_batch_major(
        self,
        step: int,
        layer: int,
        routing: LayerRouting,
        stats: RoutingStats,
        gate_ops: list[int],
    ) -> list[int]:
        """Unorchestrated order: batch by batch, expert id ascending."""
        num_experts = self.model.num_experts
        counts = stats.counts
        table = self._duration_table(routing)
        no_overlap_dep = (
            self._last_transfer if not self.features.overlap else None
        )
        eids = self._layer_expert_ids(layer)
        ready_get = self._ready.get
        base_id = len(self._schedule)
        durs: list[float] = []
        deps: list[tuple[int, ...]] = []
        experts: list[int] = []
        batches: list[int] = []
        last_op: dict[int, int] = {}  # expert -> op of its last batch
        for i, p in enumerate(stats.pairs):
            b, e = divmod(p, num_experts)
            gate = gate_ops[b]
            transfer = ready_get(eids[e])
            if no_overlap_dep is not None:
                dep_set = {gate, no_overlap_dep}
                if transfer is not None:
                    dep_set.add(transfer)
                dep = tuple(sorted(dep_set))
            elif transfer is None:
                dep = (gate,)
            elif transfer < gate:  # prefetched: issued before the gates
                dep = (transfer, gate)
            else:  # on-demand: issued after the gates
                dep = (gate, transfer)
            durs.append(table[counts[p]])
            deps.append(dep)
            experts.append(e)
            batches.append(b)
            last_op[e] = base_id + i
        k = len(durs)
        self._schedule.extend_raw(
            [_GPU_CODE] * k, durs, deps, None,
            [layer] * k, [PHASE_EXPERT] * k, batches,
            label_plan=(("exp",), layer, step), label_tags=experts,
        )
        # Each expert is freed after its last computation (in op order);
        # inactive loaded experts (whole-layer prefetch) are pure I/O
        # waste, freed at the layer barrier.
        tail = base_id + k - 1 if k else gate_ops[-1]
        frees = sorted(last_op.items(), key=lambda item: item[1])
        frees.extend((e, tail) for e in stats.inactive)
        self._free_experts(layer, frees)
        if k:
            self._last_compute = tail
        return list(range(base_id, base_id + k))

    def _emit_cpu_experts(
        self,
        step: int,
        layer: int,
        routing: LayerRouting,
        stats: RoutingStats,
        involved_by_e: list[list[int]],
        resident: set[int],
    ) -> list[int]:
        """Fiddler-style: run DRAM-resident experts on the CPU when faster."""
        model = self.model
        scale = routing.scale
        ops: list[int] = []
        gpu_durs = self._duration_table(routing)
        cpu_durs = self._duration_table(routing, on_cpu=True)
        eids = self._layer_expert_ids(layer)
        append_row = self._schedule.append_row
        for e in stats.active:
            count = stats.totals[e]
            tokens = count * scale
            involved = involved_by_e[e]
            if e in resident:
                ops.append(
                    self._gpu_dur(
                        gpu_durs[count],
                        f"exp{e}:L{layer}s{step}",
                        deps=list(involved),
                        layer=layer,
                        phase=PHASE_EXPERT,
                    )
                )
                continue
            transfer_s = self.cost.transfer_time(
                self._weight_bytes(eids[e], "expert"), "dram", "vram",
                pinned=self.placement.pinned,
            )
            gpu_path = transfer_s + gpu_durs[count]
            cpu_path = cpu_durs[count]
            hidden_bytes = int(tokens * model.hidden_size * model.dtype_bytes)
            if cpu_path <= gpu_path:
                down = append_row(
                    _D2H_CODE, self.cost.transfer_time(hidden_bytes, "vram", "dram"),
                    f"d2h:hid:L{layer}e{e}s{step}", tuple(involved), layer, PHASE_EXPERT,
                )
                cpu_op = append_row(
                    _CPU_CODE, cpu_path, f"cpu-exp{e}:L{layer}s{step}",
                    (down,), layer, PHASE_EXPERT,
                )
                up = append_row(
                    _H2D_CODE, self.cost.transfer_time(hidden_bytes, "dram", "vram"),
                    f"h2d:hid:L{layer}e{e}s{step}", (cpu_op,), layer, PHASE_EXPERT,
                )
                ops.append(up)
            else:
                transfer = self._load_weight(
                    eids[e],
                    "expert",
                    layer,
                    list(involved),
                    on_demand=True,
                )
                op = self._gpu_dur(
                    gpu_durs[count],
                    f"exp{e}:L{layer}s{step}",
                    deps=self._dep(transfer, *involved),
                    layer=layer,
                    phase=PHASE_EXPERT,
                )
                self._free_experts(layer, ((e, op),))
                ops.append(op)
        return ops

    def _emit_dense_ffn(
        self,
        step: int,
        layer: int,
        attn_ops: list[int],
        sizes: list[int],
        scale: float,
    ) -> list[int]:
        """Dense models: the single FFN processes every batch in turn."""
        prefix = self._dep_prefix(self._ready.get(expert_id(layer, 0)))
        dur_cache: dict[int, float] = {}
        durs: list[float] = []
        for b in range(self.n):
            rows = sizes[b]
            dur = dur_cache.get(rows)
            if dur is None:
                tokens = max(1.0, rows * scale)
                dur = self.cost.gpu_time(self._expert_cost(tokens))
                dur_cache[rows] = dur
            durs.append(dur)
        base_id = self._schedule.extend_raw(
            self._gpu_codes_n,
            durs,
            [prefix + (a,) for a in attn_ops],
            None,
            [layer] * self.n,
            self._expert_phases_n,
            self._batches_0n,
            label_plan=(("ffn",), layer, step),
        )
        ops = list(range(base_id, base_id + self.n))
        self._last_compute = ops[-1]
        self._attach_layer_frees(layer, attn_ops, [], ops)
        return ops

    # ---- frees & KV -------------------------------------------------------------------

    def _attach_layer_frees(
        self,
        layer: int,
        attn_ops: list[int],
        gate_ops: list[int],
        expert_ops: list[int],
    ) -> None:
        if attn_ops:
            self._free_weight(attn_id(layer), attn_ops[-1])
        if gate_ops and not self.model.is_dense:
            self._free_weight(gate_id(layer), gate_ops[-1])
        # Any experts still ready (e.g. prefetched but unused) are freed at
        # the layer barrier to cap peak memory.
        tail = (expert_ops or gate_ops or attn_ops)[-1]
        ready = self._ready
        leftover = [
            (e, tail)
            for e, tid in enumerate(self._layer_expert_ids(layer))
            if tid in ready
        ]
        if leftover:
            self._free_experts(layer, leftover)

