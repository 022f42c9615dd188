"""The per-layer pipeline decider: the test oracle of the step pass.

:class:`ReferenceBuilder` is :class:`repro.core.pipeline.PipelineBuilder`
as it decided before emission moved to one array pass per step: it walks
(step, layer) in Python, keeps which weights are in flight in a ``_ready``
dict, frees them layer by layer in release order, and materializes small
per-family tables. It shares the builder's cost helpers (``_step_costs``,
``_gate_or_ffn_durs``, ``_duration_table``) and nothing of its decide or
materialize passes, so ``tests/test_emission_differential.py`` can hold
the step pass to it column for column.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

import numpy as np

from repro.core.pipeline import QUANT_BYTES_FACTOR, PipelineBuilder
from repro.core.placement import DISK, VRAM
from repro.hardware.costmodel import OpCost
from repro.model.tensors import attn_id, expert_id, gate_id
from repro.routing.oracle import LayerRouting
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

# A batch's attention block by its op count: (label, resource, phase,
# waits on the unit's attention prefix, waits on the op before it).
_ATTN_BLOCKS = {
    1: ((_L_ATTN, _GPU, _P_ATTN, True, False),),
    2: ((_L_ATTN, _GPU, _P_ATTN, True, False), (_L_KVSTORE, _D2H, _P_KV, False, True)),
    3: (
        (_L_KVLOAD, _H2D, _P_KV, False, False),
        (_L_ATTN, _GPU, _P_ATTN, True, True),
        (_L_KVSTORE, _D2H, _P_KV, False, True),
    ),
}


def _render_labels(codes, xs, layers, batches, steps, tids) -> list[str]:
    """Render one build's deferred labels (see :data:`_LABELS`)."""
    return [
        _LABELS[c].format(l=l, b=b, s=s, x=x, t=tids[x] if c in (_L_H2D, _L_DISK) else "")
        for c, x, l, b, s in zip(
            codes.tolist(), xs.tolist(), layers.tolist(), batches.tolist(), steps.tolist()
        )
    ]


def _row_tuples(values: np.ndarray, ids: list[int], start: int) -> list[tuple[int, ...]]:
    """Per row of ``values``, its sorted distinct op ids (-1: absent), as
    :func:`_sorted_deps` would give them; ``ids[i]`` is op ``start + i``.

    Rows sharing a pattern of kept columns (bit-packed to one opaque key of
    any width) are zipped into tuples at once.
    """
    rows = np.sort(values, axis=1)
    keep = rows >= 0
    keep[:, :-1] &= rows[:, :-1] != rows[:, 1:]
    packed = np.packbits(keep, axis=1)
    _, first, group = np.unique(
        packed.view(f"V{packed.shape[1]}").ravel(), return_index=True, return_inverse=True
    )
    out: list[tuple[int, ...]] = [()] * len(rows)
    op = ids.__getitem__
    for g, i in enumerate(first.tolist()):
        sel = np.flatnonzero(group == g)
        kept = (map(op, (rows[sel, j] - start).tolist()) for j in np.flatnonzero(keep[i]))
        for i, row in zip(sel.tolist(), zip(*kept)):
            out[i] = row
    return out


def ordered_step_experts(counts, in_vram) -> tuple[list[list[int]], list[list[int]]]:
    """Per layer, the experts with routed tokens in execution order
    (in-VRAM busiest first, then cold ascending) and its cold ones."""
    active = counts > 0
    ready = active & in_vram
    key = np.where(ready, -counts, np.where(active, 0, 1))
    rows = np.argsort(key, axis=1, kind="stable").tolist()
    orders = [row[:na] for row, na in zip(rows, active.sum(axis=1).tolist())]
    cold = [order[nr:] for order, nr in zip(orders, ready.sum(axis=1).tolist())]
    return orders, cold


def _sorted_deps(deps) -> tuple[int, ...]:
    """Canonical (sorted, deduplicated) dependency tuple."""
    if len(deps) <= 1:
        return tuple(deps)
    return tuple(sorted(set(deps)))



class _Decisions:
    """What the decide pass records until the next materialize.

    Per op family, records (tuples) or columns (parallel lists) in
    decision order; op ids are absolute (``start`` is the length of the
    schedule the decisions were made for) and a *run* is a contiguous
    block of op ids from its first op. Memory effects are flat
    ``(op, kind, key)`` columns in attachment order, where a key is a
    weight index or ``len(tids) + i`` for the i-th ``extra`` tensor (KV
    growth, the resident blob). Decide appends each layer's frees in
    release order when the layer ends (see
    :meth:`PipelineBuilder._free_ready`).
    """

    def __init__(self, start: int):
        self.start = start
        self.nops = start  # the next op id
        # Per step: attention-block ops per batch and their n * m durations.
        self.step_m: list[int] = []
        self.step_durs: list[list[float]] = []
        # Layer units, n * m attention-block ops then n gate (or dense FFN)
        # ops: (first op, layer, step, steps index, attention deps, gate
        # deps, gate / FFN durations).
        self.units: list[tuple] = []
        # Embed / head / init ops: (op, duration, deps, label code, step).
        self.singles: list[tuple] = []
        # Transfer runs on one resource: first op, length, resource; and
        # per transfer its weight and deps.
        self.x_base: list[int] = []
        self.x_len: list[int] = []
        self.x_res: list[int] = []
        self.x_w: list[int] = []
        self.x_deps: list[tuple] = []
        # Expert blocks, a layer's GPU experts: (first op, layer, step,
        # first gate op, token scale, routing stats, expert-major order
        # (None: one op per routed pair), {weight: ready transfer op}, the
        # last transfer before them without overlap (else -1)).
        self.experts: list[tuple] = []
        # CPU-expert systems: GPU experts (op, layer, step, expert,
        # duration, deps) and CPU round trips (first op, layer, step,
        # expert, deps, token count, scale).
        self.gpu_experts: list[tuple] = []
        self.cpu: list[tuple] = []
        # Memory effects, flat.
        self.ev_op: list[int] = []
        self.ev_kind: list[int] = []
        self.ev_key: list[int] = []
        self.extra_tids: list[str] = []
        self.extra_nbytes: list[int] = []

    def transfer(self, base: int, ws, res: int, deps) -> None:
        """Record a run of transfers of weights ``ws`` from op ``base``."""
        self.x_base.append(base)
        self.x_len.append(len(ws))
        self.x_res.append(res)
        self.x_w.extend(ws)
        self.x_deps.extend(deps)

    def effect(self, kind: int, ops, keys) -> None:
        """Attach effects of one kind to ``ops``, key for key."""
        self.ev_op.extend(ops)
        self.ev_kind.extend([kind] * len(keys))
        self.ev_key.extend(keys)



class ReferenceBuilder(PipelineBuilder):
    """Per-layer decide and per-family materialize over the builder's
    cost helpers (see the module docstring)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._reference_tables()
        self._pending = None

    def _reference_tables(self) -> None:
        """Per-weight tables, indexed ``w = layer * stride + slot`` (slot 0
        attention, 1 gate, ``2 + e`` expert ``e``)."""
        model, placement = self.model, self.placement
        num_experts = model.num_experts
        self._stride = stride = num_experts + 2
        tids: list[str] = []
        for layer in range(model.num_layers):
            tids += [attn_id(layer), gate_id(layer)]
            tids += [expert_id(layer, e) for e in range(num_experts)]
        self._tids = tids
        nbytes = [self.inventory.nbytes(t) if t in self.inventory else 0 for t in tids]
        if self.features.quantize:  # attention and experts, not gates
            nbytes = [
                nb if w % stride == 1 else int(nb * QUANT_BYTES_FACTOR)
                for w, nb in enumerate(nbytes)
            ]
        self._nbytes = nbytes
        transfer_time, pinned = self.cost.transfer_time, placement.pinned
        self._h2d_durs = [transfer_time(nb, "dram", "vram", pinned=pinned) for nb in nbytes]
        self._disk_durs = [transfer_time(nb, "disk", "dram") for nb in nbytes]
        level = placement.location.get
        self._resident = {w for w, t in enumerate(tids) if level(t) == VRAM}
        self._on_disk = {w for w, t in enumerate(tids) if level(t) == DISK}
        self._resident_experts = [
            {e for e in range(num_experts) if layer * stride + 2 + e in self._resident}
            for layer in range(model.num_layers)
        ]
        self._resident_mask = np.zeros((model.num_layers, num_experts), dtype=bool)
        for layer, experts in enumerate(self._resident_experts):
            self._resident_mask[layer, list(experts)] = True
        if model.is_dense:
            self._static_hot = [0]
        elif self.features.cpu_experts:
            self._static_hot = []
        elif not self.features.hot_prefetch:
            self._static_hot = list(range(num_experts))
        else:
            self._static_hot = list(range(min(model.top_k, num_experts)))
        # Per layer: non-resident attention (+ gate) weights, and those
        # plus the static hot experts, in prefetch order.
        self._block_loads = [
            [w for w in ([wb] if model.is_dense else [wb, wb + 1]) if w not in self._resident]
            for wb in range(0, model.num_layers * stride, stride)
        ]
        self._static_loads = [
            loads + [w for w in (wb + 2 + e for e in self._static_hot) if w not in self._resident]
            for loads, wb in zip(self._block_loads, range(0, model.num_layers * stride, stride))
        ]


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
        d = self._d = self._pending
        # weight index -> op id of the transfer that made it VRAM-ready;
        # it only ever holds the weights of the next layer to decide.
        self._ready: dict[int, int] = {}
        self._last_compute: int | None = None
        self._last_transfer: int | None = None
        self._layer_first_compute: int | None = None
        kv_keys: list[int] = []
        self._kv_keys = kv_keys
        features, model, wl = self.features, self.model, self.workload
        self._predict = (
            self.prefetcher is not None
            and features.hot_prefetch
            and not (model.is_dense or features.cpu_experts)
        )
        if d.nops == 0:  # sequential systems share one resident blob per run
            d.singles.append((0, 0.0, (), _L_INIT, -1))
            d.nops = 1
            d.effect(EV_ALLOC, (0,), (self._extra_key(),))
            d.extra_tids.append("resident+workspace")
            d.extra_nbytes.append(
                self.placement.resident_bytes + self.placement.activation_reserve_bytes
            )
        tokens = wl.total_sequences  # the head computes last-position logits
        head_dur = self.cost.gpu_time(
            OpCost(
                2.0 * model.hidden_size * model.vocab_size * tokens,
                model.vocab_size * tokens * model.dtype_bytes,
                2,
            )
        )
        num_layers = self.oracle.num_layers
        prefetcher = self.prefetcher
        experts = not (model.is_dense or features.cpu_experts)
        heads: list[int] = []
        prev_tail: int | None = None
        for step in range(wl.num_steps):
            routing = self.oracle.step_routing(step, wl)
            new_tokens = wl.prompt_len if step == 0 else 1
            context = wl.prompt_len if step == 0 else wl.context_at(step)
            self._step = stp = self._step_costs(step, new_tokens, context)
            self._step_index = len(d.step_m)
            d.step_m.append(stp.m)
            d.step_durs.append(stp.attn_durs)
            if self._predict:
                self._hot = prefetcher.predict_step(routing.primaries)
            else:
                self._hot = [self._static_hot] * num_layers
            if experts:
                self._plan_experts(routing)
            elif not self._dense:  # CPU experts read each layer's stats
                routing.stats(self.n, model.num_experts)
            # Layer 0 weights for this step (for step 0; later steps were
            # prefetched at the tail of the previous step).
            self._issue_layer_transfers(0, ())
            embed_dur = self.cost.gpu_time(
                OpCost(0.0, tokens * new_tokens * model.hidden_size * model.dtype_bytes, 1)
            )
            barrier = (
                self._gpu_single(
                    embed_dur, () if prev_tail is None else (prev_tail,), _L_EMBED, step
                ),
            )
            for layer_routing in routing:
                layer = layer_routing.layer
                barrier = self._decide_layer(step, layer_routing, barrier)
                if layer + 1 < num_layers:
                    self._issue_layer_transfers(layer + 1, self._prefetch_anchor(barrier))
            head = self._gpu_single(head_dur, barrier, _L_HEAD, step)
            if step + 1 < wl.num_steps:
                self._issue_layer_transfers(
                    0,
                    self._prefetch_anchor((head,)),
                    prefetcher.predict_first() if self._predict else None,
                )
            prev_tail = head
            heads.append(head)
        if kv_keys and prev_tail is not None:
            # The group's KV cache is released when its generation completes
            # (sequential systems reuse the space for the next batch).
            d.effect(EV_FREE, [prev_tail] * len(kv_keys), kv_keys)
        return heads

    # ---- decision helpers ---------------------------------------------------------

    def _extra_key(self) -> int:
        """Effect key of the next ``extra`` tensor."""
        return len(self._tids) + len(self._d.extra_tids)

    def _gpu_single(self, duration: float, deps, label: int, step: int) -> int:
        """Embed / head op; waits for every transfer issued so far in
        synchronous (no-overlap, Accelerate-style) execution."""
        d = self._d
        op = d.nops
        d.nops += 1
        d.singles.append(
            (op, duration, self._no_overlap_deps(tuple(deps), self._last_transfer), label, step)
        )
        self._last_compute = op
        return op

    def _prefetch_anchor(self, barrier) -> tuple[int, ...]:
        """Dependency controlling when next-layer prefetch may start.

        With overlap, the next layer's weights start streaming once the
        current layer's computation begins (double buffering: at most two
        layers of weights are in flight); without overlap (Accelerate-like
        synchronous loading) transfers wait for the layer barrier.
        """
        if self.features.overlap:
            first = self._layer_first_compute
            return () if first is None else (first,)
        return tuple(barrier)

    def _no_overlap_deps(self, deps: tuple, running: int | None) -> tuple[int, ...]:
        """``deps`` plus, in synchronous execution, the ``running`` op
        (the last compute for transfers, the last transfer for compute)."""
        if not self.features.overlap and running is not None:
            deps += (running,)
        return _sorted_deps(deps)

    def _load(self, w: int, deps: tuple, *, on_demand: bool) -> int | None:
        """Bring weight ``w`` to VRAM (after a disk read if it is spilled);
        returns the transfer op, or None if resident.

        ``on_demand`` routes the copy through the dedicated on-demand CUDA
        stream (paper §8), so gate-triggered expert transfers do not block
        the weight-prefetch stream head-of-line.
        """
        if w in self._resident:
            return None
        ready = self._ready.get(w)
        if ready is not None:
            return ready
        d = self._d
        deps = self._no_overlap_deps(deps, self._last_compute)
        if w in self._on_disk:
            d.transfer(d.nops, (w,), _DISK, (deps,))
            deps = (d.nops,)
            d.nops += 1
        op = d.nops
        d.nops += 1
        d.transfer(op, (w,), _H2D_OD if on_demand else _H2D, (deps,))
        d.effect(EV_ALLOC, (op,), (w,))
        self._ready[w] = op
        self._last_transfer = op
        return op

    def _load_run(self, ws: list[int], res: int, deps: list[tuple]) -> None:
        """Transfer weights ``ws`` (none resident, ready or on disk) back to
        back on one stream, with per-transfer ``deps``."""
        d = self._d
        base = d.nops
        d.nops += len(ws)
        d.transfer(base, ws, res, deps)
        ops = range(base, d.nops)
        d.effect(EV_ALLOC, ops, ws)
        self._ready.update(zip(ws, ops))
        self._last_transfer = d.nops - 1

    def _issue_layer_transfers(self, layer: int, deps: tuple, hot=None) -> None:
        """Prefetch attention/gate/expert weights for ``layer`` in order:
        the hot experts are the step's forecast for ``layer`` unless
        ``hot`` overrides them (the next step's layer 0).

        Every pending weight shares the dependency prefix; a layer with a
        weight spilled to disk interleaves each disk read before its
        transfer.
        """
        if self._predict:
            hot = self._hot[layer] if hot is None else hot
            ew = layer * self._stride + 2
            resident = self._resident
            pending = self._block_loads[layer] + [
                ew + e for e in hot if ew + e not in resident
            ]
        else:
            pending = self._static_loads[layer]
        ready = self._ready
        if ready:
            pending = [w for w in pending if w not in ready]
        if not pending:
            return
        if not self._on_disk.isdisjoint(pending):
            for w in pending:
                self._load(w, deps, on_demand=False)
            return
        self._load_run(
            pending, _H2D, [self._no_overlap_deps(deps, self._last_compute)] * len(pending)
        )

    def _decide_layer(self, step: int, routing: LayerRouting, barrier):
        """Decide one MoE block (attention + gate + experts); returns the
        barrier (the block's last compute ops, ascending)."""
        d, stp, n, features = self._d, self._step, self.n, self.features
        layer = routing.layer
        wb = layer * self._stride
        ready = self._ready

        # Attention block: n batches of m ops each. The barrier ascends and
        # with overlap the attention transfer precedes or follows all of it.
        attn_dep = ready.get(wb)
        attn_deps = tuple(barrier)
        if attn_dep is None:
            pass
        elif not barrier or attn_dep > barrier[-1]:
            attn_deps += (attn_dep,)
        elif attn_dep < barrier[0]:
            attn_deps = (attn_dep,) + attn_deps
        else:
            attn_deps = _sorted_deps(attn_deps + (attn_dep,))
        if not features.overlap:
            attn_deps = self._no_overlap_deps(attn_deps, self._last_transfer)
        m = stp.m
        base = d.nops
        first_attn = base + 1 if m == 3 else base
        gate_base = base + n * m
        last_gate = gate_base + n - 1
        self._layer_first_compute = first_attn
        if not self._kv_store and stp.kv_alloc_delta > 0:
            # KV stays in VRAM: the cache growth lands on each attention op.
            key = self._extra_key()
            keys = range(key, key + n)
            d.extra_tids.extend([f"kv.{layer}.{b}.s{step}" for b in range(n)])
            d.extra_nbytes.extend([stp.kv_alloc_delta] * n)
            d.effect(EV_ALLOC, range(first_attn, gate_base, m), keys)
            self._kv_keys.extend(keys)

        # Gate block (dense models: the single FFN processes every batch).
        gate_dep = ready.get(wb + 2 if self._dense else wb + 1)
        gate_deps = () if gate_dep is None else (gate_dep,)
        if not features.overlap:
            gate_deps = self._no_overlap_deps(gate_deps, self._last_transfer)
        rows, scale = routing.assignments.shape[0], routing.scale
        d.units.append((
            base, layer, step, self._step_index, attn_deps, gate_deps,
            self._block_durs.get((rows, scale)) or self._gate_or_ffn_durs(rows, scale),
        ))
        d.nops = gate_base + n
        self._last_compute = last_gate

        last_ops = None
        if self._dense:
            expert_ops = ()
        elif features.cpu_experts:
            expert_ops = self._decide_cpu_experts(step, routing, gate_base)
        else:
            last_ops, expert_ops = self._decide_experts(step, routing, gate_base)
        if ready:
            self._free_ready(
                ready, wb, first_attn + m * (n - 1), last_gate,
                expert_ops[-1] if expert_ops else last_gate, last_ops,
            )
        self._ready = {}
        return expert_ops or range(gate_base, gate_base + n)

    def _free_ready(self, ready, wb: int, last_attn: int, last_gate: int, tail: int, last_ops):
        """Free every weight still ready at the end of the layer whose
        weights start at ``wb``, in release order: routed experts after
        their last op (``last_ops``: expert -> op, None without an expert
        block), batch-major's unrouted loaded experts by id, the
        attention, the gate, then any leftover experts by id at the
        layer ``tail``."""
        ew = wb + 2
        if last_ops:
            routed = [e for e in last_ops if ew + e in ready]
            if self.n > 1 and not self.features.adjust_order:
                # Batch-major: an expert's last op is in the last batch
                # routing to it, not where the expert first appears.
                routed.sort(key=last_ops.__getitem__)
            ops = list(map(last_ops.__getitem__, routed))
            ws = [ew + e for e in routed]
            experts = [w for w in ready if w >= ew and w - ew not in last_ops]
        else:
            ws, ops = [], []
            experts = [w for w in ready if w >= ew]
        experts.sort()
        if experts and last_ops is not None and not self.features.adjust_order:
            ws += experts
            ops += [tail] * len(experts)
            experts = ()
        if wb in ready:
            ws.append(wb)
            ops.append(last_attn)
        if wb + 1 in ready:
            ws.append(wb + 1)
            ops.append(last_gate)
        if experts:
            ws += experts
            ops += [tail] * len(experts)
        self._d.effect(EV_FREE, ops, ws)

    def _plan_experts(self, routing) -> None:
        """Everything of a step's expert blocks that depends only on its
        routing and forecasts: the step's stats, the prefetcher's
        feedback, each layer's expert order and its cold experts with the
        batch whose gate first routes to each."""
        model, features, n = self.model, self.features, self.n
        stats = self._stats = routing.stats(n, model.num_experts)
        if self.prefetcher is not None:
            self.prefetcher.observe_step(routing.assignments, stats.totals, self._hot)
        self._duration_table(routing.layers[0])  # sized for materialize
        if not (features.hot_prefetch or features.adjust_order):
            return
        in_vram = self._resident_mask.copy()
        lengths = [len(hot) for hot in self._hot]
        in_vram[
            np.repeat(np.arange(len(lengths)), lengths),
            np.fromiter(chain.from_iterable(self._hot), dtype=np.int64, count=sum(lengths)),
        ] = True
        self._orders, self._cold = ordered_step_experts(stats.totals, in_vram)
        if n > 1 and features.hot_prefetch:
            self._first_batch = (stats.counts > 0).argmax(axis=1).tolist()

    def _decide_experts(self, step: int, routing: LayerRouting, gate_base: int):
        """Decide one MoE layer's GPU experts; returns ``(last_ops, ops)``,
        ``last_ops`` mapping each routed expert to its last op.

        Records the layer's expert block — its order (expert-major) or
        nothing more than its routing (batch-major: one op per routed
        (batch, expert) pair) — with the transfers ready for it, so
        materialize derives durations and dependencies.
        """
        model, features = self.model, self.features
        layer = routing.layer
        stats = self._stats.layers[layer]
        if features.hot_prefetch:
            self._cold_transfers(layer, gate_base)
        d = self._d
        base = d.nops
        if features.adjust_order:
            order = experts = self._orders[layer]
        else:
            order = None
            # One op per routed pair ``b * E + e`` (the expert id itself
            # with one batch); a later pair of the same expert overwrites
            # its last op.
            experts = stats.pairs
            if self.n > 1:
                experts = [p % model.num_experts for p in experts]
        count = len(experts)
        last_ops = dict(zip(experts, range(base, base + count)))
        nod = self._last_transfer
        d.experts.append((
            base, layer, step, gate_base, routing.scale, stats, order, self._ready,
            -1 if features.overlap or nod is None else nod,
        ))
        d.nops += count
        if count:
            self._last_compute = d.nops - 1
        return last_ops, range(base, d.nops)

    def _gates(self, stats, e: int, gate_base: int) -> tuple[int, ...]:
        """Gate ops of the batches that routed tokens to active expert
        ``e``, ascending."""
        if self.n == 1:
            return (gate_base,)
        num_experts = self.model.num_experts
        counts = stats.counts
        return tuple(
            gate_base + b for b in range(self.n) if counts[b * num_experts + e]
        )

    def _cold_transfers(self, layer: int, gate_base: int) -> None:
        """On-demand transfers for the layer's activated non-prefetched
        experts, in ascending expert id (the order the expert order
        assumes for cold experts), each fired off the first gate that
        routed tokens to it."""
        cold = self._cold[layer]
        if not cold:
            return
        ready = self._ready
        ew = layer * self._stride + 2
        cold = [e for e in cold if ew + e not in ready]
        if not cold:
            return
        ws = [ew + e for e in cold]
        if self.n == 1:
            firsts = [gate_base] * len(cold)
        else:
            first = self._first_batch[layer]
            firsts = [gate_base + first[e] for e in cold]
        if not self._on_disk.isdisjoint(ws):
            for w, gate in zip(ws, firsts):
                self._load(w, (gate,), on_demand=True)
            return
        if self.features.overlap or self._last_compute is None:
            deps = [(g,) for g in firsts]
        else:
            deps = [_sorted_deps((g, self._last_compute)) for g in firsts]
        self._load_run(ws, _H2D_OD, deps)

    def _decide_cpu_experts(self, step: int, routing: LayerRouting, gate_base: int) -> list[int]:
        """Fiddler-style: run DRAM-resident experts on the CPU when faster."""
        d = self._d
        layer = routing.layer
        stats = routing.stats(self.n, self.model.num_experts)
        gpu_durs = self._duration_table(routing)
        cpu_durs = self._duration_table(routing, on_cpu=True)
        resident = self._resident_experts[layer]
        h2d_durs = self._h2d_durs
        ew = layer * self._stride + 2
        ops: list[int] = []
        for e in stats.active:
            count = stats.totals[e]
            deps = self._gates(stats, e, gate_base)
            if e not in resident:
                if cpu_durs[count] <= h2d_durs[ew + e] + gpu_durs[count]:
                    # Hidden states down, CPU compute, hidden states up.
                    d.cpu.append((d.nops, layer, step, e, deps, count, routing.scale))
                    d.nops += 3
                    ops.append(d.nops - 1)
                    continue
                deps = (self._load(ew + e, deps, on_demand=True),) + deps
            op = d.nops
            d.nops += 1
            d.gpu_experts.append((
                op, layer, step, e, gpu_durs[count],
                self._no_overlap_deps(deps, self._last_transfer),
            ))
            self._last_compute = op
            if self._ready.pop(ew + e, None) is not None:
                d.effect(EV_FREE, (op,), (ew + e,))
            ops.append(op)
        return ops

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
        total = d.nops - d.start
        ids = list(range(d.start, d.nops))  # one int object per op id
        families = [
            rows
            for rows in (
                self._unit_rows(d, ids),
                self._single_rows(d),
                self._transfer_rows(d),
                self._expert_rows(d, ids),
                self._gpu_expert_rows(d),
                self._cpu_rows(d, ids),
            )
            if rows is not None
        ]
        positions = np.concatenate([f[0] for f in families]) - d.start
        if positions.size != total:  # pragma: no cover - a decide-pass bug
            raise AssertionError(f"materialized {positions.size} of {total} ops")
        order = np.empty(total, dtype=np.int64)
        order[positions] = np.arange(total)
        res, dur, layers, phases, batches, codes, xs, steps = (
            np.concatenate([f[i] for f in families])[order] for i in range(1, 9)
        )
        deps = list(chain.from_iterable(f[9] for f in families))
        keys = d.ev_key
        # Equal durations, op ids and byte counts share one Python object,
        # as they do when ops are authored one by one.
        palette, index = np.unique(dur, return_inverse=True)
        nbytes = self._nbytes + d.extra_nbytes
        schedule.extend_raw(
            res.tolist(),
            list(map(palette.tolist().__getitem__, index.tolist())),
            list(itemgetter(*order.tolist())(deps)) if total > 1 else deps,
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
                list(map(ids.__getitem__, (np.array(d.ev_op) - d.start).tolist())),
                d.ev_kind,
                ["vram"] * len(keys),
                list(map((self._tids + d.extra_tids).__getitem__, keys)),
                list(map(nbytes.__getitem__, keys)),
            ),
        )

    @staticmethod
    def _rows(ids, res, dur, layers, phases, batches, codes, xs, steps, deps) -> tuple:
        """One family's columns: int64 arrays (scalars broadcast), float64
        durations, and the dependency tuples."""
        count = len(ids)

        def col(values, dtype=np.int64):
            arr = np.asarray(values, dtype=dtype)
            return np.broadcast_to(arr, (count,)) if arr.ndim == 0 else arr

        return (
            col(ids), col(res), col(dur, np.float64), col(layers), col(phases),
            col(batches), col(codes), col(xs), col(steps), deps,
        )

    @staticmethod
    def _run_ids(bases, lengths) -> np.ndarray:
        """Op ids of contiguous runs starting at ``bases``."""
        lengths = np.asarray(lengths, dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        return np.repeat(np.asarray(bases, dtype=np.int64) - starts, lengths) + np.arange(
            int(lengths.sum())
        )

    def _unit_rows(self, d: _Decisions, ids: list[int]) -> tuple | None:
        """Attention + gate/FFN blocks of every layer unit.

        Units of one attention shape (``m`` ops per batch) share a
        per-layer template of ``n * (m + 1)`` op offsets; a template op
        depends on the unit's attention or gate prefix (or nothing) plus
        at most one op of the same unit.
        """
        if not d.units:
            return None
        n = self.n
        gate = (_L_FFN, _GPU, _P_EXPERT) if self.model.is_dense else (_L_GATE, _GPU, _P_GATE)
        bases, layers, steps, step_index, attn_deps, gate_deps, gate_durs = zip(*d.units)
        bases, layers, steps, step_index = (
            np.array(c, dtype=np.int64) for c in (bases, layers, steps, step_index)
        )
        unit_m = np.array(d.step_m, dtype=np.int64)[step_index]
        parts = []
        for m in np.unique(unit_m).tolist():
            sel = np.flatnonzero(unit_m == m)
            picked = sel.tolist()
            units = len(picked)
            # Per template op: batch, label, resource, phase, prefix (0
            # none, 1 attention, 2 gate) and a dependency on an op of the
            # same unit (its offset; -1: none).
            block = _ATTN_BLOCKS[m]
            attn_at = [j for j, entry in enumerate(block) if entry[0] == _L_ATTN][0]
            template = [
                (b, code, res, phase, int(attn), m * b + j - 1 if prev else -1)
                for b in range(n)
                for j, (code, res, phase, attn, prev) in enumerate(block)
            ]
            template += [(b, *gate, 2, m * b + attn_at) for b in range(n)]
            width = len(template)
            t_batch, t_code, t_res, t_phase, t_prefix, t_local = (
                np.array(c, dtype=np.int64) for c in zip(*template)
            )
            base = bases[sel]
            if units == len(bases):
                prefixes = [[()] * units, attn_deps, gate_deps]
            else:
                prefixes = [
                    [()] * units,
                    [attn_deps[u] for u in picked],
                    [gate_deps[u] for u in picked],
                ]
            unit_index = np.repeat(np.arange(units), width)
            local = np.tile(t_local, units)
            deps = [
                prefixes[p][u] + (ids[a],) if a >= 0 else prefixes[p][u]
                for p, u, a in zip(
                    np.tile(t_prefix, units).tolist(),
                    unit_index.tolist(),
                    np.where(local >= 0, base[unit_index] + local - d.start, -1).tolist(),
                )
            ]
            step_durs = d.step_durs
            durs = np.hstack([
                np.array([step_durs[s] for s in step_index[sel].tolist()]),
                np.array([gate_durs[u] for u in picked]),
            ])
            parts.append(
                self._rows(
                    (base[:, None] + np.arange(width)).ravel(),
                    np.tile(t_res, units),
                    durs.ravel(),
                    layers[sel][unit_index],
                    np.tile(t_phase, units),
                    np.tile(t_batch, units),
                    np.tile(t_code, units),
                    -1,
                    steps[sel][unit_index],
                    deps,
                )
            )
        if len(parts) == 1:
            return parts[0]
        return tuple(
            np.concatenate([p[i] for p in parts]) for i in range(9)
        ) + ([dep for p in parts for dep in p[9]],)

    def _single_rows(self, d: _Decisions) -> tuple | None:
        if not d.singles:
            return None
        ops, durs, deps, labels, steps = zip(*d.singles)
        return self._rows(ops, _GPU, durs, -1, _P_OTHER, -1, labels, -1, steps, deps)

    def _transfer_rows(self, d: _Decisions) -> tuple | None:
        if not d.x_base:
            return None
        w = np.array(d.x_w, dtype=np.int64)
        res = np.repeat(d.x_res, d.x_len)
        disk = res == _DISK
        return self._rows(
            self._run_ids(d.x_base, d.x_len),
            res,
            np.where(disk, np.array(self._disk_durs)[w], np.array(self._h2d_durs)[w]),
            w // self._stride,
            _P_TRANSFER,
            -1,
            np.where(disk, _L_DISK, _L_H2D),
            w,
            -1,
            d.x_deps,
        )

    def _expert_blocks(self, d: _Decisions) -> tuple:
        """Every expert block's ops, flattened: ``(block, position in
        block, expert, batch (-1 expert-major), token count)`` arrays
        plus each block's routing counts as ``[blocks, n, E]``."""
        n, num_experts = self.n, self.model.num_experts
        stats, orders = [b[5] for b in d.experts], [b[6] for b in d.experts]
        counts = np.fromiter(
            chain.from_iterable(s.counts for s in stats), dtype=np.int64
        ).reshape(len(stats), n, num_experts)
        if orders[0] is not None:  # expert-major: one op per active expert
            lengths = [len(order) for order in orders]
            experts = np.fromiter(chain.from_iterable(orders), dtype=np.int64)
            block = np.repeat(np.arange(len(lengths)), lengths)
            batches = np.full(len(experts), -1, dtype=np.int64)
            tokens = counts.sum(axis=1)[block, experts]
        else:  # batch-major: one op per routed (batch, expert) pair
            lengths = [len(s.pairs) for s in stats]
            pairs = np.fromiter(chain.from_iterable(s.pairs for s in stats), dtype=np.int64)
            block = np.repeat(np.arange(len(lengths)), lengths)
            batches, experts = np.divmod(pairs, num_experts)
            tokens = counts.reshape(len(lengths), -1)[block, pairs]
        lengths = np.asarray(lengths, dtype=np.int64)
        position = np.arange(len(experts)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        return block, position, experts, batches, tokens, counts

    def _expert_rows(self, d: _Decisions, ids: list[int]) -> tuple | None:
        """GPU expert ops of every expert block, with their dependencies.

        Durations come from the builder's per-``scale`` duration tables;
        each op waits for the gates of the batches it serves, its
        expert's transfer if one is in flight and, without overlap, the
        last transfer issued before it — sorted, as the ops are issued.
        """
        if not d.experts:
            return None
        block, position, experts, batches, tokens, counts = self._expert_blocks(d)
        bases, layers, steps, gate_bases, scales, _, orders, readies, nods = zip(*d.experts)
        bases, layers, steps, gate_bases, nods = (
            np.array(c, dtype=np.int64) for c in (bases, layers, steps, gate_bases, nods)
        )
        durs = np.empty(len(experts))
        scales = np.array(scales)[block]
        for scale in np.unique(scales).tolist():
            mask = scales == scale
            durs[mask] = np.asarray(self._dur_tables[(scale, False)])[tokens[mask]]
        gate_bases = gate_bases[block]
        if orders[0] is not None:  # every batch routing to the expert
            routed = counts.transpose(0, 2, 1)[block, experts] > 0
            gates = np.where(routed, gate_bases[:, None] + np.arange(self.n), -1)
        else:
            gates = (gate_bases + batches)[:, None]
        transfers = self._ready_slots(readies, layers)
        columns = np.column_stack([gates, transfers[block, experts + 2], nods[block]])
        return self._rows(
            bases[block] + position,
            _GPU,
            durs,
            layers[block],
            _P_EXPERT,
            batches,
            np.where(batches < 0, _L_EXP, _L_EXP_B),
            experts,
            steps[block],
            _row_tuples(columns, ids, d.start),
        )

    def _ready_slots(self, readies: list[dict], layers: list[int]) -> np.ndarray:
        """``[len(readies), stride]`` ready transfer op per weight slot of
        each ``{weight: op}`` map's layer (-1: none)."""
        slots = np.full((len(readies), self._stride), -1, dtype=np.int64)
        counts = [len(r) for r in readies]
        if sum(counts):
            rows = np.repeat(np.arange(len(readies)), counts)
            ws = np.fromiter(chain.from_iterable(readies), dtype=np.int64)
            ops = np.fromiter(chain.from_iterable(r.values() for r in readies), dtype=np.int64)
            slots[rows, ws - np.asarray(layers, dtype=np.int64)[rows] * self._stride] = ops
        return slots

    def _gpu_expert_rows(self, d: _Decisions) -> tuple | None:
        if not d.gpu_experts:
            return None
        ops, layers, steps, experts, durs, deps = zip(*d.gpu_experts)
        return self._rows(
            ops, _GPU, durs, layers, _P_EXPERT, -1, _L_EXP, experts, steps, deps
        )

    def _cpu_rows(self, d: _Decisions, ids: list[int]) -> tuple | None:
        if not d.cpu:
            return None
        bases, layers, steps, experts, deps, counts, scales = zip(*d.cpu)
        model = self.model
        counts, scales = np.array(counts), np.array(scales)
        hidden_bytes = (counts * scales * model.hidden_size * model.dtype_bytes).astype(np.int64)
        transfer_time = self.cost.transfer_time
        moves = {
            nb: (transfer_time(nb, "vram", "dram"), 0.0, transfer_time(nb, "dram", "vram"))
            for nb in set(hidden_bytes.tolist())
        }
        durs = np.array([moves[nb] for nb in hidden_bytes.tolist()])
        for scale in np.unique(scales).tolist():
            mask = scales == scale
            durs[mask, 1] = np.asarray(self._dur_tables[(scale, True)])[counts[mask]]
        count = len(bases)
        return self._rows(
            (np.array(bases)[:, None] + np.arange(3)).ravel(),
            np.tile([_D2H, _CPU, _H2D], count),
            durs.ravel(),
            np.repeat(layers, 3),
            _P_EXPERT,
            -1,
            np.tile([_L_D2H_HID, _L_CPU_EXP, _L_H2D_HID], count),
            np.repeat(experts, 3),
            np.repeat(steps, 3),
            [
                dep
                for op, first in zip(bases, deps)
                for dep in (first, (ids[op - d.start],), (ids[op + 1 - d.start],))
            ],
        )
