"""Schedule IR: the op DAG that schedulers hand to the executor.

A :class:`Schedule` is an ordered list of ops. Each op runs on one named
resource (``gpu``, ``cpu``, ``h2d``, ``d2h``, ``disk``); ops on the same
resource execute FIFO in issue order, which models CUDA streams: the four
streams of the paper's implementation (§8 — weight prefetch, on-demand
expert transfer, KV-cache load, KV-cache store) map to issue order on the
``h2d``/``d2h`` resources, and ``sync()`` points become dependency edges.

Ops carry optional memory effects (allocations applied at op start, frees at
op end) so the executor can reconstruct pool usage over simulated time.

Ops are authored one at a time with :meth:`Schedule.add` and friends
(checked), or in bulk with :meth:`Schedule.extend_raw` (trusted; the
pipeline builder and pass rewrites), and read back as :class:`Op`
objects materialized on demand (``schedule.ops``, ``schedule[i]``,
iteration). Internally the schedule accumulates structure-of-arrays
columns, so building a multi-million-op DAG never allocates per-op
objects unless somebody asks for them.
:meth:`Schedule.freeze` validates the rows once and stores the
executor's columns on the schedule itself — integer resource codes,
float64 durations, and flat alloc/free event arrays with pool codes —
until the next mutation; :meth:`Schedule.deps_csr` encodes the
dependencies as CSR arrays, kept on a frozen schedule once asked for.

Because materialized :class:`Op` objects are a *view*, mutating one does
not write back; memory effects are attached when their op is authored.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ScheduleError
from repro.obs import span

GPU = "gpu"
CPU = "cpu"
H2D = "h2d"  # weight-prefetch stream
H2D_OD = "h2d2"  # on-demand expert transfer stream (paper §8's 2nd stream)
D2H = "d2h"
DISK_IO = "disk"
RESOURCES = (GPU, CPU, H2D, H2D_OD, D2H, DISK_IO)
_RESOURCE_CODE = {name: code for code, name in enumerate(RESOURCES)}
RESOURCE_CODES = _RESOURCE_CODE  # public name -> code table (extend_raw input)

# Phases used for bubble attribution.
PHASE_ATTENTION = "attention"
PHASE_GATE = "gate"
PHASE_EXPERT = "expert"
PHASE_TRANSFER = "transfer"
PHASE_KV = "kv"
PHASE_OTHER = "other"

# Event kinds in the frozen memory-effect stream. Frees replay before
# allocs at identical times (free-then-alloc steady-state reuse should not
# double count), so the free kind sorts first.
EV_FREE = 0
EV_ALLOC = 1


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector while building or rewriting
    schedules.

    Emission and the pass pipeline allocate about one container per op
    and none in a cycle, so the collections their allocations would
    trigger free nothing, yet each full one re-traverses every live
    schedule column. Nested uses leave the collector as they found it.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass(frozen=True)
class MemEffect:
    """A memory-pool side effect of an op."""

    pool: str
    tensor_id: str
    nbytes: int  # ignored for frees


@dataclass
class Op:
    """One unit of simulated work (a materialized view of a schedule row)."""

    op_id: int
    resource: str
    duration: float
    label: str
    deps: tuple[int, ...] = ()
    layer: int = -1
    phase: str = PHASE_OTHER
    batch: int = -1
    allocs: tuple[MemEffect, ...] = ()
    frees: tuple[MemEffect, ...] = ()

    def __post_init__(self):
        if self.resource not in _RESOURCE_CODE:
            raise ScheduleError(f"unknown resource {self.resource!r}")
        if self.duration < 0:
            raise ScheduleError("op duration must be non-negative")


def render_labels(labels: list, plans) -> list[str]:
    """A schedule's label column with its deferred label plans
    (``(start, count, render, args)`` entries) rendered in."""
    if not plans:
        return labels
    labels = list(labels)
    for start, count, render, args in plans:
        labels[start : start + count] = render(*args)
    return labels


class Schedule:
    """An append-only, dependency-checked op list (structure-of-arrays)."""

    def __init__(self):
        # Per-op columns.
        self._res: list[int] = []
        self._dur: list[float] = []
        self._deps: list[tuple[int, ...]] = []
        self._labels: list[str | None] = []  # None: deferred (label plan)
        self._layers: list[int] = []
        self._phases: list[str] = []
        self._batches: list[int] = []
        # Memory-effect event columns (flat; replay order derived on freeze).
        self._ev_op: list[int] = []
        self._ev_kind: list[int] = []
        self._ev_pool: list[str] = []
        self._ev_tensor: list[str] = []
        self._ev_nbytes: list[int] = []
        # Deferred labels of bulk-appended rows: (start, count, render,
        # args), where render(*args) returns the rows' ``count`` labels.
        self._label_plans: list[tuple] = []
        # Caches cleared by every mutation (see _invalidate).
        self._ops_cache: list[Op] | None = None
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        # The executor inputs of the rows, as arrays handed over by
        # extend_raw (see there) for freeze; None: convert the lists.
        self._arrays: tuple | None = None
        self._frozen = False

    def __len__(self) -> int:
        return len(self._dur)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __getitem__(self, idx: int) -> Op:
        return self.ops[idx]

    @property
    def ops(self) -> list[Op]:
        """Materialized :class:`Op` views, one per row (cached).

        The list is rebuilt after any mutation; treat the objects as
        read-only.
        """
        if self._ops_cache is None:
            allocs: dict[int, list[MemEffect]] = {}
            frees: dict[int, list[MemEffect]] = {}
            for op_id, kind, pool, tensor, nbytes in zip(
                self._ev_op, self._ev_kind, self._ev_pool,
                self._ev_tensor, self._ev_nbytes,
            ):
                target = allocs if kind == EV_ALLOC else frees
                target.setdefault(op_id, []).append(MemEffect(pool, tensor, nbytes))
            labels = self._rendered_labels()
            self._ops_cache = [
                Op(
                    op_id=i,
                    resource=RESOURCES[self._res[i]],
                    duration=self._dur[i],
                    label=labels[i],
                    deps=self._deps[i],
                    layer=self._layers[i],
                    phase=self._phases[i],
                    batch=self._batches[i],
                    allocs=tuple(allocs.get(i, ())),
                    frees=tuple(frees.get(i, ())),
                )
                for i in range(len(self._dur))
            ]
        return self._ops_cache

    def _rendered_labels(self) -> list[str]:
        """Labels with deferred block labels rendered in."""
        return render_labels(self._labels, self._label_plans)

    def _invalidate(self) -> None:
        """Drop the op views, the dependency CSR and the frozen columns
        after a mutation."""
        self._ops_cache = None
        self._csr = None
        self._arrays = None
        self._frozen = False

    def add(
        self,
        resource: str,
        duration: float,
        label: str,
        *,
        deps: Iterable[int] = (),
        layer: int = -1,
        phase: str = PHASE_OTHER,
        batch: int = -1,
        allocs: Iterable[MemEffect] = (),
        frees: Iterable[MemEffect] = (),
    ) -> int:
        """Append an op and return its id (usable as a dependency)."""
        code = _RESOURCE_CODE.get(resource)
        if code is None:
            raise ScheduleError(f"unknown resource {resource!r}")
        if duration < 0:
            raise ScheduleError("op duration must be non-negative")
        op_id = len(self._dur)
        if deps:
            dep_tuple = tuple(sorted(set(deps)))
            if dep_tuple[0] < 0 or dep_tuple[-1] >= op_id:
                bad = next(d for d in dep_tuple if not 0 <= d < op_id)
                raise ScheduleError(
                    f"op {op_id} ({label}) depends on unknown op {bad}"
                )
        else:
            dep_tuple = ()
        self._res.append(code)
        self._dur.append(duration)
        self._deps.append(dep_tuple)
        self._labels.append(label)
        self._layers.append(layer)
        self._phases.append(phase)
        self._batches.append(batch)
        self._add_effects(op_id, allocs, EV_ALLOC)
        self._add_effects(op_id, frees, EV_FREE)
        self._invalidate()
        return op_id

    def extend_raw(
        self,
        resources: list[int],
        durations: list[float],
        deps: list[tuple[int, ...]],
        labels: list[str] | tuple,
        layers: list[int],
        phases: list[str],
        batches: list[int],
        *,
        effects: tuple | None = None,
        arrays: tuple | None = None,
    ) -> int:
        """Bulk-append pre-validated rows; returns the first new op id.

        The trusted fast path for bulk authoring (the pipeline builder
        appends a whole build, pass rewrites a whole schedule, per call):
        ``resources`` are :data:`RESOURCES` codes and every dep tuple must
        be sorted, deduplicated, and reference earlier ops — exactly what
        :meth:`add` would have produced. Only cheap aggregate checks are
        performed here (:meth:`validate` checks the rest).

        ``labels`` is either one string per row or a ``(render, args)``
        pair that defers them: ``render(*args)`` returns the rows' labels
        and runs only when the materialized op view (or
        :meth:`_rendered_labels`) is requested. ``effects`` optionally
        attaches memory effects in order, as parallel ``(op_ids, kinds,
        pools, tensor_ids, nbytes)`` lists (kinds :data:`EV_ALLOC` /
        :data:`EV_FREE`).

        ``arrays`` optionally hands :meth:`freeze` the same rows' executor
        inputs as arrays — ``(resources, durations, effect op ids,
        kinds, pool codes, nbytes, pool names)`` — so freezing an
        emptily started schedule does not convert the lists again; the
        next mutation drops them.
        """
        base = len(self._dur)
        k = len(durations)
        if durations and min(durations) < 0:
            raise ScheduleError("op duration must be non-negative")
        self._res.extend(resources)
        self._dur.extend(durations)
        self._deps.extend(deps)
        if isinstance(labels, tuple):
            render, args = labels
            self._labels.extend([None] * k)
            self._label_plans.append((base, k, render, args))
        else:
            self._labels.extend(labels)
        self._layers.extend(layers)
        self._phases.extend(phases)
        self._batches.extend(batches)
        if effects is not None:
            op_ids, kinds, pools, tensor_ids, nbytes = effects
            self._ev_op.extend(op_ids)
            self._ev_kind.extend(kinds)
            self._ev_pool.extend(pools)
            self._ev_tensor.extend(tensor_ids)
            self._ev_nbytes.extend(nbytes)
        self._invalidate()
        if base == 0:
            self._arrays = arrays
        return base

    def _add_effects(
        self, op_id: int, effects: Iterable[MemEffect], kind: int
    ) -> None:
        for effect in effects:
            self._ev_op.append(op_id)
            self._ev_kind.append(kind)
            self._ev_pool.append(effect.pool)
            self._ev_tensor.append(effect.tensor_id)
            self._ev_nbytes.append(effect.nbytes)

    def compute(self, duration: float, label: str, **kw) -> int:
        return self.add(GPU, duration, label, **kw)

    def cpu_compute(self, duration: float, label: str, **kw) -> int:
        return self.add(CPU, duration, label, **kw)

    def transfer_in(self, duration: float, label: str, *, on_demand: bool = False, **kw) -> int:
        kw.setdefault("phase", PHASE_TRANSFER)
        return self.add(H2D_OD if on_demand else H2D, duration, label, **kw)

    def transfer_out(self, duration: float, label: str, **kw) -> int:
        kw.setdefault("phase", PHASE_TRANSFER)
        return self.add(D2H, duration, label, **kw)

    def disk_read(self, duration: float, label: str, **kw) -> int:
        kw.setdefault("phase", PHASE_TRANSFER)
        return self.add(DISK_IO, duration, label, **kw)

    def validate(self) -> None:
        """Re-verify row sanity checked on :meth:`add` but not on the
        trusted bulk path (:meth:`extend_raw`):
        every dependency must reference a strictly earlier op and every
        duration must be non-negative.

        Raises:
            ScheduleError: naming the first offending op.
        """
        with span("runtime.schedule.validate", {"ops": len(self._dur)}):
            if self._dur and min(self._dur) < 0:
                bad = next(i for i, d in enumerate(self._dur) if d < 0)
                raise ScheduleError(
                    f"op {bad} has negative duration {self._dur[bad]!r}"
                )
            # Range-check every dep at once over transient CSR arrays;
            # argmax finds the first offender in (op, position) order.
            indptr, indices = self.deps_csr()
            owners = np.repeat(np.arange(len(self._deps)), np.diff(indptr))
            bad_mask = (indices < 0) | (indices >= owners)
            if bad_mask.any():
                pos = int(np.argmax(bad_mask))
                op_id, bad = int(owners[pos]), int(indices[pos])
                kind = "forward or self" if bad >= op_id else "negative"
                raise ScheduleError(f"op {op_id} has {kind} dependency {bad}")

    def deps_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` int64 arrays of the dependency lists.

        ``indptr`` has ``len(self) + 1`` row pointers, ``indices`` the
        dependency op ids. A frozen schedule keeps them, read-only, until
        the next mutation (the pass pipeline reads them several times
        per schedule), as does one handed its CSR by
        :meth:`adopt_deps_csr`; otherwise, :meth:`freeze`'s validation
        included, they are built per call, so schedules that are only
        executed do not hold them.
        """
        if self._csr is not None:
            return self._csr
        n = len(self._deps)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, self._deps), dtype=np.int64, count=n),
            out=indptr[1:],
        )
        indices = np.fromiter(
            chain.from_iterable(self._deps), dtype=np.int64, count=int(indptr[-1])
        )
        if self._frozen:
            indptr.flags.writeable = False
            indices.flags.writeable = False
            self._csr = (indptr, indices)
        return indptr, indices

    def adopt_deps_csr(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        """Keep ``(indptr, indices)``, read-only, as :meth:`deps_csr` until
        the next mutation.

        For a caller that cut the dependency tuples from this very CSR
        (a pass rewrite does), so validating and checking the schedule
        does not rebuild it.
        """
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self._csr = (indptr, indices)

    def freeze(self) -> "Schedule":
        """Validate once and store the executor's columns on the schedule.

        Runs :meth:`validate` first, so malformed rows — dangling or
        forward deps, negative durations — fail here with a clear error
        instead of corrupting the executor's replay mid-run. The columns
        stay until the next mutation, and are rebuilt by the next call:

        * ``resources``: int16 resource codes (indices into
          :data:`RESOURCES`); ``durations``: float64 op durations;
        * ``pool_names``: pool-code -> pool-name table;
        * ``ev_op`` / ``ev_kind`` / ``ev_pool`` / ``ev_delta``: the
          memory-effect events in replay order — by op, frees before
          allocs, attachment order within each group — as owning op id,
          :data:`EV_FREE` / :data:`EV_ALLOC`, pool code, and signed
          byte delta.

        Returns:
            The schedule itself.
        """
        if self._frozen:
            return self
        self.validate()
        if self._arrays is None:
            pool_codes: dict[str, int] = {}
            codes = [pool_codes.setdefault(pool, len(pool_codes)) for pool in self._ev_pool]
            self._arrays = (
                self._res, self._dur, self._ev_op, self._ev_kind, codes, self._ev_nbytes,
                tuple(pool_codes),
            )
        res, dur, ev_op, ev_kind, codes, ev_nbytes, self.pool_names = self._arrays
        self._arrays = None
        self.resources = np.asarray(res, dtype=np.int16)
        self.durations = np.asarray(dur, dtype=np.float64)
        ev_op = np.asarray(ev_op, dtype=np.int64)
        ev_kind = np.asarray(ev_kind, dtype=np.int8)
        ev_nbytes = np.asarray(ev_nbytes, dtype=np.int64)
        codes = np.asarray(codes, dtype=np.int16)
        # lexsort is stable, so the trailing append index keeps attachment
        # order within each (op, kind) group.
        order = np.lexsort((np.arange(len(ev_op)), ev_kind, ev_op))
        self.ev_op = ev_op[order]
        self.ev_kind = ev_kind[order]
        self.ev_pool = codes[order]
        self.ev_delta = np.where(
            self.ev_kind == EV_ALLOC, ev_nbytes[order], -ev_nbytes[order]
        )
        self._frozen = True
        return self
