"""The process-wide tracer: spans, counters, and gauges.

Design constraints, in priority order:

1. **Disabled tracing is a guaranteed no-op.** ``span()`` returns one
   shared singleton context manager when tracing is off — no record, no
   dict, no closure is allocated on the fast path, so instrumented hot
   loops (the cluster event loop, the compiled executor's phases) cost a
   function call and an attribute read. The perf-smoke acceptance bar is
   < 3% on ``repro.cli bench`` with tracing disabled.
2. **Counters are always on.** They are single dict increments (no
   timestamps, no allocation beyond the first occurrence of a name) and
   feed the :class:`~repro.obs.manifest.RunManifest` cache/memo stats
   that every CLI ``--json`` envelope carries, so they must count even
   when nobody asked for a trace.
3. **Deterministic, mergeable buffers.** Each process records into its
   own flat buffer; :func:`collect` snapshots-and-clears it into a
   JSON-safe payload and :func:`merge` folds worker payloads back into
   the parent in call order, so an ``experiments.Runner`` pool produces
   the same merged stream regardless of worker scheduling.

Span records are plain lists ``[name, start_s, end_s, depth, attrs,
worker]`` in *pre-order* (a span is appended when it opens, its end filled
when it closes), which makes tree rendering and Chrome-trace export a
single forward pass. Timestamps are ``time.perf_counter()`` seconds
relative to the moment tracing was enabled in that process.
"""

from __future__ import annotations

from time import perf_counter

__all__ = [
    "enable",
    "disable",
    "enabled",
    "span",
    "count",
    "gauge",
    "counters_snapshot",
    "gauges_snapshot",
    "reset_counters",
    "spans_snapshot",
    "collect",
    "merge",
    "aggregate_spans",
    "child_time",
    "format_span_tree",
    "format_top",
]

# Span record field indices (records are lists so __exit__ can fill END).
NAME, START, END, DEPTH, ATTRS, WORKER = range(6)

_enabled = False
_origin = 0.0
_depth = 0
_spans: list[list] = []
_counters: dict[str, float] = {}
_gauges: dict[str, float] = {}


def enabled() -> bool:
    """Whether span recording is currently on in this process."""
    return _enabled


def enable(*, reset: bool = True) -> None:
    """Turn span recording on (counters are always on).

    Args:
        reset: drop previously recorded spans and restart the clock
            (default). Pass False to resume an earlier recording.
    """
    global _enabled, _origin, _depth
    if reset:
        _spans.clear()
        _depth = 0
        _origin = perf_counter()
    _enabled = True


def disable() -> None:
    """Turn span recording off. Recorded spans stay readable."""
    global _enabled
    _enabled = False


class _NullSpan:
    """The shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: appended on entry, end-time filled on exit."""

    __slots__ = ("_record",)

    def __init__(self, name: str, attrs: dict | None):
        global _depth
        self._record = [
            name, perf_counter() - _origin, 0.0, _depth, attrs, 0,
        ]
        _spans.append(self._record)
        _depth += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        global _depth
        self._record[END] = perf_counter() - _origin
        _depth -= 1
        return False


def span(name: str, attrs: dict | None = None):
    """Open a timed span; use as a context manager.

    Args:
        name: dotted span name (e.g. ``"executor.timing_pass"``).
        attrs: optional JSON-safe attributes recorded with the span.
            Build the dict *inside* the call site only when cheap; for
            hot paths prefer ``span("name")`` with no attrs.

    Returns:
        A context manager. When tracing is disabled this is one shared
        singleton — nothing is allocated.
    """
    if not _enabled:
        return _NULL_SPAN
    return _Span(name, attrs)


def count(name: str, delta: float = 1) -> None:
    """Add ``delta`` to counter ``name`` (always on, trace or not)."""
    _counters[name] = _counters.get(name, 0) + delta


def gauge(name: str, value: float) -> None:
    """Record the last-seen value of gauge ``name``."""
    _gauges[name] = value


def counters_snapshot() -> dict[str, float]:
    """A sorted copy of the current counter values."""
    return {k: _counters[k] for k in sorted(_counters)}


def gauges_snapshot() -> dict[str, float]:
    """A sorted copy of the current gauge values."""
    return {k: _gauges[k] for k in sorted(_gauges)}


def reset_counters() -> None:
    """Zero every counter and gauge (test/benchmark hygiene)."""
    _counters.clear()
    _gauges.clear()


def spans_snapshot() -> list[list]:
    """The finished-span buffer (records are live; treat as read-only)."""
    return list(_spans)


def collect() -> dict:
    """Snapshot-and-clear this process's buffers into a JSON-safe payload.

    Used by pool workers to ship their observations back to the parent;
    the parent folds them in with :func:`merge`.
    """
    payload = {
        "spans": [list(r) for r in _spans],
        "counters": counters_snapshot(),
        "gauges": gauges_snapshot(),
    }
    _spans.clear()
    _counters.clear()
    _gauges.clear()
    return payload


def merge(payload: dict, worker: int) -> None:
    """Fold one worker's :func:`collect` payload into this process.

    Spans keep their relative order and are re-tagged with ``worker``;
    counters add; gauges last-write-wins in merge-call order. Merging in
    task-submission order therefore yields one deterministic stream no
    matter how the pool interleaved the work.

    Args:
        payload: a worker's :func:`collect` result.
        worker: 1-based worker lane (0 is the parent process).
    """
    for record in payload.get("spans", ()):
        record = list(record)
        record[WORKER] = worker
        _spans.append(record)
    for name, delta in payload.get("counters", {}).items():
        count(name, delta)
    for name, value in payload.get("gauges", {}).items():
        gauge(name, value)


# ---- rendering --------------------------------------------------------------


def aggregate_spans(spans: list[list] | None = None) -> list[dict]:
    """Aggregate spans by name: calls, total and self wall time.

    Self time excludes the time spent in child spans (same worker,
    deeper nesting, within the parent's window).

    Returns:
        Rows sorted by descending total time:
        ``{"name", "calls", "total_s", "self_s"}``.
    """
    if spans is None:
        spans = _spans
    totals: dict[str, dict] = {}
    # Children in pre-order immediately follow their parent at depth+1;
    # subtract each span's duration from its nearest open ancestor.
    child_time: list[float] = [0.0] * len(spans)
    stack: list[int] = []  # indices of open ancestors
    for i, rec in enumerate(spans):
        while stack and (
            spans[stack[-1]][DEPTH] >= rec[DEPTH]
            or spans[stack[-1]][WORKER] != rec[WORKER]
        ):
            stack.pop()
        if stack:
            child_time[stack[-1]] += rec[END] - rec[START]
        stack.append(i)
    for i, rec in enumerate(spans):
        row = totals.setdefault(
            rec[NAME], {"name": rec[NAME], "calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        duration = rec[END] - rec[START]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time[i]
    return sorted(totals.values(), key=lambda r: (-r["total_s"], r["name"]))


def child_time(
    spans: list[list] | None = None, parent: str = "system.build"
) -> tuple[float, dict[str, float]]:
    """Wall time of the spans named ``parent`` and of their direct children.

    Returns:
        ``(parent_s, {child name: seconds})``, each summed over every
        ``parent`` span.
    """
    if spans is None:
        spans = _spans
    parent_s = 0.0
    children: dict[str, float] = {}
    open_at: tuple[int, int] | None = None  # (depth, worker) of the open parent
    for rec in spans:
        duration = rec[END] - rec[START]
        if open_at is not None and (
            rec[DEPTH] <= open_at[0] or rec[WORKER] != open_at[1]
        ):
            open_at = None
        if rec[NAME] == parent:
            parent_s += duration
            open_at = (rec[DEPTH], rec[WORKER])
        elif open_at is not None and rec[DEPTH] == open_at[0] + 1:
            children[rec[NAME]] = children.get(rec[NAME], 0.0) + duration
    return parent_s, children


def format_top(spans: list[list] | None = None, *, k: int = 15) -> str:
    """The top-``k`` table by total wall time, one row per span name."""
    rows = aggregate_spans(spans)[:k]
    width = max((len(r["name"]) for r in rows), default=4)
    lines = [f"{'span':<{width}} {'calls':>6} {'total ms':>10} {'self ms':>10}"]
    for r in rows:
        lines.append(
            f"{r['name']:<{width}} {r['calls']:>6} "
            f"{r['total_s'] * 1e3:>10.3f} {r['self_s'] * 1e3:>10.3f}"
        )
    return "\n".join(lines)


def format_span_tree(
    spans: list[list] | None = None, *, limit: int = 200
) -> str:
    """Render the recorded spans as an indented tree with durations."""
    if spans is None:
        spans = _spans
    lines = []
    for rec in spans[:limit]:
        duration_ms = (rec[END] - rec[START]) * 1e3
        attrs = ""
        if rec[ATTRS]:
            attrs = "  " + " ".join(f"{k}={v}" for k, v in rec[ATTRS].items())
        worker = f" [w{rec[WORKER]}]" if rec[WORKER] else ""
        lines.append(
            f"{'  ' * rec[DEPTH]}{rec[NAME]}{worker} {duration_ms:.3f} ms{attrs}"
        )
    if len(spans) > limit:
        lines.append(f"... {len(spans) - limit} more spans")
    return "\n".join(lines)
