"""Memory accounting: the executor's replay of a schedule's alloc/free
effects, checked on both engines."""

import pytest

from repro.errors import OutOfMemoryError
from repro.hardware.spec import ENV1
from repro.runtime.executor import Executor, ExecutorConfig
from repro.runtime.schedule import MemEffect, Schedule
from repro.validation import check_timeline
from tests.test_executor import make_hw

ENGINES = ("compiled", "legacy")


def _schedule(*effects) -> Schedule:
    """One 1 s GPU op per ``(allocs, frees)`` entry, back to back; each is
    a ``{tensor: nbytes}`` map on the ``vram`` pool (allocs land at the
    op's start, frees at its end)."""
    s = Schedule()
    for allocs, frees in effects:
        s.compute(
            1.0,
            "op",
            allocs=[MemEffect("vram", t, nb) for t, nb in allocs.items()],
            frees=[MemEffect("vram", t, nb) for t, nb in frees.items()],
        )
    return s


def _run(schedule: Schedule, engine: str, hw=None, **kw):
    return Executor(hw or make_hw(), ExecutorConfig(engine=engine)).run(schedule, **kw)


class TestMemoryPool:
    def test_alloc_and_free_roundtrip(self):
        for engine in ENGINES:
            t = _run(_schedule(({"a": 60}, {}), ({}, {"a": 60})), engine)
            assert t.memory_at("vram", 0.5) == 60
            assert t.memory_at("vram", 2.5) == 0

    def test_oom_raises_with_details(self):
        s = _schedule(({"a": 80}, {}), ({"b": 30}, {}))
        for engine in ENGINES:
            with pytest.raises(OutOfMemoryError) as err:
                _run(s, engine, capacities={"vram": 100})
            assert err.value.pool == "vram"
            assert err.value.requested == 30
            assert err.value.available == 20

    def test_oom_leaves_state_unchanged(self):
        """An OOM aborts the replay only: the schedule and the executor
        run again unchanged once the pool has room."""
        s = _schedule(({"a": 80}, {}), ({"b": 30}, {}))
        for engine in ENGINES:
            executor = Executor(make_hw(), ExecutorConfig(engine=engine))
            with pytest.raises(OutOfMemoryError):
                executor.run(s, capacities={"vram": 100})
            t = executor.run(s, capacities={"vram": 110})
            assert t.memory_peak["vram"] == 110
            assert t.memory_usage["vram"] == [(0.0, 80), (1.0, 110)]

    def test_free_unknown_rejected(self):
        s = _schedule(({}, {"ghost": 10}))
        for engine in ENGINES:
            violations = check_timeline(s, _run(s, engine))
            assert [v.invariant for v in violations] == ["memory-conservation"]

    def test_peak_tracks_high_water_mark(self):
        s = _schedule(({"a": 70}, {"a": 70}), ({"b": 30}, {}))
        for engine in ENGINES:
            t = _run(s, engine)
            assert t.memory_peak["vram"] == 70
            assert t.memory_at("vram", 1.5) == 30

    def test_usage_timeline_records_events(self):
        s = _schedule(({}, {}), ({"a": 10}, {"a": 10}))
        for engine in ENGINES:
            assert _run(s, engine).memory_usage["vram"] == [(1.0, 10), (2.0, 0)]

    def test_zero_capacity_pool(self):
        for engine in ENGINES:
            with pytest.raises(OutOfMemoryError):
                _run(_schedule(({"a": 1}, {})), engine, capacities={"vram": 0})
            # zero-byte allocs are fine
            _run(_schedule(({"b": 0}, {})), engine, capacities={"vram": 0})


class TestMemoryHierarchy:
    def test_from_spec_sizes(self):
        """Without overrides the VRAM capacity is the spec's usable VRAM."""
        usable = ENV1.usable_vram()
        for engine in ENGINES:
            t = _run(_schedule(({"a": usable}, {})), engine, hw=ENV1)
            assert t.memory_peak["vram"] == usable
            with pytest.raises(OutOfMemoryError) as err:
                _run(_schedule(({"a": usable + 1}, {})), engine, hw=ENV1)
            assert err.value.available == usable
