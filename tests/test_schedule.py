"""Schedule IR: op construction and dependency checking."""

import pytest

from repro.errors import ScheduleError
from repro.runtime.schedule import (
    CPU,
    D2H,
    EV_ALLOC,
    EV_FREE,
    GPU,
    H2D,
    MemEffect,
    Op,
    PHASE_TRANSFER,
    Schedule,
)


class TestOp:
    def test_unknown_resource_rejected(self):
        with pytest.raises(ScheduleError):
            Op(0, "tpu", 1.0, "x")

    def test_negative_duration_rejected(self):
        with pytest.raises(ScheduleError):
            Op(0, GPU, -1.0, "x")


class TestSchedule:
    def test_ids_are_sequential(self):
        s = Schedule()
        assert s.compute(1.0, "a") == 0
        assert s.compute(1.0, "b") == 1
        assert len(s) == 2

    def test_dep_on_future_op_rejected(self):
        s = Schedule()
        with pytest.raises(ScheduleError):
            s.compute(1.0, "a", deps=[0])  # would depend on itself

    def test_dep_on_unknown_op_rejected(self):
        s = Schedule()
        s.compute(1.0, "a")
        with pytest.raises(ScheduleError):
            s.compute(1.0, "b", deps=[5])

    def test_deps_deduplicated_and_sorted(self):
        s = Schedule()
        a = s.compute(1.0, "a")
        b = s.compute(1.0, "b")
        c = s.compute(1.0, "c", deps=[b, a, b])
        assert s[c].deps == (a, b)

    def test_helper_constructors_pick_resources(self):
        s = Schedule()
        ops = [
            s.compute(1.0, "c"),
            s.cpu_compute(1.0, "cc"),
            s.transfer_in(1.0, "in"),
            s.transfer_out(1.0, "out"),
            s.disk_read(1.0, "d"),
        ]
        resources = [s[i].resource for i in ops]
        assert resources == [GPU, CPU, H2D, D2H, "disk"]

    def test_transfer_defaults_to_transfer_phase(self):
        s = Schedule()
        i = s.transfer_in(1.0, "in")
        assert s[i].phase == PHASE_TRANSFER

    def test_mem_effects_attached(self):
        s = Schedule()
        i = s.transfer_in(
            1.0, "w", allocs=[MemEffect("vram", "t", 100)], frees=[MemEffect("vram", "u", 0)]
        )
        assert s[i].allocs[0].nbytes == 100
        assert s[i].frees[0].tensor_id == "u"

    def test_iteration_order_is_issue_order(self):
        s = Schedule()
        labels = ["a", "b", "c"]
        for label in labels:
            s.compute(1.0, label)
        assert [op.label for op in s] == labels

    def test_validate_passes_for_wellformed(self):
        s = Schedule()
        a = s.compute(1.0, "a")
        s.compute(1.0, "b", deps=[a])
        s.validate()


class TestValidate:
    """validate() checks the flattened deps at once and names the first
    offender (lowest op id, then the dep's position in its tuple)."""

    @staticmethod
    def chain(n=6):
        s = Schedule()
        for i in range(n):
            s.extend_raw(
                [0], [1.0], [(i - 1,) if i else ()], [f"op{i}"], [-1], ["other"], [-1]
            )
        return s

    @pytest.mark.parametrize(
        "op_id,deps,message",
        [
            (3, (1, -2), "op 3 has negative dependency -2"),
            (4, (4,), "op 4 has forward or self dependency 4"),
            (2, (0, 5, -1), "op 2 has forward or self dependency 5"),
        ],
    )
    def test_names_first_offender(self, op_id, deps, message):
        s = self.chain()
        s._deps[op_id] = deps
        s._deps[5] = (9,)  # a later offender is not reported
        with pytest.raises(ScheduleError, match=f"^{message}$"):
            s.validate()

    def test_negative_duration(self):
        s = self.chain()
        s._dur[2] = -0.5
        with pytest.raises(ScheduleError, match="op 2 has negative duration -0.5"):
            s.validate()

    def test_empty_and_depless_schedules_pass(self):
        Schedule().validate()
        s = Schedule()
        s.extend_raw([0], [1.0], [()], ["a"], [-1], ["other"], [-1])
        s.validate()


class TestExtendEffects:
    """Memory effects attached in bulk through ``extend_raw(effects=...)``."""

    def test_matches_per_effect_appends(self):
        bulk, single = Schedule(), Schedule()
        bulk.extend_raw(
            [0, 0], [1.0, 1.0], [(), ()], ["a", "b"], [-1, -1], ["other"] * 2, [-1, -1],
            effects=([1, 0, 1], [EV_FREE] * 3, ["vram"] * 3, ["x", "y", "z"], [3, 4, 5]),
        )
        single.compute(1.0, "a", frees=[MemEffect("vram", "y", 4)])
        single.compute(
            1.0, "b", frees=[MemEffect("vram", "x", 3), MemEffect("vram", "z", 5)]
        )
        assert [op.frees for op in bulk] == [op.frees for op in single]
        assert bulk[1].frees == (MemEffect("vram", "x", 3), MemEffect("vram", "z", 5))

    def test_invalidates_compiled_form(self):
        s = Schedule()
        s.compute(1.0, "a")
        ev_delta = s.freeze().ev_delta
        assert s.freeze().ev_delta is ev_delta  # cached until a mutation
        s.extend_raw(
            [], [], [], [], [], [], [], effects=([0], [EV_ALLOC], ["vram"], ["w"], [8])
        )
        assert s.freeze().ev_delta is not ev_delta  # rebuilt
        assert s.ev_delta.tolist() == [8]
        assert s.pool_names == ("vram",)


def test_label_tags_are_copied_at_extend():
    """Deferred labels render from the ``(render, args)`` pair given at
    extend time, only when read, and only for the rows it covers."""
    rendered = []

    def render(kind, tags):
        rendered.append(tags)
        return [f"{kind}{tag}:L2s0" for tag in tags]

    s = Schedule()
    s.compute(1.0, "first")
    s.extend_raw(
        [0, 0], [1.0, 1.0], [(), ()], (render, ("exp", (3, 5))), [2, 2],
        ["expert", "expert"], [-1, -1],
    )
    assert rendered == []
    assert [op.label for op in s] == ["first", "exp3:L2s0", "exp5:L2s0"]
    assert rendered == [(3, 5)]
