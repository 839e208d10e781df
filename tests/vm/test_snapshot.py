"""Snapshot primitives: bitwise state comparison and checkpoint tapes."""

from repro.vm.snapshot import (
    Checkpoint,
    CheckpointTape,
    FrameState,
    copy_regs,
    regs_match,
)


def _checkpoint(invocation: int, count: int) -> Checkpoint:
    return Checkpoint(
        invocation=invocation,
        dynamic_count=count,
        stats_total=0,
        stats_scalar=0,
        stats_vector=0,
        frame=FrameState("f", None, None, {}),
        memory=None,
    )


class TestRegsMatch:
    def test_identical_scalars_match(self):
        saved = {"a": 1, "b": 2.5, "c": True}
        assert regs_match(dict(saved), saved)

    def test_float_comparison_is_bitwise(self):
        assert not regs_match({"x": 0.0}, {"x": -0.0})
        nan = float("nan")
        assert regs_match({"x": nan}, {"x": nan})
        other_nan = float.fromhex("0x1.0000000000001p+0") * nan  # same NaN here
        assert regs_match({"x": other_nan}, {"x": other_nan})

    def test_int_float_type_confusion_never_matches(self):
        # 1 == 1.0 in Python, but architecturally these are different
        # register contents — convergence must stay conservative.
        assert not regs_match({"x": 1}, {"x": 1.0})
        assert not regs_match({"x": True}, {"x": 1})

    def test_vector_registers_compare_elementwise(self):
        saved = {"v": [1.5, -0.0, 3.0]}
        assert regs_match({"v": [1.5, -0.0, 3.0]}, saved)
        assert not regs_match({"v": [1.5, 0.0, 3.0]}, saved)
        assert not regs_match({"v": [1.5, -0.0]}, saved)

    def test_missing_or_extra_registers_never_match(self):
        assert not regs_match({}, {"a": 1})
        assert not regs_match({"a": 1, "b": 2}, {"a": 1})

    def test_copy_regs_isolates_vectors(self):
        regs = {"v": [1, 2, 3], "s": 7}
        copied = copy_regs(regs)
        copied["v"][0] = 99
        assert regs["v"][0] == 1
        assert copied["s"] == 7


class TestCheckpointTape:
    def test_record_assigns_indices(self):
        tape = CheckpointTape(interval=10, module_version=0)
        for count in (10, 20, 30):
            tape.record(_checkpoint(0, count))
        assert [cp.index for cp in tape.checkpoints] == [0, 1, 2]
        assert len(tape) == 3

    def test_best_for_is_strictly_before_target(self):
        tape = CheckpointTape(interval=10, module_version=0)
        for count in (10, 20, 30):
            tape.record(_checkpoint(0, count))
        # A checkpoint at count==k has already consumed site k: restoring
        # it would skip the injection, so best_for must exclude it.
        assert tape.best_for(10) is None
        assert tape.best_for(11).dynamic_count == 10
        assert tape.best_for(20).dynamic_count == 10
        assert tape.best_for(21).dynamic_count == 20
        assert tape.best_for(9999).dynamic_count == 30

    def test_best_for_before_first_checkpoint(self):
        tape = CheckpointTape(interval=10, module_version=0)
        tape.record(_checkpoint(0, 10))
        assert tape.best_for(1) is None
        assert tape.best_for(10) is None

    def test_empty_tape(self):
        tape = CheckpointTape(interval=10, module_version=0)
        assert len(tape) == 0
        assert tape.best_for(5) is None
        assert tape.last_memory is None
