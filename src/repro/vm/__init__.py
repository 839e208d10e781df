"""Bit-accurate virtual machine executing the vector IR."""

from .bits import (
    bit_width,
    bits_to_float,
    flip_bit_float,
    flip_bit_int,
    flip_bit_scalar,
    float_to_bits,
    float_to_int_trunc,
    round_f32,
    to_unsigned,
    wrap_int,
)
from .compile import COMPILE_EVENTS
from .interpreter import DEFAULT_STEP_LIMIT, ExecutionStats, Interpreter
from .memory import GUARD_GAP, HEAP_BASE, Memory
from .snapshot import (
    Checkpoint,
    CheckpointTape,
    ConvergedToGolden,
    FrameState,
    MemoryImage,
    PAGE_SIZE,
    ResumePoint,
    copy_regs,
    regs_match,
)

__all__ = [
    "bit_width",
    "bits_to_float",
    "flip_bit_float",
    "flip_bit_int",
    "flip_bit_scalar",
    "float_to_bits",
    "float_to_int_trunc",
    "round_f32",
    "to_unsigned",
    "wrap_int",
    "COMPILE_EVENTS",
    "DEFAULT_STEP_LIMIT",
    "ExecutionStats",
    "Interpreter",
    "GUARD_GAP",
    "HEAP_BASE",
    "Memory",
    "Checkpoint",
    "CheckpointTape",
    "ConvergedToGolden",
    "FrameState",
    "MemoryImage",
    "PAGE_SIZE",
    "ResumePoint",
    "copy_regs",
    "regs_match",
]
