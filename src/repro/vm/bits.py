"""Bit-level value semantics for the simulated machine.

The fault model (paper §II-B) flips a *single bit at a random bit position*
of a register holding an integer or floating-point value, so the VM must
give every runtime value a well-defined bit pattern:

* integers are fixed-width two's complement (canonicalized to the signed
  range, matching :class:`repro.ir.values.ConstantInt`);
* ``float`` is IEEE-754 binary32 — every arithmetic result is re-rounded
  through binary32 so flipped mantissa bits behave exactly as on hardware;
* ``double`` is the native Python float (binary64).

All helpers here are pure functions; the interpreter and the fault-injection
runtime are the only callers.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..errors import InjectionError

# -- integer helpers ---------------------------------------------------------


def wrap_int(value: int, bits: int) -> int:
    """Canonicalize ``value`` into the signed range of an ``bits``-wide int.

    For i1 the canonical values are 0 and 1 (LLVM treats i1 as a boolean).
    """
    mask = (1 << bits) - 1
    v = value & mask
    if bits == 1:
        return v
    if v >= 1 << (bits - 1):
        v -= 1 << bits
    return v


def to_unsigned(value: int, bits: int) -> int:
    """The unsigned interpretation (bit pattern) of a canonical signed int."""
    return value & ((1 << bits) - 1)


def flip_bit_int(value: int, bit: int, bits: int) -> int:
    """Flip bit ``bit`` (0 = LSB) of an integer's two's-complement pattern."""
    if not 0 <= bit < bits:
        raise InjectionError(f"bit {bit} out of range for i{bits}")
    return wrap_int(to_unsigned(value, bits) ^ (1 << bit), bits)


# -- float <-> bit-pattern conversions ----------------------------------------


def float_to_bits(value: float, bits: int) -> int:
    """IEEE-754 bit pattern of ``value`` (binary32 or binary64)."""
    if bits == 32:
        return struct.unpack("<I", struct.pack("<f", _clamp_f32(value)))[0]
    if bits == 64:
        return struct.unpack("<Q", struct.pack("<d", value))[0]
    raise InjectionError(f"no float of width {bits}")


def bits_to_float(pattern: int, bits: int) -> float:
    if bits == 32:
        return struct.unpack("<f", struct.pack("<I", pattern & 0xFFFFFFFF))[0]
    if bits == 64:
        return struct.unpack("<d", struct.pack("<Q", pattern & (2**64 - 1)))[0]
    raise InjectionError(f"no float of width {bits}")


def flip_bit_float(value: float, bit: int, bits: int) -> float:
    """Flip one bit of the IEEE representation (0 = mantissa LSB)."""
    if not 0 <= bit < bits:
        raise InjectionError(f"bit {bit} out of range for f{bits}")
    return bits_to_float(float_to_bits(value, bits) ^ (1 << bit), bits)


# -- binary32 rounding ---------------------------------------------------------


def _clamp_f32(value: float) -> float:
    """Map overflowing magnitudes to ±inf so struct.pack('<f') never raises."""
    if value != value or value in (math.inf, -math.inf):
        return value
    if value > 3.4028235677973366e38:
        return math.inf
    if value < -3.4028235677973366e38:
        return -math.inf
    return value


def round_f32(value: float) -> float:
    """Round a Python float to the nearest binary32 value (ties-to-even),
    returning it widened back to a Python float."""
    return struct.unpack("<f", struct.pack("<f", _clamp_f32(value)))[0]


def round_float(value: float, bits: int) -> float:
    return round_f32(value) if bits == 32 else value


# -- fptosi with x86 semantics --------------------------------------------------


def float_to_int_trunc(value: float, bits: int) -> int:
    """Truncating float→signed-int conversion with x86 ``cvttss2si``
    semantics: NaN and out-of-range inputs produce INT_MIN of the width
    (the "integer indefinite" value) instead of raising.

    LLVM leaves these cases undefined; a fault-injection VM must still pick a
    deterministic behaviour, and the hardware the paper ran on picks this one.
    """
    lo = -(1 << (bits - 1))
    hi = (1 << (bits - 1)) - 1
    if value != value or value in (math.inf, -math.inf):
        return lo
    t = math.trunc(value)
    if t < lo or t > hi:
        return lo
    return t


def float_to_uint_trunc(value: float, bits: int) -> int:
    """Truncating float→unsigned conversion; out-of-range yields the wrapped
    two's-complement pattern of INT_MIN (canonical signed form)."""
    if value != value or value in (math.inf, -math.inf):
        return wrap_int(1 << (bits - 1), bits)
    t = math.trunc(value)
    if t < 0 or t > (1 << bits) - 1:
        return wrap_int(1 << (bits - 1), bits)
    return wrap_int(t, bits)


# -- generic single-bit flips on typed values -------------------------------------


def flip_bit_scalar(value, bit: int, ir_type) -> int | float:
    """Flip one bit of a runtime scalar according to its IR type.

    Pointers are treated as 64-bit integers — a flipped pointer is precisely
    how address faults become wild accesses.
    """
    from ..ir.types import FloatType, IntType, PointerType

    if isinstance(ir_type, IntType):
        return flip_bit_int(value, bit, ir_type.bits)
    if isinstance(ir_type, FloatType):
        return flip_bit_float(value, bit, ir_type.bits)
    if isinstance(ir_type, PointerType):
        return flip_bit_int(value, bit, 64)
    raise InjectionError(f"cannot flip bits of a value of type {ir_type}")


def bit_width(ir_type) -> int:
    """Number of flippable bits in a scalar of ``ir_type``."""
    from ..ir.types import FloatType, IntType, PointerType

    if isinstance(ir_type, (IntType, FloatType)):
        return ir_type.bits
    if isinstance(ir_type, PointerType):
        return 64
    raise InjectionError(f"type {ir_type} has no bit width")


# -- packed ndarray lane representation ----------------------------------------
#
# The compiled engine's batched tier (vm/compile.py) holds vector registers
# as packed NumPy ndarrays.  The *canonical* register representation stays
# the Python list of canonical scalars defined above; the helpers below are
# the only sanctioned bridge between the two, and they are bit-exact by
# construction:
#
# * integers: canonical two's-complement values fit their signed dtype, so
#   ``np.array``/``tolist`` round-trip exactly (i1 lanes ride in int8 as
#   0/1);
# * binary64: ``float64`` lanes are raw copies of the Python float — no
#   conversion ever happens, so even signalling-NaN patterns (which f64
#   registers can legally hold) survive untouched;
# * binary32: canonical f32 values are exactly-representable doubles whose
#   narrowing is exact, and widening back via ``tolist`` uses the same
#   hardware cvtss2sd as ``struct.unpack('<f')``, quiet-NaN behaviour
#   included.  Packed f32 arrays may hold *raw* signalling-NaN patterns
#   (bulk memory reads skip the per-lane quieting that struct.unpack
#   performs); :func:`quiet_nan_f32` applies the exact hardware quieting —
#   set the quiet bit, keep payload and sign — at the escape points where
#   the scalar path would have quieted (packed f32 stores, f32->int
#   bitcasts).  ``tolist`` quiets on its own, matching the scalar loads.

_NP_INT_DTYPES = {1: np.int8, 8: np.int8, 16: np.int16, 32: np.int32, 64: np.int64}


def np_dtype(elem_type):
    """The packed dtype for one IR scalar type, or ``None`` when the type
    has no exact ndarray representation (pointers stay unrolled Python
    ints: they are unbounded 64-bit patterns plus provenance)."""
    from ..ir.types import FloatType, IntType

    if isinstance(elem_type, IntType):
        return _NP_INT_DTYPES.get(elem_type.bits)
    if isinstance(elem_type, FloatType):
        return np.float32 if elem_type.bits == 32 else np.float64
    return None


def np_uint_view(dtype):
    """The same-width unsigned dtype used for bit-pattern reinterpretation."""
    return {
        np.int8: np.uint8,
        np.int16: np.uint16,
        np.int32: np.uint32,
        np.int64: np.uint64,
        np.float32: np.uint32,
        np.float64: np.uint64,
    }[dtype]


def pack_lanes(values, dtype) -> np.ndarray:
    """Pack a canonical lane list into a fresh ndarray (exact, see above)."""
    return np.array(values, dtype)


def unpack_lanes(array) -> list:
    """Unpack an ndarray back to the canonical lane list."""
    return array.tolist()


def as_packed(value, dtype) -> np.ndarray:
    """Register read under the packed representation: ndarrays pass through,
    canonical lists are packed on the spot."""
    if type(value) is np.ndarray:
        return value
    return np.array(value, dtype)


def as_lanes(value) -> list:
    """Register read under the canonical representation: lists pass through,
    packed slots unpack (f32 lanes widen exactly like ``struct.unpack``)."""
    if type(value) is np.ndarray:
        return value.tolist()
    return value


def quiet_nan_f32(array: np.ndarray) -> np.ndarray:
    """Set the quiet bit (0x00400000) on every NaN lane of a float32 array —
    the exact effect hardware load-quieting has on a signalling NaN, and a
    no-op on quiet NaNs.  Returns the input unchanged (no copy) when no lane
    is NaN."""
    nan = np.isnan(array)
    if not nan.any():
        return array
    bits = array.view(np.uint32).copy()
    bits[nan] |= 0x00400000
    return bits.view(np.float32)
