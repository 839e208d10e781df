"""Byte-addressable memory for the VM.

Allocations are placed sparsely in a large flat address space with guard
gaps between them.  Any access that does not fall entirely inside a live
allocation raises :class:`~repro.errors.MemoryFault` (the simulated SIGSEGV)
— this is what turns bit-flipped addresses into *Crash* outcomes, while
flips in the low bits of an address can still land inside a mapped buffer
and silently corrupt data (an SDC), mirroring real hardware behaviour.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from typing import Sequence

import numpy as np

from ..errors import MemoryFault
from ..ir.types import FloatType, IntType, PointerType, Type, VectorType
from .bits import (
    bits_to_float,
    float_to_bits,
    np_dtype,
    quiet_nan_f32,
    to_unsigned,
    wrap_int,
)
from .snapshot import PAGE_SHIFT, PAGE_SIZE, AllocationImage, MemoryImage, split_pages

#: Base of the simulated heap; low addresses (incl. null) are never mapped.
HEAP_BASE = 0x10000
#: Guard gap between allocations, in bytes.
GUARD_GAP = 4096


class Allocation:
    __slots__ = ("base", "size", "data", "label", "views")

    def __init__(self, base: int, size: int, label: str = ""):
        self.base = base
        self.size = size
        self.data = bytearray(size)
        self.label = label
        # Lazily-built whole-buffer ndarray views keyed by dtype, shared by
        # the packed accessors.  Safe to cache: ``data`` is only ever
        # mutated in place (slice assignment, including snapshot restore),
        # never rebound or resized, so a view stays current for the
        # allocation's lifetime.
        self.views: dict = {}

    @property
    def end(self) -> int:
        return self.base + self.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Allocation {self.label or hex(self.base)} size={self.size}>"


class Memory:
    """Flat simulated memory with bump allocation and bounds checking.

    Accesses are x86-like: unaligned accesses succeed.
    """

    def __init__(self):
        self._allocations: list[Allocation] = []
        self._bases: list[int] = []  # sorted, parallel to _allocations
        self._next = HEAP_BASE
        self.bytes_allocated = 0
        # Per-type specialised accessor closures (see _build_scalar_reader
        # etc.): IR types are frozen dataclasses, so structural keys work.
        # The closures capture the allocation lists (mutated in place, never
        # rebound).
        self._scalar_readers: dict = {}
        self._vector_readers: dict = {}
        self._vector_writers: dict = {}
        self._packed_readers: dict = {}
        self._packed_writers: dict = {}
        # Dirty-page tracking for copy-on-write snapshots.  None (the
        # default) = tracking off, zero overhead beyond one is-None test per
        # write.  When tracking, maps Allocation -> set of dirty page
        # indices; an allocation *absent* from the map post-dates the last
        # snapshot and is treated as fully dirty, so alloc() stays free.
        self._dirty: dict | None = None

    # -- allocation ------------------------------------------------------------

    def alloc(self, size: int, label: str = "") -> int:
        """Allocate ``size`` bytes, returning the base address."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        alloc = Allocation(self._next, size, label)
        self._allocations.append(alloc)
        self._bases.append(alloc.base)
        self._next = alloc.end + GUARD_GAP
        self.bytes_allocated += size
        return alloc.base

    def alloc_typed(self, type: Type, count: int = 1, label: str = "") -> int:
        return self.alloc(type.store_size() * count, label)

    def _find(self, addr: int, size: int) -> Allocation:
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            alloc = self._allocations[i]
            if alloc.base <= addr and addr + size <= alloc.end:
                return alloc
        raise MemoryFault(
            f"invalid {size}-byte access at {hex(addr) if addr >= 0 else addr}"
        )

    def check_range(self, addr: int, size: int) -> None:
        self._find(addr, size)

    def range_ok(self, addr: int, size: int) -> bool:
        """Non-raising bounds test: is ``[addr, addr+size)`` fully mapped?

        Guard gaps between allocations mean a contiguous range is mapped
        iff it lies inside one allocation, so this is the exact whole-vector
        precondition the batched masked-intrinsic path needs.
        """
        i = bisect_right(self._bases, addr) - 1
        if i < 0:
            return False
        alloc = self._allocations[i]
        return alloc.base <= addr and addr + size <= alloc.end

    # -- raw bytes --------------------------------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        alloc = self._find(addr, size)
        off = addr - alloc.base
        return bytes(alloc.data[off : off + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        size = len(data)
        alloc = self._find(addr, size)
        off = addr - alloc.base
        alloc.data[off : off + size] = data
        dirty = self._dirty
        if dirty is not None and size:
            pages = dirty.get(alloc)
            if pages is not None:
                pages.update(
                    range(off >> PAGE_SHIFT, ((off + size - 1) >> PAGE_SHIFT) + 1)
                )

    # -- typed scalar access -------------------------------------------------------
    #
    # Typed accesses dominate interpreter run time, so each (memory, type)
    # pair gets a memoized closure: one bisect, one bounds compare, and one
    # pre-compiled ``struct`` conversion replace the generic
    # store_size/alignment/isinstance/from_bytes chain.  The closures are
    # bit-exact re-statements of the generic paths below (signed unpack ==
    # ``wrap_int``; ``<f``/``<d`` unpack == ``bits_to_float``) and fall back
    # to them for unusual widths and for faulting accesses, so trap messages
    # and partial-write behaviour are unchanged.

    #: scalar type -> struct format char, for types whose memory image is a
    #: native machine scalar (everything else takes the generic path).
    _STRUCT_CODES = {
        IntType(32): "i",
        IntType(64): "q",
        FloatType(32): "f",
        FloatType(64): "d",
    }

    def _struct_code(self, type: Type) -> str | None:
        if isinstance(type, PointerType):
            return "Q"
        return self._STRUCT_CODES.get(type)

    def read_scalar(self, type: Type, addr: int):
        reader = self._scalar_readers.get(type)
        if reader is None:
            reader = self._scalar_readers[type] = self._build_scalar_reader(type)
        return reader(addr)

    def _read_scalar_generic(self, type: Type, addr: int):
        size = type.store_size()
        raw = self.read_bytes(addr, size)
        if isinstance(type, IntType):
            return wrap_int(int.from_bytes(raw, "little"), type.bits)
        if isinstance(type, FloatType):
            return bits_to_float(int.from_bytes(raw, "little"), type.bits)
        if isinstance(type, PointerType):
            return int.from_bytes(raw, "little")
        raise MemoryFault(f"cannot read scalar of type {type}")

    def _build_scalar_reader(self, type: Type):
        code = self._struct_code(type)
        if code is None:

            def read(addr, _type=type):
                return self._read_scalar_generic(_type, addr)

            return read

        fmt = struct.Struct("<" + code)
        size = fmt.size
        unpack_from = fmt.unpack_from
        bases = self._bases
        allocs = self._allocations

        def read(addr):
            i = bisect_right(bases, addr) - 1
            if i >= 0:
                alloc = allocs[i]
                off = addr - alloc.base
                if off >= 0 and off + size <= alloc.size:
                    return unpack_from(alloc.data, off)[0]
            return self._read_scalar_generic(type, addr)  # exact trap message

        return read

    def write_scalar(self, type: Type, addr: int, value) -> None:
        size = type.store_size()
        if isinstance(type, IntType):
            raw = to_unsigned(int(value), size * 8).to_bytes(size, "little")
        elif isinstance(type, FloatType):
            raw = float_to_bits(float(value), type.bits).to_bytes(size, "little")
        elif isinstance(type, PointerType):
            raw = (int(value) & (2**64 - 1)).to_bytes(size, "little")
        else:
            raise MemoryFault(f"cannot write scalar of type {type}")
        self.write_bytes(addr, raw)

    # -- typed vector access ---------------------------------------------------------

    def read_vector(self, type: VectorType, addr: int) -> list:
        reader = self._vector_readers.get(type)
        if reader is None:
            reader = self._vector_readers[type] = self._build_vector_reader(type)
        return reader(addr)

    def _read_vector_generic(self, type: VectorType, addr: int) -> list:
        elem = type.element
        stride = elem.store_size()
        return [
            self.read_scalar(elem, addr + i * stride) for i in range(type.length)
        ]

    #: struct code -> ndarray dtype for the bulk accessors below.  A single
    #: ``frombuffer``/``tobytes`` replaces per-element struct conversion:
    #: one copy per access, not one per lane.  Bit-exact: integer and f64
    #: lanes are raw copies, f32 ``tolist`` widens through the same hardware
    #: cvtss2sd as ``struct.unpack('<f')`` (quiet-NaN behaviour included),
    #: and 'Q' pointers read back as the nonnegative 64-bit patterns.
    _CODE_DTYPES = {
        "i": np.int32,
        "q": np.int64,
        "f": np.float32,
        "d": np.float64,
        "Q": np.uint64,
    }

    def _build_vector_reader(self, type: VectorType):
        code = self._struct_code(type.element)
        if code is None:

            def read(addr, _type=type):
                return self._read_vector_generic(_type, addr)

            return read

        dtype = self._CODE_DTYPES[code]
        length = type.length
        size = length * np.dtype(dtype).itemsize
        frombuffer = np.frombuffer
        bases = self._bases
        allocs = self._allocations

        def read(addr):
            i = bisect_right(bases, addr) - 1
            if i >= 0:
                alloc = allocs[i]
                off = addr - alloc.base
                if off >= 0 and off + size <= alloc.size:
                    return frombuffer(
                        alloc.data, dtype, length, off
                    ).tolist()
            # Guard gaps mean a contiguous vector can never straddle two
            # allocations, so a bulk bounds failure is a per-lane failure
            # too: replay lane-wise for the exact faulting lane/message.
            return self._read_vector_generic(type, addr)

        return read

    def write_vector(self, type: VectorType, addr: int, values: Sequence) -> None:
        writer = self._vector_writers.get(type)
        if writer is None:
            writer = self._vector_writers[type] = self._build_vector_writer(type)
        writer(addr, values)

    def _write_vector_generic(
        self, type: VectorType, addr: int, values: Sequence
    ) -> None:
        elem = type.element
        stride = elem.store_size()
        for i, v in enumerate(values):
            self.write_scalar(elem, addr + i * stride, v)

    def _build_vector_writer(self, type: VectorType):
        elem = type.element
        code = self._struct_code(elem)
        if code is None:

            def write(addr, values, _type=type):
                self._write_vector_generic(_type, addr, values)

            return write

        dtype = self._CODE_DTYPES[code]
        length = type.length
        size = length * np.dtype(dtype).itemsize
        bases = self._bases
        allocs = self._allocations
        if isinstance(elem, FloatType):
            # One ndarray cast replaces the per-lane float()/_clamp_f32
            # loop: narrowing a binary64 magnitude beyond the binary32
            # range yields ±inf, the same mapping _clamp_f32 applied
            # before struct.pack('<f') — errstate keeps the cast's
            # overflow note from surfacing as a warning.
            def convert(values):
                with np.errstate(over="ignore", invalid="ignore"):
                    return np.array(values, dtype)

        elif code == "Q":  # pointers: store the 64-bit pattern
            def convert(values):
                return np.array(
                    [int(v) & 0xFFFFFFFFFFFFFFFF for v in values], dtype
                )

        else:
            # The signed dtypes accept the canonical signed range directly;
            # out-of-range raw ints (host-supplied) raise OverflowError in
            # the cast and take the generic path instead.
            def convert(values):
                try:
                    return np.array(values, dtype)
                except OverflowError:
                    return None

        def write(addr, values):
            i = bisect_right(bases, addr) - 1
            if i >= 0:
                alloc = allocs[i]
                off = addr - alloc.base
                if off >= 0 and off + size <= alloc.size:
                    converted = convert(values)
                    if converted is not None:
                        alloc.data[off : off + size] = converted.tobytes()
                        dirty = self._dirty
                        if dirty is not None:
                            pages = dirty.get(alloc)
                            if pages is not None:
                                pages.update(
                                    range(
                                        off >> PAGE_SHIFT,
                                        ((off + size - 1) >> PAGE_SHIFT) + 1,
                                    )
                                )
                        return
            # Bounds failure or non-canonical values: the generic lane-wise
            # path preserves exact trap messages and partial-write order.
            self._write_vector_generic(type, addr, values)

        return write

    # -- packed (ndarray) vector access ----------------------------------------
    #
    # The block compiler's batched tier moves whole vectors between memory
    # and packed ndarray register slots.  Reads return *raw* bit patterns
    # (no f32 NaN quieting — see vm/bits.py for why that is unobservable);
    # writes quiet f32 NaN lanes first, because that is exactly what the
    # scalar path's load-then-store round trip would have produced.

    def packed_reader(self, type: VectorType):
        """A memoized ``addr -> ndarray`` bulk reader for one vector type."""
        reader = self._packed_readers.get(type)
        if reader is None:
            reader = self._packed_readers[type] = self._build_packed_reader(type)
        return reader

    def _build_packed_reader(self, type: VectorType):
        dtype = np_dtype(type.element)
        if dtype is None:
            # Unusual element types go through the canonical lane path,
            # packed afterwards.
            def read(addr, _type=type):
                return np.array(self._read_vector_generic(_type, addr))

            return read

        length = type.length
        itemsize = np.dtype(dtype).itemsize
        lo_mask = itemsize - 1
        shift = itemsize.bit_length() - 1
        size = length * itemsize
        frombuffer = np.frombuffer
        bases = self._bases
        allocs = self._allocations
        # Last-hit allocation memo: loops stream through one array, so the
        # common case skips the bisect entirely.  A stale memo is harmless —
        # the bounds check rejects it and the bisect path takes over (freed
        # allocations are never unmapped from the address space).
        last = None

        def read(addr):
            nonlocal last
            alloc = last
            if alloc is not None:
                off = addr - alloc.base
                if 0 <= off and off + size <= alloc.size:
                    if not off & lo_mask:
                        view = alloc.views.get(dtype)
                        if view is None:
                            view = alloc.views[dtype] = frombuffer(
                                alloc.data, dtype, alloc.size >> shift
                            )
                        q = off >> shift
                        return view[q : q + length].copy()
                    return frombuffer(alloc.data, dtype, length, off).copy()
            i = bisect_right(bases, addr) - 1
            if i >= 0:
                alloc = allocs[i]
                off = addr - alloc.base
                if off >= 0 and off + size <= alloc.size:
                    last = alloc
                    if not off & lo_mask:
                        # Element-aligned: slice the cached whole-buffer
                        # view (one frombuffer per allocation, ever).
                        view = alloc.views.get(dtype)
                        if view is None:
                            view = alloc.views[dtype] = frombuffer(
                                alloc.data, dtype, alloc.size >> shift
                            )
                        q = off >> shift
                        return view[q : q + length].copy()
                    return frombuffer(alloc.data, dtype, length, off).copy()
            return np.array(self._read_vector_generic(type, addr))

        return read

    def packed_writer(self, type: VectorType, quiet: bool = True):
        """A memoized ``(addr, ndarray) -> None`` bulk writer.

        ``quiet=False`` skips the f32 NaN quieting — for read-modify-write
        sequences (masked stores) that must put back the *raw* bit patterns
        of the lanes they did not touch.
        """
        key = (type, quiet)
        writer = self._packed_writers.get(key)
        if writer is None:
            writer = self._packed_writers[key] = self._build_packed_writer(
                type, quiet
            )
        return writer

    def _build_packed_writer(self, type: VectorType, quiet: bool):
        dtype = np_dtype(type.element)
        if dtype is None:

            def write(addr, array, _type=type):
                self._write_vector_generic(_type, addr, array.tolist())

            return write

        length = type.length
        itemsize = np.dtype(dtype).itemsize
        lo_mask = itemsize - 1
        shift = itemsize.bit_length() - 1
        size = length * itemsize
        frombuffer = np.frombuffer
        quiet = quiet and dtype is np.float32
        bases = self._bases
        allocs = self._allocations

        def write(addr, array):
            i = bisect_right(bases, addr) - 1
            if i >= 0:
                alloc = allocs[i]
                off = addr - alloc.base
                if off >= 0 and off + size <= alloc.size:
                    if quiet:
                        array = quiet_nan_f32(array)
                    if not off & lo_mask:
                        # Element-aligned: store through the cached
                        # whole-buffer view (bit-identical to the tobytes
                        # path — the array already has this exact dtype).
                        view = alloc.views.get(dtype)
                        if view is None:
                            view = alloc.views[dtype] = frombuffer(
                                alloc.data, dtype, alloc.size >> shift
                            )
                        q = off >> shift
                        view[q : q + length] = array
                    else:
                        alloc.data[off : off + size] = array.tobytes()
                    dirty = self._dirty
                    if dirty is not None:
                        pages = dirty.get(alloc)
                        if pages is not None:
                            pages.update(
                                range(
                                    off >> PAGE_SHIFT,
                                    ((off + size - 1) >> PAGE_SHIFT) + 1,
                                )
                            )
                    return
            # Bounds failure: the lane-wise path raises the exact per-lane
            # trap message (tolist canonicalizes, quieting f32 NaNs the
            # same way the in-bounds path just would have).
            self._write_vector_generic(type, addr, array.tolist())

        return write

    # -- snapshots (see vm/snapshot.py) ----------------------------------------------
    #
    # The write paths above mark dirty pages when tracking is on; taking a
    # snapshot copies only the pages written since the previous one and
    # shares the rest with it, then resets tracking.  Restore rebuilds the
    # allocation lists *in place*: the specialised accessor closures capture
    # the list objects, never re-read the attributes.

    def snapshot(self, prev: MemoryImage | None = None) -> MemoryImage:
        """Copy-on-write snapshot of the full memory state.

        ``prev`` is the chronologically previous snapshot of *this* memory:
        pages not dirtied since it was taken are shared with it instead of
        copied.  Without ``prev`` (or without tracking yet) every page is
        copied.  Enables dirty tracking as a side effect, so a snapshot
        chain pays one full copy up front and deltas afterwards.
        """
        dirty = self._dirty
        images = []
        for alloc in self._allocations:
            prev_img = prev.image_at(alloc.base) if prev is not None else None
            dirty_pages = dirty.get(alloc) if dirty is not None else None
            if (
                prev_img is None
                or prev_img.size != alloc.size
                or dirty_pages is None
            ):
                pages = split_pages(alloc.data)
            else:
                shared = list(prev_img.pages)
                for pi in dirty_pages:
                    lo = pi << PAGE_SHIFT
                    shared[pi] = bytes(alloc.data[lo : lo + PAGE_SIZE])
                pages = tuple(shared)
            images.append(AllocationImage(alloc.base, alloc.size, alloc.label, pages))
        self._dirty = {alloc: set() for alloc in self._allocations}
        return MemoryImage(images, self._next, self.bytes_allocated)

    def restore(self, image: MemoryImage) -> None:
        """Reset the memory to a snapshot's exact state.

        Mutates the allocation lists in place (the accessor closures hold
        references to the list objects) and turns dirty tracking off —
        restored executions are faulty suffixes, which never snapshot.
        """
        allocs = self._allocations
        bases = self._bases
        del allocs[:]
        del bases[:]
        for img in image.images:
            alloc = Allocation(img.base, img.size, img.label)
            alloc.data[:] = b"".join(img.pages)
            allocs.append(alloc)
            bases.append(img.base)
        self._next = image.next_base
        self.bytes_allocated = image.bytes_allocated
        self._dirty = None

    def read_value(self, type: Type, addr: int):
        if isinstance(type, VectorType):
            return self.read_vector(type, addr)
        return self.read_scalar(type, addr)

    def write_value(self, type: Type, addr: int, value) -> None:
        if isinstance(type, VectorType):
            self.write_vector(type, addr, value)
        else:
            self.write_scalar(type, addr, value)

    # -- numpy bridging (harness convenience) --------------------------------------------

    _NP_DTYPES = {
        (True, 32): np.int32,
        (True, 64): np.int64,
        (False, 32): np.float32,
        (False, 64): np.float64,
    }

    def store_array(self, elem_type: Type, values, label: str = "") -> int:
        """Allocate an array, fill it from a Python/NumPy sequence, and
        return its base address."""
        values = np.asarray(values)
        addr = self.alloc_typed(elem_type, int(values.size), label)
        if isinstance(elem_type, IntType) and elem_type.bits in (32, 64):
            dtype = self._NP_DTYPES[(True, elem_type.bits)]
        elif isinstance(elem_type, FloatType):
            dtype = self._NP_DTYPES[(False, elem_type.bits)]
        else:
            for i, v in enumerate(values.tolist()):
                self.write_scalar(elem_type, addr + i * elem_type.store_size(), v)
            return addr
        raw = np.ascontiguousarray(values.astype(dtype)).tobytes()
        self.write_bytes(addr, raw)
        return addr

    def load_array(self, elem_type: Type, addr: int, count: int) -> np.ndarray:
        """Read ``count`` elements starting at ``addr`` as a NumPy array."""
        size = elem_type.store_size() * count
        raw = self.read_bytes(addr, size)
        if isinstance(elem_type, IntType) and elem_type.bits in (32, 64):
            return np.frombuffer(raw, dtype=self._NP_DTYPES[(True, elem_type.bits)]).copy()
        if isinstance(elem_type, FloatType):
            return np.frombuffer(raw, dtype=self._NP_DTYPES[(False, elem_type.bits)]).copy()
        return np.array(
            [
                self.read_scalar(elem_type, addr + i * elem_type.store_size())
                for i in range(count)
            ]
        )
