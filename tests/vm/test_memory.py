"""Simulated memory: allocation, typed access, bounds checking."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryFault
from repro.ir.types import F32, F64, I1, I8, I32, I64, pointer, vector
from repro.vm.memory import GUARD_GAP, HEAP_BASE, Memory


class TestAllocation:
    def test_first_allocation_at_heap_base(self):
        mem = Memory()
        assert mem.alloc(16) == HEAP_BASE

    def test_guard_gaps_between_allocations(self):
        mem = Memory()
        a = mem.alloc(16)
        b = mem.alloc(16)
        assert b >= a + 16 + GUARD_GAP

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Memory().alloc(0)

    def test_bytes_allocated_tracked(self):
        mem = Memory()
        mem.alloc(10)
        mem.alloc(20)
        assert mem.bytes_allocated == 30


class TestBoundsChecking:
    def test_null_deref_faults(self):
        with pytest.raises(MemoryFault):
            Memory().read_bytes(0, 4)

    def test_low_memory_faults(self):
        mem = Memory()
        mem.alloc(16)
        with pytest.raises(MemoryFault):
            mem.read_bytes(HEAP_BASE - 4, 4)

    def test_guard_gap_faults(self):
        mem = Memory()
        a = mem.alloc(16)
        mem.alloc(16)
        with pytest.raises(MemoryFault):
            mem.read_bytes(a + 16, 4)

    def test_straddling_end_faults(self):
        mem = Memory()
        a = mem.alloc(16)
        with pytest.raises(MemoryFault):
            mem.read_bytes(a + 14, 4)
        mem.read_bytes(a + 12, 4)  # last word is fine

    def test_wild_address_faults(self):
        mem = Memory()
        mem.alloc(16)
        with pytest.raises(MemoryFault):
            mem.read_bytes(1 << 40, 4)

    def test_write_bounds_checked_too(self):
        mem = Memory()
        a = mem.alloc(8)
        with pytest.raises(MemoryFault):
            mem.write_bytes(a + 6, b"1234")

    def test_flipped_low_bit_can_stay_mapped(self):
        """Low-bit address flips may silently corrupt (SDC), not crash."""
        mem = Memory()
        a = mem.alloc_typed(I32, 16)
        addr = a + 4
        flipped = addr ^ (1 << 3)  # +/- 8 bytes: still inside
        mem.read_scalar(I32, flipped)


class TestTypedAccess:
    @pytest.mark.parametrize(
        "ty,value",
        [
            (I32, -123456),
            (I32, 2**31 - 1),
            (I64, -(2**62)),
            (I8, -5),
            (I1, 1),
            (F32, 1.5),
            (F64, -2.5e300),
        ],
    )
    def test_scalar_round_trip(self, ty, value):
        mem = Memory()
        a = mem.alloc_typed(ty)
        mem.write_scalar(ty, a, value)
        assert mem.read_scalar(ty, a) == value

    def test_pointer_round_trip(self):
        mem = Memory()
        pty = pointer(F32)
        a = mem.alloc_typed(pty)
        mem.write_scalar(pty, a, 0xDEADBEEF)
        assert mem.read_scalar(pty, a) == 0xDEADBEEF

    def test_f32_storage_rounds(self):
        mem = Memory()
        a = mem.alloc_typed(F32)
        mem.write_scalar(F32, a, 0.1)  # not representable
        assert mem.read_scalar(F32, a) == np.float32(0.1)

    def test_vector_round_trip(self):
        mem = Memory()
        vty = vector(F32, 8)
        a = mem.alloc_typed(vty)
        values = [float(i) * 0.5 for i in range(8)]
        mem.write_vector(vty, a, values)
        assert mem.read_vector(vty, a) == values

    def test_read_write_value_dispatch(self):
        mem = Memory()
        vty = vector(I32, 4)
        a = mem.alloc_typed(vty)
        mem.write_value(vty, a, [1, 2, 3, 4])
        assert mem.read_value(vty, a) == [1, 2, 3, 4]
        b = mem.alloc_typed(I32)
        mem.write_value(I32, b, 9)
        assert mem.read_value(I32, b) == 9

    @given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=32))
    def test_little_endian_layout(self, values):
        """i32 arrays are byte-compatible with numpy int32 little-endian."""
        mem = Memory()
        a = mem.store_array(I32, np.array(values, dtype=np.int32))
        raw = mem.read_bytes(a, 4 * len(values))
        assert np.frombuffer(raw, dtype="<i4").tolist() == values


class TestNumpyBridge:
    def test_store_and_load_f32(self):
        mem = Memory()
        data = np.linspace(0, 1, 17, dtype=np.float32)
        a = mem.store_array(F32, data)
        out = mem.load_array(F32, a, 17)
        assert (out == data).all()
        assert out.dtype == np.float32

    def test_store_and_load_i32(self):
        mem = Memory()
        data = np.arange(-5, 10, dtype=np.int32)
        a = mem.store_array(I32, data)
        assert (mem.load_array(I32, a, len(data)) == data).all()

    def test_load_array_is_a_copy(self):
        mem = Memory()
        a = mem.store_array(I32, np.zeros(4, dtype=np.int32))
        out = mem.load_array(I32, a, 4)
        out[0] = 99
        assert mem.read_scalar(I32, a) == 0

    def test_store_casts_dtype(self):
        mem = Memory()
        a = mem.store_array(F32, np.array([1.0, 2.0]))  # float64 input
        assert mem.read_scalar(F32, a) == 1.0


class TestStrictAlignment:
    """The simulated CPU is x86-like: it has no alignment-checking mode."""

    def test_default_is_permissive(self):
        from repro.ir.types import F32 as F32t

        mem = Memory()
        a = mem.alloc(16)
        mem.write_scalar(F32t, a + 1, 2.0)  # unaligned, x86-style OK
        assert mem.read_scalar(F32t, a + 1) == 2.0


class TestBulkAccessors:
    """The fast vector paths against their lane-wise reference semantics."""

    def test_misaligned_vector_store_load_round_trip(self):
        mem = Memory()
        vty = vector(F32, 8)
        a = mem.alloc(4 * 8 + 3)
        values = [float(i) * 0.25 - 1.0 for i in range(8)]
        mem.write_vector(vty, a + 3, values)  # unaligned, x86-style OK
        assert mem.read_vector(vty, a + 3) == values
        # Bit-exact against the lane-wise reference path.
        assert mem._read_vector_generic(vty, a + 3) == values

    def test_misaligned_i32_vector_round_trip(self):
        mem = Memory()
        vty = vector(I32, 4)
        a = mem.alloc(4 * 4 + 1)
        mem.write_vector(vty, a + 1, [-7, 0, 2**31 - 1, -(2**31)])
        assert mem.read_vector(vty, a + 1) == [-7, 0, 2**31 - 1, -(2**31)]

    def test_partially_oob_vector_read_replays_lanewise(self):
        """Bulk bounds failure must fault at the exact first bad lane."""
        mem = Memory()
        vty = vector(F32, 8)
        a = mem.alloc(4 * 6)  # room for 6 of the 8 lanes
        for i in range(6):
            mem.write_scalar(F32, a + 4 * i, float(i))
        with pytest.raises(MemoryFault) as bulk:
            mem.read_vector(vty, a)
        with pytest.raises(MemoryFault) as lane:
            mem.read_scalar(F32, a + 4 * 6)  # first out-of-bounds lane
        assert str(bulk.value) == str(lane.value)

    def test_partially_oob_vector_write_is_lanewise_prefix(self):
        """The generic fallback writes in lane order up to the fault."""
        mem = Memory()
        vty = vector(I32, 4)
        a = mem.alloc(4 * 3)  # room for 3 of the 4 lanes
        with pytest.raises(MemoryFault):
            mem.write_vector(vty, a, [10, 11, 12, 13])
        assert [mem.read_scalar(I32, a + 4 * i) for i in range(3)] == [10, 11, 12]

    def test_masked_tail_lanes_stay_accessible(self):
        """Why masked loads of a partial tail are safe: the in-bounds lanes
        read fine individually even though the full-width access faults."""
        mem = Memory()
        a = mem.alloc(4 * 5)
        for i in range(5):
            mem.write_scalar(F32, a + 4 * i, float(i) + 0.5)
        with pytest.raises(MemoryFault):
            mem.read_vector(vector(F32, 8), a)
        assert [mem.read_scalar(F32, a + 4 * i) for i in range(5)] == [
            0.5, 1.5, 2.5, 3.5, 4.5,
        ]


class TestSnapshotRestore:
    def test_round_trip_restores_exact_bytes(self):
        mem = Memory()
        a = mem.store_array(F32, np.linspace(0, 1, 100, dtype=np.float32))
        b = mem.alloc_typed(I32, 8)
        mem.write_scalar(I32, b, 42)
        image = mem.snapshot()
        before = mem.read_bytes(a, 400)
        mem.write_scalar(F32, a + 40, -9.0)
        mem.write_scalar(I32, b, 7)
        mem.restore(image)
        assert mem.read_bytes(a, 400) == before
        assert mem.read_scalar(I32, b) == 42

    def test_incremental_snapshot_shares_clean_pages(self):
        from repro.vm.snapshot import PAGE_SIZE

        mem = Memory()
        a = mem.alloc(PAGE_SIZE * 4)
        first = mem.snapshot()  # enables dirty tracking
        mem.write_bytes(a + PAGE_SIZE * 2 + 5, b"\xff" * 8)
        second = mem.snapshot(first)
        img0, img1 = first.image_at(a), second.image_at(a)
        assert img1.pages[2] is not img0.pages[2]  # dirtied page copied
        clean = [i for i in range(len(img0.pages)) if i != 2]
        assert all(img1.pages[i] is img0.pages[i] for i in clean)

    def test_dirty_page_snapshot_restore_round_trip(self):
        from repro.vm.snapshot import PAGE_SIZE

        mem = Memory()
        vty = vector(F32, 8)
        a = mem.alloc(PAGE_SIZE * 3)
        base = mem.snapshot()
        mem.write_vector(vty, a + PAGE_SIZE - 16, [float(i) for i in range(8)])
        checkpoint = mem.snapshot(base)  # straddles pages 0 and 1
        mem.write_vector(vty, a + PAGE_SIZE - 16, [9.0] * 8)
        mem.write_bytes(a + PAGE_SIZE * 2, b"junk")
        mem.restore(checkpoint)
        assert mem.read_vector(vty, a + PAGE_SIZE - 16) == [
            float(i) for i in range(8)
        ]
        assert mem.read_bytes(a + PAGE_SIZE * 2, 4) == b"\x00\x00\x00\x00"

    def test_restore_preserves_accessor_closures(self):
        """Specialised readers/writers built *before* a restore keep
        working: restore mutates the allocation lists in place."""
        mem = Memory()
        vty = vector(I32, 4)
        a = mem.alloc_typed(vty)
        mem.write_vector(vty, a, [1, 2, 3, 4])  # builds the fast closures
        image = mem.snapshot()
        mem.write_vector(vty, a, [5, 6, 7, 8])
        mem.restore(image)
        assert mem.read_vector(vty, a) == [1, 2, 3, 4]
        mem.write_vector(vty, a, [9, 9, 9, 9])
        assert mem.read_vector(vty, a) == [9, 9, 9, 9]

    def test_allocation_after_snapshot_is_fully_copied(self):
        mem = Memory()
        mem.alloc(64)
        first = mem.snapshot()
        b = mem.alloc(64)  # new allocation: absent from dirty map
        mem.write_bytes(b, b"\x01" * 64)
        second = mem.snapshot(first)
        assert second.image_at(b) is not None
        assert bytes(second.image_at(b).pages[0][:64]) == b"\x01" * 64

    def test_matches_detects_byte_difference(self):
        mem = Memory()
        a = mem.alloc(32)
        mem.write_bytes(a, b"\x05" * 32)
        image = mem.snapshot()
        assert image.matches(mem)
        mem.write_bytes(a + 7, b"\x06")
        assert not image.matches(mem)
        mem.write_bytes(a + 7, b"\x05")
        assert image.matches(mem)

    def test_matches_detects_extra_allocation(self):
        mem = Memory()
        mem.alloc(16)
        image = mem.snapshot()
        assert image.matches(mem)
        mem.alloc(16)
        assert not image.matches(mem)


class TestPackedAccessorDirtyTracking:
    """The bulk ndarray accessors must honor the same dirty-page contract
    as the scalar paths: every packed store marks the pages it touches, so
    incremental snapshots copy them and restores bring the bytes back —
    including through the cached whole-buffer views the accessors slice."""

    def test_packed_write_marks_dirty_pages(self):
        from repro.vm.snapshot import PAGE_SIZE

        mem = Memory()
        vty = vector(F32, 8)
        a = mem.alloc(PAGE_SIZE * 4)
        first = mem.snapshot()  # enables dirty tracking
        write = mem.packed_writer(vty)
        write(a + PAGE_SIZE * 2, np.arange(8, dtype=np.float32))
        second = mem.snapshot(first)
        img0, img1 = first.image_at(a), second.image_at(a)
        assert img1.pages[2] is not img0.pages[2]  # dirtied page copied
        clean = [i for i in range(len(img0.pages)) if i != 2]
        assert all(img1.pages[i] is img0.pages[i] for i in clean)

    def test_packed_write_straddling_pages_dirties_both(self):
        from repro.vm.snapshot import PAGE_SIZE

        mem = Memory()
        vty = vector(F32, 8)
        a = mem.alloc(PAGE_SIZE * 3)
        first = mem.snapshot()
        mem.packed_writer(vty)(
            a + PAGE_SIZE - 16, np.arange(8, dtype=np.float32)
        )
        second = mem.snapshot(first)
        img0, img1 = first.image_at(a), second.image_at(a)
        assert img1.pages[0] is not img0.pages[0]
        assert img1.pages[1] is not img0.pages[1]
        assert img1.pages[2] is img0.pages[2]

    def test_packed_restore_round_trip_through_cached_views(self):
        mem = Memory()
        vty = vector(I32, 4)
        a = mem.alloc_typed(vty, 4)
        read = mem.packed_reader(vty)
        write = mem.packed_writer(vty)
        write(a, np.array([1, 2, 3, 4], np.int32))  # builds the cached view
        image = mem.snapshot()
        write(a, np.array([5, 6, 7, 8], np.int32))
        mem.restore(image)
        # The whole-buffer view built before the restore must read the
        # restored bytes (restore mutates the bytearray in place).
        assert read(a).tolist() == [1, 2, 3, 4]

    def test_quiet_false_writer_preserves_raw_snan_bits(self):
        mem = Memory()
        vty = vector(F32, 4)
        a = mem.alloc_typed(vty, 2)
        snan = np.array([0x7F800001] * 4, np.uint32).view(np.float32)
        mem.packed_writer(vty, quiet=False)(a, snan)
        raw = np.frombuffer(mem.read_bytes(a, 16), np.uint32).tolist()
        assert raw == [0x7F800001] * 4  # raw put-back: no quiet bit
        mem.packed_writer(vty)(a, snan)  # default path quiets
        raw = np.frombuffer(mem.read_bytes(a, 16), np.uint32).tolist()
        assert raw == [0x7FC00001] * 4

    def test_quiet_false_writer_still_marks_dirty_pages(self):
        mem = Memory()
        vty = vector(F32, 4)
        a = mem.alloc_typed(vty, 2)
        image = mem.snapshot()
        mem.packed_writer(vty, quiet=False)(
            a, np.arange(4, dtype=np.float32)
        )
        assert not image.matches(mem)
        mem.restore(image)
        assert mem.packed_reader(vty)(a).tolist() == [0.0] * 4

    def test_unaligned_packed_access_falls_back_correctly(self):
        # An element-misaligned address cannot use the cached view; the
        # per-call frombuffer path must produce identical bytes.
        mem = Memory()
        vty = vector(I32, 4)
        a = mem.alloc(64)
        mem.write_bytes(a, bytes(range(33)) + bytes(31))
        aligned = mem.packed_reader(vty)(a).tolist()
        shifted = mem.packed_reader(vty)(a + 1).tolist()
        expect = np.frombuffer(bytes(range(33)) + bytes(31), np.int32, 4, 1)
        assert shifted == expect.tolist()
        assert aligned == np.frombuffer(bytes(range(33)), np.int32, 4).tolist()
