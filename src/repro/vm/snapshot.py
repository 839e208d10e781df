"""Golden-trace checkpoints: copy-on-write VM snapshots and resume state.

A *checkpoint* captures everything the interpreter needs to re-enter the
middle of a deterministic execution: the memory image, the live registers
of the (depth-1) frame, the block cursor plus the phi predecessor edge,
the :class:`~repro.vm.interpreter.ExecutionStats` counters, and the
position in the golden run's dynamic-site stream.  The fault injector
records a tape of them during the count (golden) run; every faulty run
then restores the nearest checkpoint strictly before its target site and
executes only the suffix (see DESIGN.md, "why prefix skipping is sound").

Snapshot positions depend on the executor's hook granularity: the decoded
loop (the instrumented engine) snapshots at (depth-1) block boundaries, the
direct engine's compiled chains at superblock-chain boundaries
(:mod:`repro.vm.compile`).  Either way the frame below restores into both
executors unchanged — it names a function, a block, and the phi
predecessor edge, all of which are chain heads when chains recorded them —
so golden and faulty runs of the same engine always agree on where
snapshots and convergence checks can land.

Memory snapshots are page-granular and copy-on-write: :class:`Memory`
tracks which pages were written since the previous snapshot, so each
checkpoint copies only dirty pages and shares the rest with its
predecessor — a tape over a mostly-read working set costs little more
than one full copy.

Nothing here is picklable across processes on purpose: frames key their
registers by IR instruction objects and block cursors by IR blocks, which
are only meaningful against the parent's module object.  Only draws whose
faulty run executes in the recording process get a tape; pooled workers
replay in full (:mod:`repro.core.parallel`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from struct import pack

import numpy as np

#: Snapshot page size in bytes.  Allocations in the workloads are a few KB,
#: so 1 KiB pages keep the dirty-tracking sets tiny while still sharing
#: untouched spans of large buffers between checkpoints.
PAGE_SIZE = 1024
PAGE_SHIFT = 10


class ConvergedToGolden(Exception):
    """Control-flow signal: the faulty run's architectural state matched a
    recorded golden checkpoint after injection, so the remaining suffix is
    the golden suffix — outcome Benign, final output the golden output.

    Deliberately *not* a :class:`~repro.errors.VMTrap`: it must never be
    classified as a crash.
    """

    def __init__(self, checkpoint: "Checkpoint"):
        super().__init__(
            "faulty run re-converged with the golden trace at dynamic site "
            f"{checkpoint.dynamic_count}"
        )
        self.checkpoint = checkpoint


def split_pages(data) -> tuple:
    """A bytearray's content as a tuple of immutable page-sized chunks."""
    return tuple(
        bytes(data[i : i + PAGE_SIZE]) for i in range(0, len(data), PAGE_SIZE)
    )


class AllocationImage:
    """One allocation's snapshot: identity plus page contents."""

    __slots__ = ("base", "size", "label", "pages")

    def __init__(self, base: int, size: int, label: str, pages: tuple):
        self.base = base
        self.size = size
        self.label = label
        self.pages = pages

    def matches(self, alloc) -> bool:
        """Bitwise: does the live allocation equal this image?"""
        if alloc.base != self.base or alloc.size != self.size:
            return False
        view = memoryview(alloc.data)
        off = 0
        for page in self.pages:
            end = off + len(page)
            if view[off:end] != page:
                return False
            off = end
        return True


class MemoryImage:
    """A full :class:`~repro.vm.memory.Memory` snapshot (allocation list,
    bump pointer, page images).  Pages are shared with the previous image
    for every page not written since it was taken."""

    __slots__ = ("images", "next_base", "bytes_allocated", "_by_base")

    def __init__(self, images: list, next_base: int, bytes_allocated: int):
        self.images = images
        self.next_base = next_base
        self.bytes_allocated = bytes_allocated
        self._by_base = {img.base: img for img in images}

    def image_at(self, base: int) -> AllocationImage | None:
        return self._by_base.get(base)

    def matches(self, memory) -> bool:
        """Bitwise: does the live memory equal this image?

        Allocation identity (count, bases, sizes, the bump pointer) must
        match too — a faulty run that allocated differently has not
        re-converged even if the common bytes agree.
        """
        allocs = memory._allocations
        if len(allocs) != len(self.images) or memory._next != self.next_base:
            return False
        for alloc, img in zip(allocs, self.images):
            if not img.matches(alloc):
                return False
        return True


# -- register snapshots -----------------------------------------------------
#
# Register files map IR values (Argument / Instruction objects) to Python
# scalars, lists of scalars, or — in the block compiler's batched tier —
# packed ndarrays (:mod:`repro.vm.bits`).  The decoded closures mutate
# vector registers in place, so snapshots (and resume copies) need depth-1
# copies of both list and ndarray values; the scalar elements themselves
# are immutable ints/floats.


def copy_regs(regs: dict) -> dict:
    """Depth-1 copy of a register file (vectors copied, scalars shared)."""
    out = {}
    for k, v in regs.items():
        t = type(v)
        out[k] = v.copy() if t is list or t is np.ndarray else v
    return out


def _scalar_matches(a, b) -> bool:
    # Type-strict throughout (1 vs 1.0 vs True are different register
    # contents), and floats compare by bit pattern: -0.0 != 0.0 and
    # NaN == same-NaN here, because a "converged" state must reproduce the
    # golden suffix *bit for bit* — value equality is not enough.
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return pack("<d", a) == pack("<d", b)
    return a == b


def _vector_matches(lv, sv) -> bool:
    # Packed-vs-packed compares raw bytes (bit-identical by definition; a
    # raw-vs-quieted f32 NaN pair fails, which is merely conservative —
    # quieting is unobservable downstream, so a missed convergence only
    # delays classification, never changes it).  Mixed representations
    # canonicalize through ``tolist`` — an exact widening — and compare
    # lane-wise like two lists.
    lp = type(lv) is np.ndarray
    sp = type(sv) is np.ndarray
    if lp and sp and lv.dtype == sv.dtype:
        return lv.shape == sv.shape and lv.tobytes() == sv.tobytes()
    a = lv.tolist() if lp else lv
    b = sv.tolist() if sp else sv
    if type(a) is not list or type(b) is not list or len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if not _scalar_matches(x, y):
            return False
    return True


def regs_match(live: dict, saved: dict) -> bool:
    """Bitwise comparison of a live register file against a snapshot.

    Conservative by construction: any extra, missing, or bit-different
    register fails the match (a leftover register from a divergent control
    path counts as divergence even if it is dead).
    """
    if len(live) != len(saved):
        return False
    for key, lv in live.items():
        sv = saved.get(key, _MISSING)
        if sv is _MISSING:
            return False
        tl = type(lv)
        if tl is list or tl is np.ndarray:
            if not _vector_matches(lv, sv):
                return False
        elif not _scalar_matches(lv, sv):
            return False
    return True


_MISSING = object()


# -- checkpoints ------------------------------------------------------------


@dataclass
class FrameState:
    """The resumable state of one depth-1 interpreter frame, captured at a
    block start *before* that block's phis evaluated."""

    function_name: str
    block: object  # IR Block — the block about to execute
    prev_block: object  # IR Block | None — the phi predecessor edge
    regs: dict  # depth-1 copied register file


@dataclass
class Checkpoint:
    """One recorded golden-run state at a dynamic-site interval boundary."""

    invocation: int  # which top-level vm.run() call this frame belongs to
    dynamic_count: int  # dynamic fault sites consumed so far
    stats_total: int
    stats_scalar: int
    stats_vector: int
    frame: FrameState
    memory: MemoryImage
    index: int = -1  # position in the owning tape, set by record()


@dataclass
class ResumePoint:
    """Pending restore handed to the interpreter: consumed by the
    ``invocation``-th top-level :meth:`Interpreter.run` call.

    ``on_restore`` runs after memory/stats are restored — the injector uses
    it to fast-forward the :class:`~repro.core.runtime.FaultRuntime`'s
    dynamic-site counter to the checkpoint's position.
    """

    invocation: int
    checkpoint: Checkpoint
    on_restore: object = None  # zero-arg callable | None


class CheckpointTape:
    """The ordered checkpoints of one golden run.

    Valid only against the module version it was recorded from (an IR
    mutation invalidates every block cursor and register key) and only
    within the recording process.
    """

    __slots__ = ("interval", "module_version", "checkpoints", "_counts")

    def __init__(self, interval: int, module_version: int):
        self.interval = interval
        self.module_version = module_version
        self.checkpoints: list[Checkpoint] = []
        self._counts: list[int] = []

    def __len__(self) -> int:
        return len(self.checkpoints)

    @property
    def last_memory(self) -> MemoryImage | None:
        """The previous checkpoint's memory image — the copy-on-write base
        for the next snapshot."""
        return self.checkpoints[-1].memory if self.checkpoints else None

    def record(self, checkpoint: Checkpoint) -> None:
        checkpoint.index = len(self.checkpoints)
        self.checkpoints.append(checkpoint)
        self._counts.append(checkpoint.dynamic_count)

    def best_for(self, k: int) -> Checkpoint | None:
        """The latest checkpoint *strictly before* dynamic site ``k``.

        Strict: a checkpoint at ``dynamic_count == k`` already consumed
        site ``k`` in the golden run, so restoring it would skip the
        injection entirely.
        """
        i = bisect_left(self._counts, k) - 1
        return self.checkpoints[i] if i >= 0 else None
