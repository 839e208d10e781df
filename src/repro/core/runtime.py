"""VULFI's runtime fault-injection API.

The instrumentor (:mod:`repro.core.instrument`) rewrites every fault site
into a call to one of the ``injectFault<Ty>Ty`` entry points below, passing
``(value, active, site_id)``.  ``active`` is 1 when the lane's execution
mask is on (always 1 for unmasked sites) — an inactive lane's call returns
the value untouched and does **not** count as a dynamic fault site, matching
§II's treatment of masked vector instructions.

A :class:`FaultRuntime` instance is bound into the interpreter for one
program execution and operates in one of two modes:

* ``count``  — the golden run: count dynamic sites, perturb nothing;
* ``inject`` — flip one uniformly random bit of the ``target_index``-th
  dynamic site (1-based), chosen by the campaign driver as
  ``U{1..N}`` with ``N`` from the count run (§IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from ..errors import InjectionError
from ..ir.types import F32, F64, FunctionType, I1, I32, I64
from ..ir.module import Module
from ..vm.bits import flip_bit_float, flip_bit_int

MODE_COUNT = "count"
MODE_INJECT = "inject"

#: name -> (value IR type, bit width, is_float)
API = {
    "injectFaultBoolTy": (I1, 1, False),
    "injectFaultIntTy": (I32, 32, False),
    "injectFaultInt64Ty": (I64, 64, False),
    "injectFaultFloatTy": (F32, 32, True),
    "injectFaultDoubleTy": (F64, 64, True),
}

#: Entry-point name -> position in :meth:`FaultRuntime.entries`.  The direct
#: execution engine dispatches on these small integers instead of names.
ENTRY_INDEX = {name: index for index, name in enumerate(API)}


def type_name_of(api_name: str) -> str:
    """An entry point's :attr:`InjectionRecord.type_name` (``"Int64"``...)."""
    return api_name.replace("injectFault", "").replace("Ty", "")


#: :attr:`InjectionRecord.type_name` -> the injected site's bit width, so a
#: stored record tells which width its bit was drawn from.
TYPE_WIDTHS = {type_name_of(name): bits for name, (_ty, bits, _isf) in API.items()}


def api_name_for(scalar_type) -> str:
    """Runtime entry point for a scalar IR type (pointers go via i64)."""
    if scalar_type.is_pointer():
        return "injectFaultInt64Ty"
    if scalar_type.is_float():
        return "injectFaultFloatTy" if scalar_type.bits == 32 else "injectFaultDoubleTy"
    if scalar_type.bits == 1:
        return "injectFaultBoolTy"
    if scalar_type.bits == 64:
        return "injectFaultInt64Ty"
    return "injectFaultIntTy"


def declare_api(module: Module) -> None:
    """Declare all runtime entry points in ``module``."""
    for name, (vty, _bits, _isf) in API.items():
        module.declare_function(
            name, FunctionType(vty, (vty, I32, I32)), attributes=("vulfi-runtime",)
        )


@dataclass
class InjectionRecord:
    """What a single injection actually did."""

    site_id: int
    dynamic_index: int
    bit: int
    type_name: str
    original: float | int
    corrupted: float | int


class FaultRuntime:
    """Per-execution injection state; bind with :meth:`bindings`.

    The paper's fault model injects exactly one single-bit flip per
    execution (``target_index``).  As an extension, ``target_indices`` may
    supply *several* dynamic-site indices to corrupt in one run — a
    multiple-fault model for studying detector behaviour under burst upsets
    (each hit still flips one uniformly chosen bit).
    """

    def __init__(
        self,
        mode: str = MODE_COUNT,
        target_index: int | None = None,
        rng: Random | None = None,
        bit: int | None = None,
        target_indices: list[int] | None = None,
        tape_interval: int | None = None,
    ):
        if mode not in (MODE_COUNT, MODE_INJECT):
            raise InjectionError(f"unknown runtime mode {mode!r}")
        if target_indices is not None and target_index is not None:
            raise InjectionError("pass target_index or target_indices, not both")
        if mode == MODE_INJECT:
            if target_indices is not None:
                if not target_indices or min(target_indices) < 1:
                    raise InjectionError("target_indices must be 1-based and non-empty")
            elif target_index is None or target_index < 1:
                raise InjectionError("inject mode needs a 1-based target_index")
            if rng is None and bit is None:
                raise InjectionError("inject mode needs an rng or a fixed bit")
        self.mode = mode
        self.targets = (
            frozenset(target_indices)
            if target_indices is not None
            else (frozenset({target_index}) if target_index is not None else frozenset())
        )
        self.target_index = target_index
        #: Largest target index (0 when counting) — compiled chain
        #: prologues compare the dynamic counter against this to skip
        #: span checks once every target is behind them.
        self.max_target = max(self.targets) if self.targets else 0
        self.rng = rng
        self.fixed_bit = bit
        self.dynamic_count = 0
        self.records: list[InjectionRecord] = []
        # Count mode records each dynamic site's API bit width, so a
        # campaign driver can pre-draw the injected bit for site ``k`` as
        # ``rng.randrange(site_widths[k - 1])`` — the same value (and the
        # same RNG-stream position) the lazy in-run draw would produce.
        # This is what makes parallel scheduling bit-identical to serial.
        self.site_widths = bytearray() if mode == MODE_COUNT else None
        # Checkpoint scheduling (count mode only): when the dynamic-site
        # counter crosses the next interval mark, ``checkpoint_pending`` is
        # raised; the interpreter's block hook takes the snapshot at the
        # next depth-1 block boundary and calls
        # :meth:`acknowledge_checkpoint`.
        self.tape_interval = tape_interval if mode == MODE_COUNT else None
        self.checkpoint_pending = False
        self._next_checkpoint = tape_interval or 0

    @property
    def record(self) -> InjectionRecord | None:
        """The first (paper model: only) injection performed this run."""
        return self.records[0] if self.records else None

    def reset_counting(self) -> None:
        """Rewind a count-mode runtime for reuse by the next golden run.

        The entry/span closures built by :meth:`entries`/:meth:`spans`
        capture this runtime and its width tape *by object*, so clearing
        state in place keeps them valid — golden runs pay the closure
        construction once per injector instead of once per run.  Inject
        runtimes are never pooled (targets and RNG state are per-run).
        """
        if self.mode != MODE_COUNT:
            raise InjectionError("only count-mode runtimes are reusable")
        self.dynamic_count = 0
        self.site_widths.clear()

    def span_hits(self, lo: int, hi: int) -> bool:
        """True when any target index lies in the half-open span ``(lo, hi]``.

        Compiled chains call this once per superblock chain with the
        chain's *maximum* possible site consumption: a hit runs the head
        block's decoded body instead, where the per-group span advancers
        reproduce the injection exactly.
        """
        for t in self.targets:
            if lo < t <= hi:
                return True
        return False

    def acknowledge_checkpoint(self) -> None:
        """Snapshot taken: clear the flag, arm the next interval mark."""
        self.checkpoint_pending = False
        self._next_checkpoint = self.dynamic_count + self.tape_interval

    # -- entry point factory ---------------------------------------------------

    def _entry(self, bits: int, is_float: bool, type_name: str):
        # Hoist every per-call attribute lookup into closure locals: this
        # closure runs once per dynamic fault site, which for category="all"
        # campaigns means once per executed instruction lane.  Mode, targets,
        # and the bit policy are frozen at construction, so nothing here can
        # go stale.
        widths = self.site_widths
        injecting = self.mode == MODE_INJECT
        targets = self.targets
        fixed_bit = self.fixed_bit
        rng = self.rng
        records = self.records
        flip = flip_bit_float if is_float else flip_bit_int
        # None except in a checkpointing count run, so the inject-mode hot
        # path never tests it (``widths`` is None there).
        interval = self.tape_interval

        def inject(value, active, site_id):
            if not active:
                return value
            count = self.dynamic_count + 1
            self.dynamic_count = count
            if widths is not None:
                widths.append(bits)
                if interval is not None and count >= self._next_checkpoint:
                    self.checkpoint_pending = True
            if injecting and count in targets:
                # A fixed bit position wraps modulo the value's width so bit
                # sweeps remain well-defined when a site is narrower (an i1
                # mask lane during an f32 sweep, say).
                bit = fixed_bit % bits if fixed_bit is not None else rng.randrange(bits)
                corrupted = flip(value, bit, bits)
                records.append(
                    InjectionRecord(
                        site_id=site_id,
                        dynamic_index=count,
                        bit=bit,
                        type_name=type_name,
                        original=value,
                        corrupted=corrupted,
                    )
                )
                return corrupted
            return value

        return inject

    def _span_entry(self, bits: int):
        # The batched counterpart of :meth:`_entry`: advance the dynamic-site
        # counter over ``n`` consecutive *active* same-width sites in one
        # call.  Returns False — without consuming anything — when a target
        # index falls inside the span; the caller then replays those sites
        # through the per-lane entry points so the injection (and its RNG
        # draw) happens at exactly the site it would have under per-lane
        # dispatch.
        widths = self.site_widths
        record_widths = widths.extend if widths is not None else None
        targets = self.targets  # empty in count mode
        byte = bytes((bits,))
        interval = self.tape_interval

        def span(n):
            count = self.dynamic_count
            if targets:
                hi = count + n
                for t in targets:
                    if count < t <= hi:
                        return False
            count += n
            self.dynamic_count = count
            if record_widths is not None:
                record_widths(byte * n)
                if interval is not None and count >= self._next_checkpoint:
                    self.checkpoint_pending = True
            return True

        return span

    def bindings(self) -> dict:
        return {
            name: self._entry(bits, is_float, type_name_of(name))
            for name, (_ty, bits, is_float) in API.items()
        }

    def entries(self) -> tuple:
        """The API entry points as a tuple indexed by :data:`ENTRY_INDEX`.

        The direct engine's decoded closures call these directly — same
        counting, RNG draws, and records as the named bindings, minus the
        name lookup and the interpreted call instruction.
        """
        return tuple(
            self._entry(bits, is_float, type_name_of(name))
            for name, (_ty, bits, is_float) in API.items()
        )

    def spans(self) -> tuple:
        """Batched span advancers, indexed by :data:`ENTRY_INDEX`.

        ``spans()[i](n)`` consumes ``n`` consecutive active sites of entry
        ``i``'s width, or returns False (consuming nothing) when a target
        lies within the span.  The direct engine's group closures use these
        to skip whole uninjected vector groups in one call.
        """
        return tuple(
            self._span_entry(bits) for _ty, bits, _isf in API.values()
        )

    @property
    def injected(self) -> bool:
        return bool(self.records)
