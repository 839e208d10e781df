"""Pre-decoded executable form of IR functions — the interpreter fast path.

The naive interpreter resolved every operand (`isinstance(o, Constant)`),
re-evaluated every constant, and walked a long ``isinstance`` chain per
*dynamic* instruction.  All of that work is invariant per *static*
instruction, so this module hoists it: each :class:`~repro.ir.module.Function`
is decoded once into per-block records where

* every operand is a pre-resolved ``(is_reg, payload)`` pair — constants are
  already Python values, registers are dictionary keys;
* every instruction is a specialised closure ``ex(vm, regs)`` built by a
  per-class handler table (no ``isinstance`` at run time);
* phi nodes become per-predecessor-edge lookup tables;
* terminators become integer-tagged records driving the block loop.

Decoded programs are cached on the module (``module._vm_decoded``) and
invalidated by :attr:`Module.version`, which every structural IR mutation
bumps.  Decoding preserves bit-exact semantics and the exact
scalar/vector/step accounting of the original interpreter loop — including
its *lazy* error behaviour: malformed instructions only raise when executed,
never at decode time.
"""

from __future__ import annotations

from ..errors import InvalidOperation, StepLimitExceeded
from ..ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    CastOp,
    CompareOp,
    CondBranch,
    ExtractElement,
    FNeg,
    GetElementPtr,
    InsertElement,
    Load,
    Phi,
    Return,
    Select,
    ShuffleVector,
    Store,
    Unreachable,
)
from ..ir.intrinsics import get_intrinsic, is_intrinsic_name
from ..ir.module import Function, Module
from ..ir.types import VectorType
from ..ir.values import (
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    ConstantVector,
    UndefValue,
)
import numpy as np

from . import ops
from .bits import round_f32

# Terminator tags.
T_BR = 0
T_CONDBR = 1
T_RET = 2
T_UNREACHABLE = 3


# -- direct fault injection ----------------------------------------------------
#
# The direct engine folds VULFI's fault sites into the decoded program
# instead of splicing ``injectFault<Ty>Ty`` calls into the IR: an
# :class:`InjectionPlan` maps site-bearing instructions to per-lane
# :class:`PlannedSite` descriptors, and the decoder wraps those
# instructions' closures so the runtime's count/inject entry points run
# inline — no interpreted extract/mask-decode/call/insert chains.
#
# Bit-identical semantics with the instrumented reference engine are the
# hard requirement.  Three invariants carry it:
#
# * dynamic sites are visited in the exact order the spliced chains would
#   execute (per group, lanes ascending, immediately after the defining
#   instruction or immediately before the store);
# * each descriptor's ``active_fn``/``to_int``/``to_ptr`` compose the very
#   :mod:`repro.vm.ops` evaluators the interpreted chain would have run
#   (sign-bit masks via bitcast+lshr, pointers via the ptrtoint/inttoptr
#   sandwich);
# * every visited lane charges the *instrumentation tax* — the dynamic
#   instruction count of the chain it replaces — to the step accounting,
#   so step budgets, timeout crashes, and ``dynamic_instructions`` totals
#   match the instrumented engine.


class PlannedSite:
    """One scalar fault-site lane, pre-resolved for direct execution."""

    __slots__ = (
        "site_id",
        "lane",
        "entry_index",
        "mask_operand_index",
        "active_fn",
        "active_bulk_fn",
        "to_int",
        "to_ptr",
        "tax_total",
        "tax_scalar",
        "tax_vector",
    )

    def __init__(
        self,
        site_id: int,
        lane: int | None,
        entry_index: int,
        mask_operand_index: int | None = None,
        active_fn=None,
        active_bulk_fn=None,
        to_int=None,
        to_ptr=None,
        tax: tuple[int, int, int] = (1, 1, 0),
    ):
        self.site_id = site_id
        self.lane = lane
        self.entry_index = entry_index
        self.mask_operand_index = mask_operand_index
        self.active_fn = active_fn
        self.active_bulk_fn = active_bulk_fn
        self.to_int = to_int
        self.to_ptr = to_ptr
        self.tax_total, self.tax_scalar, self.tax_vector = tax


class InjectionPlan:
    """All planned sites of one module, keyed by owning instruction.

    ``lvalue`` maps an instruction to the ordered lane descriptors of its
    result register; ``store`` maps a store-like instruction (plain store,
    masked store, scatter) to ``(value_operand_index, descriptors)``.  The
    plan owns its decoded-program cache — planned closures must never leak
    into the module's plain decode cache.
    """

    __slots__ = ("lvalue", "store", "_decoded")

    def __init__(self):
        self.lvalue: dict = {}
        self.store: dict = {}
        self._decoded: DecodedProgram | None = None

    def __len__(self) -> int:
        return sum(len(g) for g in self.lvalue.values()) + sum(
            len(g) for _, g in self.store.values()
        )


def _resolve_lanes(instr, group):
    """Pre-resolve a descriptor group into flat per-lane execution tuples."""
    lanes = []
    for d in group:
        mask_spec = (
            _spec(instr.operands[d.mask_operand_index])
            if d.mask_operand_index is not None
            else None
        )
        lanes.append(
            (
                d.site_id,
                d.lane,
                d.entry_index,
                mask_spec,
                d.active_fn,
                d.to_int,
                d.to_ptr,
                d.tax_total,
                d.tax_scalar,
                d.tax_vector,
            )
        )
    return lanes


def _make_applier(instr, group, fname: str, copy_value: bool):
    """Build ``apply(vm, regs, value) -> value`` running a site group inline.

    Mirrors one spliced chain: per lane (ascending), charge the chain's
    step tax, decode the execution mask, and pass the scalar through the
    runtime entry point.  ``copy_value`` forces a fresh list before the
    first lane mutation — required when ``value`` may alias another
    register (store operands, values returned from calls); everywhere else
    the decoded builders always produce fresh lists.

    A group's lanes share one register and one mask, so its descriptors are
    uniform in type, mask convention, and tax.  The hot shapes exploit that:
    the group tax is charged in one step, and the per-run *span* advancer
    (:meth:`FaultRuntime.spans`) consumes the whole group's dynamic-site
    counts in a single call — per-lane entry dispatch only happens for the
    one group per faulty run that actually contains the target index (and
    near the step limit, where lane-exact crash accounting matters).
    """
    lanes = _resolve_lanes(instr, group)
    sid0, lane0, eidx, mask_spec, active_fn, to_int, to_ptr, tt, ts, tv = lanes[0]

    if len(lanes) == 1 and lane0 is None:
        # Scalar register fast paths — the only shapes scalar sites take.
        if mask_spec is None and to_int is None:

            def apply(vm, regs, value):
                stats = vm.stats
                stats.total += tt
                stats.scalar += ts
                stats.vector += tv
                if stats.total > vm.step_limit:
                    raise StepLimitExceeded(
                        f"@{fname}: exceeded {vm.step_limit} dynamic instructions"
                    )
                return vm.fault_entries[eidx](value, 1, sid0)

            return apply

        if mask_spec is None:

            def apply(vm, regs, value):
                stats = vm.stats
                stats.total += tt
                stats.scalar += ts
                stats.vector += tv
                if stats.total > vm.step_limit:
                    raise StepLimitExceeded(
                        f"@{fname}: exceeded {vm.step_limit} dynamic instructions"
                    )
                return to_ptr(vm.fault_entries[eidx](to_int(value), 1, sid0))

            return apply

    uniform = lane0 is not None and all(
        l[2] == eidx and l[3] == mask_spec and l[5] is to_int and l[7] == tt
        for l in lanes[1:]
    )
    if uniform and to_int is None:
        pairs = tuple((l[1], l[0]) for l in lanes)
        n = len(pairs)
        gtt, gts, gtv = tt * n, ts * n, tv * n
        slow = _generic_applier(lanes, fname, copy_value)

        if mask_spec is None:

            def apply(vm, regs, value):
                stats = vm.stats
                total = stats.total + gtt
                if total > vm.step_limit:
                    return slow(vm, regs, value)
                stats.total = total
                stats.scalar += gts
                stats.vector += gtv
                if vm.fault_spans[eidx](n):
                    return value
                # The target index lies inside this group: replay the
                # lanes through the per-lane entry (same counts, same
                # RNG-stream position as per-lane dispatch throughout).
                entry = vm.fault_entries[eidx]
                if copy_value:
                    value = list(value)
                for lane, sid in pairs:
                    value[lane] = entry(value[lane], 1, sid)
                return value

            return apply

        mr, mp = mask_spec

        def apply(vm, regs, value):
            stats = vm.stats
            total = stats.total + gtt
            if total > vm.step_limit:
                return slow(vm, regs, value)
            stats.total = total
            stats.scalar += gts
            stats.vector += gtv
            mask = regs[mp] if mr else mp
            flags = [active_fn(mask[lane]) for lane, _ in pairs]
            active = 0
            for f in flags:
                if f:
                    active += 1
            if not active or vm.fault_spans[eidx](active):
                return value
            entry = vm.fault_entries[eidx]
            if copy_value:
                value = list(value)
            for (lane, sid), f in zip(pairs, flags):
                value[lane] = entry(value[lane], f, sid)
            return value

        return apply

    return _generic_applier(lanes, fname, copy_value)


def _generic_applier(lanes, fname: str, copy_value: bool):
    """The fully general per-lane loop — handles every descriptor shape and
    raises :class:`StepLimitExceeded` at the exact lane whose chain tax
    crosses the budget (the specialised appliers defer to this near the
    limit and for pointer/mixed groups)."""

    def apply(vm, regs, value):
        stats = vm.stats
        limit = vm.step_limit
        entries = vm.fault_entries
        copied = not copy_value
        for sid, lane, eidx, mask_spec, active_fn, to_int, to_ptr, tt, ts, tv in lanes:
            stats.total += tt
            stats.scalar += ts
            stats.vector += tv
            if stats.total > limit:
                raise StepLimitExceeded(
                    f"@{fname}: exceeded {limit} dynamic instructions"
                )
            if mask_spec is None:
                active = 1
            else:
                mr, mp = mask_spec
                active = active_fn((regs[mp] if mr else mp)[lane])
            if lane is None:
                if to_int is None:
                    value = entries[eidx](value, active, sid)
                else:
                    value = to_ptr(entries[eidx](to_int(value), active, sid))
            else:
                if not copied:
                    value = list(value)
                    copied = True
                scalar = value[lane]
                if to_int is None:
                    value[lane] = entries[eidx](scalar, active, sid)
                else:
                    value[lane] = to_ptr(entries[eidx](to_int(scalar), active, sid))
        return value

    return apply


def _build_injected_store(instr, op_index: int, group, fname: str):
    """A store-like instruction with fault sites on its value operand.

    Replicates the §II-B protocol: the stored value is considered for
    injection *before* the store executes, and only the store's operand
    sees the corrupted value — the defining register is untouched.
    """
    apply = _make_applier(instr, group, fname, copy_value=True)
    if isinstance(instr, Store):
        r0, p0 = _spec(instr.operands[0])
        r1, p1 = _spec(instr.operands[1])
        ty = instr.value.type

        def ex(vm, regs):
            value = apply(vm, regs, regs[p0] if r0 else p0)
            vm.memory.write_value(ty, regs[p1] if r1 else p1, value)

        return ex

    # Masked store / scatter intrinsic call.
    info = get_intrinsic(instr.callee.name)
    specs = [_spec(o) for o in instr.operands]
    argf = _fetch_args(specs)

    def ex(vm, regs):
        args = argf(regs)
        args[op_index] = apply(vm, regs, args[op_index])
        vm._intrinsic(info, instr, args)

    return ex


def _decode_planned_step(instr, plan: InjectionPlan, fname: str):
    """The planned closure for ``instr``, or None when it bears no sites."""
    group = plan.lvalue.get(instr)
    if group is not None:
        base = _decode_step(instr)
        # Calls can return a value that aliases another live register (an
        # identity function returns its argument); everything else decodes
        # to closures that build fresh vectors, safe to corrupt in place.
        apply = _make_applier(instr, group, fname, copy_value=isinstance(instr, Call))

        def ex(vm, regs):
            base(vm, regs)
            regs[instr] = apply(vm, regs, regs[instr])

        return ex
    planned_store = plan.store.get(instr)
    if planned_store is not None:
        op_index, group = planned_store
        return _build_injected_store(instr, op_index, group, fname)
    return None


def evaluate_constant(c: Constant):
    """Evaluate an IR constant to its runtime Python value (pure)."""
    if isinstance(c, ConstantInt):
        return c.value
    if isinstance(c, ConstantFloat):
        return round_f32(c.value) if c.type.bits == 32 else c.value
    if isinstance(c, ConstantVector):
        return [evaluate_constant(e) for e in c.elements]
    if isinstance(c, ConstantPointerNull):
        return 0
    if isinstance(c, UndefValue):
        # Deterministic zero for undef: fault campaigns must be replayable.
        if isinstance(c.type, VectorType):
            return [0.0 if c.type.element.is_float() else 0] * c.type.length
        if c.type.is_float():
            return 0.0
        return 0
    raise InvalidOperation(f"cannot evaluate constant {c!r}")


def _spec(value):
    """Resolve one operand to a ``(is_reg, payload)`` pair."""
    if isinstance(value, Constant):
        return False, evaluate_constant(value)
    return True, value


def unpack_regs(regs: dict) -> None:
    """Canonicalize a register file in place for decoded execution.

    The block compiler's batched tier leaves packed ndarray slots in the
    register dict (:mod:`repro.vm.compile`); the decoded closures here
    index, mutate, and bit-flip vector registers as canonical Python lists,
    so decoded execution after a chain converts first.  ``tolist`` is the
    exact widening (f32 lanes quiet like ``struct.unpack('<f')``)."""
    for key, value in regs.items():
        if type(value) is np.ndarray:
            regs[key] = value.tolist()


def _raiser(message: str):
    def ex(vm, regs):
        raise InvalidOperation(message)

    return ex


# -- per-class closure builders ------------------------------------------------
#
# Each builder runs once per static instruction and returns ``ex(vm, regs)``.
# The closure writes its result straight into ``regs[instr]`` (void results
# are simply not stored — nothing can reference them).


def _build_binop(instr: BinaryOp):
    r0, p0 = _spec(instr.operands[0])
    r1, p1 = _spec(instr.operands[1])
    ty = instr.type
    if isinstance(ty, VectorType):
        fn = ops.binop_fn(instr.opcode, ty.element)

        def ex(vm, regs):
            a = regs[p0] if r0 else p0
            b = regs[p1] if r1 else p1
            regs[instr] = [fn(x, y) for x, y in zip(a, b)]

    else:
        fn = ops.binop_fn(instr.opcode, ty)

        def ex(vm, regs):
            regs[instr] = fn(regs[p0] if r0 else p0, regs[p1] if r1 else p1)

    return ex


def _build_compare(instr: CompareOp):
    r0, p0 = _spec(instr.operands[0])
    r1, p1 = _spec(instr.operands[1])
    operand_ty = instr.lhs.type
    if isinstance(operand_ty, VectorType):
        fn = ops.compare_fn(instr.opcode, instr.predicate, operand_ty.element)

        def ex(vm, regs):
            a = regs[p0] if r0 else p0
            b = regs[p1] if r1 else p1
            regs[instr] = [int(fn(x, y)) for x, y in zip(a, b)]

    else:
        fn = ops.compare_fn(instr.opcode, instr.predicate, operand_ty)

        def ex(vm, regs):
            regs[instr] = int(fn(regs[p0] if r0 else p0, regs[p1] if r1 else p1))

    return ex


def _build_select(instr: Select):
    rc, pc = _spec(instr.operands[0])
    ra, pa = _spec(instr.operands[1])
    rb, pb = _spec(instr.operands[2])
    if instr.condition.type.is_vector():

        def ex(vm, regs):
            cond = regs[pc] if rc else pc
            a = regs[pa] if ra else pa
            b = regs[pb] if rb else pb
            regs[instr] = [x if c else y for c, x, y in zip(cond, a, b)]

    else:

        def ex(vm, regs):
            regs[instr] = (
                (regs[pa] if ra else pa)
                if (regs[pc] if rc else pc)
                else (regs[pb] if rb else pb)
            )

    return ex


def _build_cast(instr: CastOp):
    r0, p0 = _spec(instr.operands[0])
    src_ty = instr.operands[0].type
    dst_ty = instr.type
    if isinstance(dst_ty, VectorType):
        fn = ops.cast_fn(instr.opcode, src_ty.scalar_type, dst_ty.element)

        def ex(vm, regs):
            regs[instr] = [fn(x) for x in (regs[p0] if r0 else p0)]

    else:
        fn = ops.cast_fn(instr.opcode, src_ty, dst_ty)

        def ex(vm, regs):
            regs[instr] = fn(regs[p0] if r0 else p0)

    return ex


def _build_gep(instr: GetElementPtr):
    r0, p0 = _spec(instr.operands[0])
    r1, p1 = _spec(instr.operands[1])
    stride = instr.base.type.pointee.store_size()
    if isinstance(instr.index.type, VectorType):

        def ex(vm, regs):
            base = regs[p0] if r0 else p0
            idx = regs[p1] if r1 else p1
            regs[instr] = [base + i * stride for i in idx]

    else:

        def ex(vm, regs):
            regs[instr] = (regs[p0] if r0 else p0) + (regs[p1] if r1 else p1) * stride

    return ex


def _build_load(instr: Load):
    r0, p0 = _spec(instr.operands[0])
    ty = instr.type

    def ex(vm, regs):
        regs[instr] = vm.memory.read_value(ty, regs[p0] if r0 else p0)

    return ex


def _build_store(instr: Store):
    r0, p0 = _spec(instr.operands[0])
    r1, p1 = _spec(instr.operands[1])
    ty = instr.value.type

    def ex(vm, regs):
        vm.memory.write_value(ty, regs[p1] if r1 else p1, regs[p0] if r0 else p0)

    return ex


def _build_alloca(instr: Alloca):
    allocated = instr.allocated_type
    count = instr.count
    label = instr.name or "alloca"

    def ex(vm, regs):
        regs[instr] = vm.memory.alloc_typed(allocated, count, label=label)

    return ex


def _build_extractelement(instr: ExtractElement):
    r0, p0 = _spec(instr.operands[0])
    r1, p1 = _spec(instr.operands[1])

    def ex(vm, regs):
        vec = regs[p0] if r0 else p0
        i = int(regs[p1] if r1 else p1)
        if not 0 <= i < len(vec):
            # LLVM: poison. Deterministic choice: wrap modulo length.
            i %= len(vec)
        regs[instr] = vec[i]

    return ex


def _build_insertelement(instr: InsertElement):
    r0, p0 = _spec(instr.operands[0])
    r1, p1 = _spec(instr.operands[1])
    r2, p2 = _spec(instr.operands[2])

    def ex(vm, regs):
        out = list(regs[p0] if r0 else p0)
        i = int(regs[p2] if r2 else p2)
        if not 0 <= i < len(out):
            i %= len(out)
        out[i] = regs[p1] if r1 else p1
        regs[instr] = out

    return ex


def _build_shufflevector(instr: ShuffleVector):
    r0, p0 = _spec(instr.operands[0])
    r1, p1 = _spec(instr.operands[1])
    mask = instr.mask

    def ex(vm, regs):
        joined = list(regs[p0] if r0 else p0) + list(regs[p1] if r1 else p1)
        regs[instr] = [joined[m] for m in mask]

    return ex


def _build_fneg(instr: FNeg):
    r0, p0 = _spec(instr.operands[0])
    if instr.type.is_vector():

        def ex(vm, regs):
            regs[instr] = [-x for x in (regs[p0] if r0 else p0)]

    else:

        def ex(vm, regs):
            regs[instr] = -(regs[p0] if r0 else p0)

    return ex


def _fetch_args(specs):
    """Generic argument-list fetcher for call-like closures."""
    if len(specs) == 2:
        (r0, p0), (r1, p1) = specs
        return lambda regs: [regs[p0] if r0 else p0, regs[p1] if r1 else p1]
    if len(specs) == 1:
        ((r0, p0),) = specs
        return lambda regs: [regs[p0] if r0 else p0]
    if len(specs) == 3:
        (r0, p0), (r1, p1), (r2, p2) = specs
        return lambda regs: [
            regs[p0] if r0 else p0,
            regs[p1] if r1 else p1,
            regs[p2] if r2 else p2,
        ]
    return lambda regs: [regs[p] if r else p for r, p in specs]


def _build_math_call(instr: Call, name: str, info):
    op = name.split(".")[1]
    fn = ops.MATH_FNS[op]
    specs = [_spec(o) for o in instr.operands]
    ty = info.function_type.return_type
    if isinstance(ty, VectorType):
        f32 = ty.element.bits == 32
        if len(specs) == 1:
            ((r0, p0),) = specs

            def ex(vm, regs):
                out = [fn(x) for x in (regs[p0] if r0 else p0)]
                regs[instr] = [round_f32(x) for x in out] if f32 else out

        else:
            (r0, p0), (r1, p1) = specs

            def ex(vm, regs):
                a = regs[p0] if r0 else p0
                b = regs[p1] if r1 else p1
                out = [fn(x, y) for x, y in zip(a, b)]
                regs[instr] = [round_f32(x) for x in out] if f32 else out

        return ex
    f32 = ty.bits == 32
    argf = _fetch_args(specs)

    def ex(vm, regs):
        r = fn(*argf(regs))
        regs[instr] = round_f32(r) if f32 else r

    return ex


def _build_call(instr: Call):
    callee = instr.callee
    name = callee.name
    specs = [_spec(o) for o in instr.operands]
    if not callee.is_declaration:
        argf = _fetch_args(specs)
        if instr.has_lvalue():

            def ex(vm, regs):
                regs[instr] = vm._exec_function(callee, argf(regs))

        else:

            def ex(vm, regs):
                vm._exec_function(callee, argf(regs))

        return ex

    if is_intrinsic_name(name):
        info = get_intrinsic(name)
        kind = info.kind
        if kind == "math":
            return _build_math_call(instr, name, info)
        if kind in ("reduce", "mask-reduce"):
            ret = info.function_type.return_type
            argf = _fetch_args(specs)

            def ex(vm, regs):
                regs[instr] = ops.reduce_intrinsic(name, ret, argf(regs))

            return ex
        argf = _fetch_args(specs)
        if instr.has_lvalue():

            def ex(vm, regs):
                regs[instr] = vm._intrinsic(info, instr, argf(regs))

        else:

            def ex(vm, regs):
                vm._intrinsic(info, instr, argf(regs))

        return ex

    # External call — the VULFI/detector runtime hot path: specialise the
    # common arities so no intermediate argument list is built.
    store = instr.has_lvalue()
    if len(specs) == 3:
        (r0, p0), (r1, p1), (r2, p2) = specs

        def ex(vm, regs):
            ext = vm.externals.get(name)
            if ext is None:
                raise InvalidOperation(f"call to unbound external @{name}")
            out = ext(
                regs[p0] if r0 else p0,
                regs[p1] if r1 else p1,
                regs[p2] if r2 else p2,
            )
            if store:
                regs[instr] = out

        return ex
    argf = _fetch_args(specs)

    def ex(vm, regs):
        ext = vm.externals.get(name)
        if ext is None:
            raise InvalidOperation(f"call to unbound external @{name}")
        out = ext(*argf(regs))
        if store:
            regs[instr] = out

    return ex


_BUILDERS = {
    BinaryOp: _build_binop,
    CompareOp: _build_compare,
    Select: _build_select,
    CastOp: _build_cast,
    GetElementPtr: _build_gep,
    Load: _build_load,
    Store: _build_store,
    Alloca: _build_alloca,
    ExtractElement: _build_extractelement,
    InsertElement: _build_insertelement,
    ShuffleVector: _build_shufflevector,
    FNeg: _build_fneg,
    Call: _build_call,
}


def _decode_step(instr):
    builder = _BUILDERS.get(type(instr))
    if builder is None:
        # Matches the interpreter's lazy behaviour: only raise if executed.
        return _raiser(f"cannot execute opcode {instr.opcode}")
    try:
        return builder(instr)
    except InvalidOperation as exc:
        return _raiser(str(exc))


class DecodedBlock:
    """One basic block, fully resolved for execution.

    Phi tables and the terminator are resolved with the function; the
    per-instruction closures (``steps``) only on the block's first decoded
    execution (:meth:`decode_steps`).  Compiled chains need the former
    alone, so a block that only ever runs compiled never builds closures.

    ``chain`` is the compiled superblock chain headed here
    (:mod:`repro.vm.compile`): a stub that compiles the chain on first
    entry, then the chain itself.  It is ``None`` in plan-less programs,
    which never compile, and for blocks that always run decoded.
    """

    __slots__ = (
        "source",
        "owner",
        "phis",
        "phi_total",
        "phi_scalar",
        "phi_vector",
        "steps",
        "term",
        "chain",
    )

    def __init__(self, source, owner: "DecodedFunction"):
        self.source = source
        self.owner = owner
        # [(phi, {pred_block: (is_reg, payload)})], leading phis only.
        self.phis = []
        self.phi_total = 0
        self.phi_scalar = 0
        self.phi_vector = 0
        # [(ex, is_vector)] for non-phi, non-terminator instructions; None
        # until the block first executes decoded.
        self.steps = None
        # (tag, is_vector, payload) or None for unterminated blocks.
        self.term = None
        self.chain = None

    def decode_steps(self) -> list:
        """Build (once) and return this block's instruction closures."""
        steps = self.steps
        if steps is None:
            steps = self.steps = self.owner._decode_steps(self.source)
        return steps


#: Process-wide decode counters.  ``functions`` increments once per
#: :class:`DecodedFunction` build — tests use it to prove that pool workers
#: decode each module exactly once per process, not once per experiment.
DECODE_EVENTS = {"functions": 0}


class DecodedFunction:
    """A function decoded into :class:`DecodedBlock` records."""

    __slots__ = ("fn", "name", "entry", "blocks", "plan")

    def __init__(self, fn: Function, plan: InjectionPlan | None = None):
        DECODE_EVENTS["functions"] += 1
        self.fn = fn
        self.name = fn.name
        self.plan = plan
        self.blocks = {block: DecodedBlock(block, self) for block in fn.blocks}
        for block, decoded in self.blocks.items():
            self._decode_block(block, decoded)
        self.entry = self.blocks[fn.entry]

    def _decode_block(self, block, decoded: DecodedBlock) -> None:
        instructions = block.instructions
        index = 0
        n = len(instructions)

        # Leading phis evaluate in parallel against the predecessor edge.
        while index < n and isinstance(instructions[index], Phi):
            phi = instructions[index]
            table = {}
            for value, pred in phi.incoming():
                # First edge wins on duplicates, like Phi.incoming_for.
                if pred not in table:
                    table[pred] = _spec(value)
            decoded.phis.append((phi, table))
            decoded.phi_total += 1
            if phi.type.is_vector():
                decoded.phi_vector += 1
            else:
                decoded.phi_scalar += 1
            index += 1

        for instr in instructions[index:]:
            if instr.is_terminator:
                decoded.term = self._decode_terminator(instr)
                break

    def _decode_steps(self, block) -> list:
        plan = self.plan
        steps = []
        for instr in block.instructions[len(self.blocks[block].phis):]:
            if instr.is_terminator:
                break
            ex = None
            if plan is not None:
                ex = _decode_planned_step(instr, plan, self.name)
            if ex is None:
                ex = _decode_step(instr)
            steps.append((ex, instr.is_vector_instruction))
        return steps

    def _decode_terminator(self, instr):
        isvec = instr.is_vector_instruction
        if isinstance(instr, Branch):
            return (T_BR, isvec, self.blocks[instr.target])
        if isinstance(instr, CondBranch):
            r, p = _spec(instr.condition)
            return (
                T_CONDBR,
                isvec,
                (r, p, self.blocks[instr.true_target], self.blocks[instr.false_target]),
            )
        if isinstance(instr, Return):
            rv = instr.return_value
            return (T_RET, isvec, None if rv is None else _spec(rv))
        assert isinstance(instr, Unreachable)
        return (T_UNREACHABLE, isvec, None)


class DecodedProgram:
    """Lazily decoded functions of one module at one version.

    A planned program also gives each function's compilable blocks their
    chain stubs (:func:`repro.vm.compile.install_chains`).
    """

    __slots__ = ("version", "plan", "_functions")

    def __init__(self, module: Module, plan: InjectionPlan | None = None):
        self.version = module.version
        self.plan = plan
        self._functions: dict[Function, DecodedFunction] = {}

    def function(self, fn: Function) -> DecodedFunction:
        decoded = self._functions.get(fn)
        if decoded is None:
            decoded = DecodedFunction(fn, self.plan)
            if self.plan is not None:
                from .compile import install_chains

                install_chains(decoded, self.version)
            self._functions[fn] = decoded
        return decoded


def decoded_program(module: Module, plan: InjectionPlan | None = None) -> DecodedProgram:
    """The module's decode cache, rebuilt whenever its version changes.

    With a ``plan``, the decoded program lives on the plan instead of the
    module: the same pristine module can serve plain execution and any
    number of direct-injection engines (one per site category) without the
    caches trampling each other.
    """
    if plan is not None:
        program = plan._decoded
        if program is None or program.version != module.version:
            program = DecodedProgram(module, plan)
            plan._decoded = program
        return program
    program = getattr(module, "_vm_decoded", None)
    if program is None or program.version != module.version:
        program = DecodedProgram(module)
        module._vm_decoded = program
    return program
