"""Bit-accurate interpreter for the vector IR — the simulated CPU.

Semantics notes (all deliberate, all x86-flavoured, see DESIGN.md):

* ``float`` arithmetic re-rounds every result through IEEE binary32;
* integer division by zero (and ``INT_MIN / -1``) raises
  :class:`~repro.errors.ArithmeticTrap` — the simulated SIGFPE;
* shift counts are masked to the operand width (x86 behaviour) rather than
  producing poison;
* ``fptosi`` of NaN/out-of-range produces ``INT_MIN`` (``cvttss2si``);
* masked vector intrinsics only touch memory in active lanes, so a masked
  load of a partially out-of-bounds cache line does not fault — exactly why
  ISPC's partial-iteration code is safe and why VULFI must respect masks;
* every executed instruction counts toward the dynamic-instruction total
  (Table I) and is classified scalar vs vector (Fig. 10's denominator).

The scalar semantics live in :mod:`repro.vm.ops`; per-instruction dispatch
is pre-compiled by :mod:`repro.vm.decode` into specialised closures, so the
one block loop below only does step accounting and control flow.  A planned
program (direct injection) also carries compiled superblock chains
(:mod:`repro.vm.compile`): the loop runs a block's chain when it has one and
its decoded body otherwise, so chains run exactly when a plan is present.
The decoded program is cached on the module (on the plan, when planned) and
invalidated by IR mutation.

External functions (the VULFI runtime, detector runtime) are bound by name
via :meth:`Interpreter.bind`; unbound declarations trap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import InvalidOperation, StepLimitExceeded
from ..ir.intrinsics import MASK_SIGN, IntrinsicInfo
from ..ir.module import Function, Module
from ..ir.types import Type, VectorType
from .compile import _Edge
from .decode import (
    InjectionPlan,
    T_BR,
    T_CONDBR,
    T_RET,
    T_UNREACHABLE,
    decoded_program,
    unpack_regs,
)
from .memory import Memory
from .ops import sign_active
from .snapshot import ResumePoint, copy_regs

DEFAULT_STEP_LIMIT = 20_000_000


@dataclass
class ExecutionStats:
    """Dynamic execution accounting for one program run."""

    total: int = 0
    scalar: int = 0
    vector: int = 0

    def reset(self) -> None:
        self.total = 0
        self.scalar = 0
        self.vector = 0


class Interpreter:
    """Executes IR functions of one module against a fresh :class:`Memory`.

    With an injection ``plan`` the program runs as compiled superblock
    chains (:mod:`repro.vm.compile`) over the planned decoded blocks;
    without one it runs decoded only and never compiles.
    """

    def __init__(
        self,
        module: Module,
        step_limit: int = DEFAULT_STEP_LIMIT,
        plan: InjectionPlan | None = None,
    ):
        self.module = module
        self.memory = Memory()
        self.step_limit = step_limit
        #: The per-run :class:`~repro.core.runtime.FaultRuntime`, bound by
        #: the injector when a plan is active — the compiled chains read
        #: its dynamic-site counter directly.
        self.fault_runtime = None
        self.stats = ExecutionStats()
        self.externals: dict[str, Callable] = {}
        #: Direct-injection state: the plan folds fault sites into the
        #: decoded closures, which dispatch into ``fault_entries`` — the
        #: per-run :meth:`~repro.core.runtime.FaultRuntime.entries` tuple.
        self.plan = plan
        self.fault_entries: tuple | None = None
        #: Batched span advancers (:meth:`FaultRuntime.spans`) for skipping
        #: whole uninjected site groups in one call.
        self.fault_spans: tuple | None = None
        #: Checkpoint machinery (see :mod:`repro.vm.snapshot`).  The block
        #: hook fires at every *depth-1* block start as
        #: ``hook(vm, decoded, regs, current, prev_block)`` — the injector
        #: installs one to record golden checkpoints or to detect
        #: convergence with them.  ``pending_resume`` is consumed by the
        #: matching top-level :meth:`run` invocation, which then restores
        #: the checkpoint and executes only the suffix.
        self.block_hook: Callable | None = None
        self.pending_resume: ResumePoint | None = None
        #: Index of the current (most recent) top-level :meth:`run` call;
        #: runners that invoke several kernels give each its own index.
        self.current_invocation: int = -1
        self._invocations = 0
        self._depth = 0

    # -- configuration ---------------------------------------------------------

    def bind(self, name: str, fn: Callable) -> None:
        """Bind a host callable to a declared function name."""
        self.externals[name] = fn

    def bind_all(self, bindings: dict[str, Callable]) -> None:
        self.externals.update(bindings)

    # -- public API --------------------------------------------------------------

    def run(self, function: str | Function, args: Sequence) -> object:
        """Execute ``function`` with the given argument values."""
        fn = (
            self.module.get_function(function)
            if isinstance(function, str)
            else function
        )
        if fn.is_declaration:
            raise InvalidOperation(f"cannot run declaration @{fn.name}")
        if len(args) != len(fn.args):
            raise InvalidOperation(
                f"@{fn.name} expects {len(fn.args)} args, got {len(args)}"
            )
        invocation = self._invocations
        self._invocations = invocation + 1
        self.current_invocation = invocation
        # Chains evaluate whole-vector NumPy expressions whose scalar
        # counterparts are silent on overflow/invalid/div-by-zero; suppress
        # the warnings wholesale so semantics (and stderr) match.
        with np.errstate(all="ignore"):
            resume = self.pending_resume
            if resume is not None and resume.invocation == invocation:
                self.pending_resume = None
                return self._resume_function(fn, resume)
            return self._exec_function(fn, list(args))

    # -- main loop ---------------------------------------------------------------------

    def _exec_function(self, fn: Function, args: list):
        decoded = decoded_program(self.module, self.plan).function(fn)
        regs: dict = {}
        for formal, actual in zip(fn.args, args):
            regs[formal] = actual
        return self._exec_blocks(decoded, regs, decoded.entry, None)

    def _resume_function(self, fn: Function, resume: ResumePoint):
        """Re-enter ``fn`` at a recorded checkpoint and run the suffix.

        The checkpoint was captured at a depth-1 block start, *before* that
        block's phis evaluated, so restoring (memory, stats, registers) and
        entering the loop at the saved cursor with the saved predecessor
        edge replays the exact golden continuation.
        """
        checkpoint = resume.checkpoint
        frame = checkpoint.frame
        if frame.function_name != fn.name:
            raise InvalidOperation(
                f"checkpoint resumes @{frame.function_name}, not @{fn.name}"
            )
        decoded = decoded_program(self.module, self.plan).function(fn)
        current = decoded.blocks.get(frame.block)
        if current is None:
            raise InvalidOperation(
                f"checkpoint block is no longer part of @{fn.name}"
            )
        self.memory.restore(checkpoint.memory)
        stats = self.stats
        stats.total = checkpoint.stats_total
        stats.scalar = checkpoint.stats_scalar
        stats.vector = checkpoint.stats_vector
        if resume.on_restore is not None:
            resume.on_restore()
        # The checkpoint's register file is shared by every faulty run that
        # restores it; the appliers mutate vector registers in place, so
        # each resume executes against its own depth-1 copy.  A planned
        # golden recorded it between chains, so it may hold packed vectors.
        return self._exec_blocks(
            decoded,
            copy_regs(frame.regs),
            current,
            frame.prev_block,
            packed=self.plan is not None,
        )

    def _exec_blocks(self, decoded, regs: dict, current, prev_block, packed=False):
        """The block loop.

        A block with a compiled chain runs it: the chain returns an
        :class:`~repro.vm.compile._Edge` (continue at its target), a 1-tuple
        (the function's return value), or ``FALLBACK`` — the head block
        then runs its decoded body here, whose planned closures carry
        injection, trap, and exact step-limit semantics.  Chains may leave
        vectors packed in ``regs`` (``packed``); the decoded body needs
        canonical lists, so it unpacks them first.  The depth-1 block hook
        fires at every block the loop enters, chain heads included, which
        is where checkpoints and convergence checks attach.
        """
        stats = self.stats
        limit = self.step_limit
        fn_name = decoded.name
        depth = self._depth
        self._depth = depth + 1
        hook = self.block_hook if depth == 0 else None

        try:
            while True:
                if hook is not None:
                    hook(self, decoded, regs, current, prev_block)
                    hook = self.block_hook  # hooks may uninstall themselves
                chain = current.chain
                if chain is not None:
                    r = chain(self, regs, prev_block)
                    cls = r.__class__
                    if cls is _Edge:
                        current = r.target
                        prev_block = r.prev
                        packed = True
                        continue
                    if cls is tuple:
                        return r[0]
                    packed = True  # FALLBACK: run this block decoded
                if packed:
                    unpack_regs(regs)
                    packed = False
                phis = current.phis
                if phis:
                    # Phi nodes evaluate in parallel against the predecessor edge.
                    values = []
                    for phi, table in phis:
                        spec = table.get(prev_block)
                        if spec is None:
                            phi.incoming_for(prev_block)  # raises the exact IRError
                        is_reg, payload = spec
                        values.append(regs[payload] if is_reg else payload)
                    for (phi, _), value in zip(phis, values):
                        regs[phi] = value
                    stats.total += current.phi_total
                    stats.scalar += current.phi_scalar
                    stats.vector += current.phi_vector

                steps = current.steps
                if steps is None:
                    steps = current.decode_steps()
                for ex, isvec in steps:
                    stats.total += 1
                    if stats.total > limit:
                        raise StepLimitExceeded(
                            f"@{fn_name}: exceeded {limit} dynamic instructions"
                        )
                    if isvec:
                        stats.vector += 1
                    else:
                        stats.scalar += 1
                    ex(self, regs)

                term = current.term
                if term is None:
                    raise InvalidOperation(
                        f"@{fn_name}:{current.source.name}: fell off the end of a block"
                    )
                tag, isvec, payload = term
                stats.total += 1
                if stats.total > limit:
                    raise StepLimitExceeded(
                        f"@{fn_name}: exceeded {limit} dynamic instructions"
                    )
                if isvec:
                    stats.vector += 1
                else:
                    stats.scalar += 1

                if tag == T_BR:
                    prev_block, current = current.source, payload
                elif tag == T_CONDBR:
                    is_reg, cond, true_block, false_block = payload
                    cv = regs[cond] if is_reg else cond
                    prev_block = current.source
                    current = true_block if cv else false_block
                elif tag == T_RET:
                    if payload is None:
                        return None
                    is_reg, value = payload
                    return regs[value] if is_reg else value
                else:
                    assert tag == T_UNREACHABLE
                    raise InvalidOperation(f"@{fn_name}: reached 'unreachable'")
        finally:
            self._depth = depth

    # -- memory intrinsics --------------------------------------------------------------
    #
    # Math and reduction intrinsics are pure and pre-compiled by the decode
    # layer; only the memory-touching kinds need interpreter state.

    def _intrinsic(self, info: IntrinsicInfo, instr, args: list):
        kind = info.kind
        mem = self.memory
        if kind == "maskload":
            data_ty = info.function_type.return_type
            assert isinstance(data_ty, VectorType)
            elem = data_ty.element
            stride = elem.store_size()
            addr = args[0]
            mask = args[1]
            mask_ty = info.function_type.params[info.mask_index]
            active = self._active_lanes(mask, mask_ty, info.mask_convention)
            if info.mask_convention == MASK_SIGN:
                passthru = [0.0 if elem.is_float() else 0] * data_ty.length
            else:
                passthru = list(args[2])
            out = []
            for i in range(data_ty.length):
                if active[i]:
                    out.append(mem.read_scalar(elem, addr + i * stride))
                else:
                    out.append(passthru[i])
            return out
        if kind == "maskstore":
            data_ty = info.function_type.params[info.stored_value_index]
            assert isinstance(data_ty, VectorType)
            elem = data_ty.element
            stride = elem.store_size()
            mask_ty = info.function_type.params[info.mask_index]
            active = self._active_lanes(
                args[info.mask_index], mask_ty, info.mask_convention
            )
            if info.mask_convention == MASK_SIGN:
                addr = args[0]
                data = args[2]
            else:
                data = args[0]
                addr = args[1]
            for i in range(data_ty.length):
                if active[i]:
                    mem.write_scalar(elem, addr + i * stride, data[i])
            return None
        if kind == "gather":
            data_ty = info.function_type.return_type
            assert isinstance(data_ty, VectorType)
            elem = data_ty.element
            ptrs, mask, passthru = args
            out = []
            for i in range(data_ty.length):
                out.append(
                    mem.read_scalar(elem, ptrs[i]) if mask[i] else passthru[i]
                )
            return out
        if kind == "scatter":
            data, ptrs, mask = args
            data_ty = info.function_type.params[0]
            assert isinstance(data_ty, VectorType)
            elem = data_ty.element
            for i in range(data_ty.length):
                if mask[i]:
                    mem.write_scalar(elem, ptrs[i], data[i])
            return None
        raise InvalidOperation(f"unhandled intrinsic kind {kind}")  # pragma: no cover

    @staticmethod
    def _active_lanes(mask, mask_ty: Type, convention: str | None) -> list[bool]:
        if convention == MASK_SIGN:
            elem = mask_ty.scalar_type
            return [sign_active(m, elem) for m in mask]
        return [bool(m) for m in mask]
