"""Block-compiled execution engine: threaded-code superblocks.

The decoded interpreter (:mod:`repro.vm.decode`) already hoists operand
resolution and handler dispatch out of the dynamic loop, but every dynamic
instruction still pays a closure call, per-instruction step accounting, and
a dictionary store.  This module compiles each basic block — and each
*superblock*, the chain of blocks reachable through unconditional branches —
into one specialized Python function, generated as source and
``exec``-compiled once per module version:

* constant operands are folded into the generated source;
* register reads become local variables after the first load (defs are
  still written through to the register dict, so checkpoints, convergence
  comparison, and decoded fallback always see the exact interpreter state);
* per-class handlers are inlined (f32 arithmetic, signed compares, geps,
  masked AVX/SSE intrinsics, ...), with vector lane loops unrolled up to
  width :data:`UNROLL_MAX`;
* step accounting is batched: one compile-time-constant precheck per chain,
  one commit per chain exit, and an extra commit immediately before every
  instruction that can trap, so stats are bit-exact at every trap;
* **batched vector tier**: vector registers whose element type has an
  exact ndarray dtype (:func:`repro.vm.bits.np_dtype`) live as packed
  NumPy arrays, and whole-vector binops, compares, casts, selects, fnegs,
  loads/stores, and masked loads/stores compile to single NumPy calls
  (:mod:`repro.vm.ops` ``*_bulk`` evaluators,
  :meth:`~repro.vm.memory.Memory.packed_reader`/``packed_writer``).
  Trapping integer ops and types with no bulk kernel keep the unrolled
  per-lane code.  The
  canonical list representation remains the interface everywhere else: any
  read in a lane-wise context unpacks via ``tolist`` (an exact widening —
  see vm/bits.py), decoded fallback canonicalizes the whole register file
  first (:func:`repro.vm.decode.unpack_regs`), and convergence comparison
  understands both representations (:mod:`repro.vm.snapshot`).  Masked
  fault-site groups count active lanes with one vectorized reduction
  (``PlannedSite.active_bulk_fn``); dynamic-site increments and count-mode
  width-tape appends coalesce into one update per commit, which keeps the
  tape bit-exact at every trap point (every trap is preceded by a commit);
* chains whose final conditional branch loops back to their own head are
  compiled as an in-chain ``while`` loop: the back edge re-evaluates the
  head phis along the statically-known latch edge and only returns to the
  driver when a block hook is installed, the step budget nears exhaustion,
  or (inject variant) the next iteration's site span could contain the
  target — at which point the driver re-enters through the ordinary edge,
  reproducing today's per-iteration behaviour exactly.

Injection stays bit-identical to both existing engines.  Every chain that
bears fault sites is emitted in two variants:

* the **count** variant advances the dynamic-site counter (and the recorded
  site widths) with straight-line arithmetic — no entry-point calls at all;
* the **inject** variant prechecks the whole chain's maximum site span
  against the run's target indices and *falls back to the decoded
  interpreter* for the one block whose span contains the target — the
  decoded planned appliers then reproduce the spliced-chain injection
  (value, RNG draw, record, trap behaviour) bit for bit.

The same fallback handles the near-step-limit case (the decoded loop raises
at the exact instruction the budget crosses) and blocks that call defined
functions.  Checkpoint tapes and the convergence hook attach at chain
heads: golden (count) and faulty (inject) runs compile to the *same* chain
structure, so their depth-1 hook points coincide.

Compiled programs are cached like decoded ones: on ``plan._compiled`` when
an :class:`~repro.vm.decode.InjectionPlan` is present, else on
``module._vm_compiled``, both invalidated by :attr:`Module.version`.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidOperation, StepLimitExceeded
from ..ir.instructions import (
    Alloca,
    BinaryOp,
    Call,
    CastOp,
    CompareOp,
    ExtractElement,
    FNeg,
    GetElementPtr,
    InsertElement,
    Load,
    Phi,
    Select,
    ShuffleVector,
    Store,
)
from ..ir.intrinsics import MASK_I1, MASK_SIGN, get_intrinsic, is_intrinsic_name
from ..ir.module import Function, Module
from ..ir.types import FloatType, IntType, PointerType, VectorType
from . import ops
from .bits import (
    as_lanes,
    as_packed,
    np_dtype,
    quiet_nan_f32,
    round_f32,
    wrap_int,
)
from .decode import (
    InjectionPlan,
    T_BR,
    T_CONDBR,
    T_RET,
    T_UNREACHABLE,
    _decode_step,
    _spec,
    decoded_program,
)

#: Maximum vector width whose lane loops are unrolled in generated source
#: (covers the SSE/AVX widths 4 and 8 the workloads use).
UNROLL_MAX = 8

#: Maximum number of basic blocks folded into one superblock chain.
CHAIN_MAX_BLOCKS = 8

#: Process-wide compile counters, mirroring ``DECODE_EVENTS``: ``functions``
#: increments once per :class:`CompiledFunction` build.  Tests use it to
#: prove pool workers compile each module exactly once per process and that
#: IR mutation (a ``Module.version`` bump) forces a recompile.
COMPILE_EVENTS = {"functions": 0}

#: Integer opcodes that raise :class:`~repro.errors.ArithmeticTrap`.
_TRAP_INT_OPS = frozenset({"sdiv", "srem", "udiv", "urem"})

_SIGNED_ICMP_SYMBOL = {
    "eq": "==",
    "ne": "!=",
    "slt": "<",
    "sle": "<=",
    "sgt": ">",
    "sge": ">=",
}

_MEMORY_INTRINSICS = ("maskload", "maskstore", "gather", "scatter")


class _Fallback:
    """Singleton sentinel: 'execute my head block through the decoded
    interpreter instead' (target site in span, or step budget nearly
    exhausted)."""

    __slots__ = ()

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<fallback>"


FALLBACK = _Fallback()


class _Edge:
    """A pre-resolved control-flow edge returned by chain closures: the
    target block's entry plus the phi predecessor edge."""

    __slots__ = ("entry", "prev")

    def __init__(self, entry: "CompiledEntry", prev):
        self.entry = entry
        self.prev = prev


class CompiledEntry:
    """One basic block's compiled entry point.

    ``fn_count`` / ``fn_inject`` execute the superblock chain *starting* at
    this block (``None`` for blocks that always run decoded — those calling
    defined functions).  Every block gets an entry, so checkpoints can
    resume and decoded fallback can continue at any block boundary.
    """

    __slots__ = ("source", "dblock", "fn_count", "fn_inject")

    def __init__(self, source, dblock):
        self.source = source
        self.dblock = dblock
        self.fn_count = None
        self.fn_inject = None


_API_WIDTHS: tuple | None = None


def _entry_widths() -> tuple:
    """Per-entry-point value bit widths, indexed like ``ENTRY_INDEX``.

    Imported lazily from :mod:`repro.core.runtime` so the vm layer carries
    no load-time dependency on the injection core (mirrors how
    ``PlannedSite.entry_index`` already encodes the same table).
    """
    global _API_WIDTHS
    if _API_WIDTHS is None:
        from ..core.runtime import API

        _API_WIDTHS = tuple(bits for (_ty, bits, _isf) in API.values())
    return _API_WIDTHS


def _phi_err(phi, prev):
    """Raise the exact missing-phi-edge error the interpreter would."""
    phi.incoming_for(prev)  # raises IRError
    raise InvalidOperation(  # pragma: no cover - incoming_for always raises
        f"phi {phi!r} resolved no edge for {prev!r}"
    )


# -- single-block decoded fallback ---------------------------------------------


def exec_decoded_block(vm, dfn, dblock, regs, prev_source):
    """Execute exactly one decoded block with the interpreter's accounting.

    A verbatim single-block replica of ``Interpreter._exec_blocks``'s inner
    loop — per-instruction charges, the exact step-limit raise point, phi
    parallel evaluation, planned injection appliers — used for chains that
    bailed out (site in span, budget nearly exhausted) and for blocks that
    are never compiled.  Returns ``(next_source_block, prev_source_block)``
    to continue, or ``(None, return_value)`` on ``ret``.
    """
    stats = vm.stats
    limit = vm.step_limit
    phis = dblock.phis
    if phis:
        values = []
        for phi, table in phis:
            spec = table.get(prev_source)
            if spec is None:
                phi.incoming_for(prev_source)  # raises the exact IRError
            is_reg, payload = spec
            values.append(regs[payload] if is_reg else payload)
        for (phi, _), value in zip(phis, values):
            regs[phi] = value
        stats.total += dblock.phi_total
        stats.scalar += dblock.phi_scalar
        stats.vector += dblock.phi_vector
    fn_name = dfn.name
    for ex, isvec, _opcode in dblock.steps:
        stats.total += 1
        if stats.total > limit:
            raise StepLimitExceeded(
                f"@{fn_name}: exceeded {limit} dynamic instructions"
            )
        if isvec:
            stats.vector += 1
        else:
            stats.scalar += 1
        ex(vm, regs)
    term = dblock.term
    if term is None:
        raise InvalidOperation(
            f"@{fn_name}:{dblock.source.name}: fell off the end of a block"
        )
    tag, isvec, _opcode, payload = term
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
        return payload.source, dblock.source
    if tag == T_CONDBR:
        is_reg, cond, true_block, false_block = payload
        cv = regs[cond] if is_reg else cond
        return (true_block if cv else false_block).source, dblock.source
    if tag == T_RET:
        if payload is None:
            return None, None
        is_reg, value = payload
        return None, (regs[value] if is_reg else value)
    assert tag == T_UNREACHABLE
    raise InvalidOperation(f"@{fn_name}: reached 'unreachable'")


# -- source generation ---------------------------------------------------------


class _FunctionCompiler:
    """Generates and ``exec``-compiles all chain closures of one function."""

    def __init__(self, cfn: "CompiledFunction", dfn, plan: InjectionPlan | None):
        self.cfn = cfn
        self.dfn = dfn
        self.fn = dfn.fn
        self.plan = plan
        self.entries = cfn.entries
        self.sources: list[str] = []
        self.counter = 0
        self._value_names: dict = {}
        self._block_names: dict = {}
        self._edge_names: dict = {}
        self._dtype_names: dict = {}
        self._packed_consts: dict = {}
        self.env = {
            "__builtins__": {},
            "_FB": FALLBACK,
            "_rf": round_f32,
            "_wi": wrap_int,
            "_IO": InvalidOperation,
            "_phi_err": _phi_err,
            "_ul": as_lanes,
            "_pk": as_packed,
            "_WH": np.where,
            "_SB": np.signbit,
            "_QN": quiet_nan_f32,
            "int": int,
            "list": list,
            "zip": zip,
        }

    # -- naming ----------------------------------------------------------------

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"_{prefix}{self.counter}"

    def bind(self, obj, prefix: str) -> str:
        name = self.fresh(prefix)
        self.env[name] = obj
        return name

    def value_key(self, value) -> str:
        """Env name of an IR value used as a register-dict key."""
        name = self._value_names.get(value)
        if name is None:
            name = self.bind(value, "i")
            self._value_names[value] = name
        return name

    def block_name(self, block) -> str:
        name = self._block_names.get(block)
        if name is None:
            name = self.bind(block, "b")
            self._block_names[block] = name
        return name

    def edge_name(self, target_block, prev_block) -> str:
        key = (target_block, prev_block)
        name = self._edge_names.get(key)
        if name is None:
            name = self.bind(_Edge(self.entries[target_block], prev_block), "e")
            self._edge_names[key] = name
        return name

    def dtype_name(self, dtype) -> str:
        name = self._dtype_names.get(dtype)
        if name is None:
            name = self.bind(dtype, "dt")
            self._dtype_names[dtype] = name
        return name

    def packed_const(self, lanes, dtype) -> str:
        """Env name of a pre-packed constant-vector ndarray.

        Keyed by dtype plus ``repr`` of the lane list — never by value
        equality, which would collide -0.0 with 0.0.  The bound array is
        shared read-only: nothing in the generated code or the bulk
        evaluators mutates operand arrays in place.
        """
        key = (str(np.dtype(dtype)), repr(lanes))
        name = self._packed_consts.get(key)
        if name is None:
            name = self.bind(np.array(lanes, dtype), "kv")
            self._packed_consts[key] = name
        return name

    # -- chain formation -------------------------------------------------------

    def _compilable(self, block) -> bool:
        """Blocks calling defined functions always run decoded: a nested
        compiled frame would need its own driver anyway, and recursion
        through generated source buys nothing."""
        for instr in block.instructions:
            if isinstance(instr, Call) and not instr.callee.is_declaration:
                return False
        return True

    def _chain_for(self, head) -> list:
        chain = [head]
        seen = {head}
        while len(chain) < CHAIN_MAX_BLOCKS:
            term = self.dfn.blocks[chain[-1]].term
            if term is None or term[0] != T_BR:
                break
            nxt = term[3].source
            if nxt in seen or not self._compilable(nxt):
                break
            chain.append(nxt)
            seen.add(nxt)
        return chain

    def _chain_has_sites(self, chain) -> bool:
        plan = self.plan
        if plan is None:
            return False
        for block in chain:
            for instr in block.instructions:
                if instr in plan.lvalue or instr in plan.store:
                    return True
        return False

    # -- build -----------------------------------------------------------------

    def build(self) -> None:
        emitted: list[tuple] = []
        for block in self.fn.blocks:
            if not self._compilable(block):
                continue  # entry stays fn_count = fn_inject = None
            chain = self._chain_for(block)
            if self._chain_has_sites(chain):
                fi = self._emit_chain(block, chain, "inject")
                fc = self._emit_chain(block, chain, "count")
            else:
                fi = fc = self._emit_chain(block, chain, None)
            emitted.append((block, fi, fc))
        if not emitted:
            return
        source = "\n".join(self.sources)
        code = compile(
            source, f"<repro-compiled @{self.fn.name} v{self.cfn.version}>", "exec"
        )
        exec(code, self.env)
        for block, fi, fc in emitted:
            entry = self.entries[block]
            entry.fn_count = self.env[fc]
            entry.fn_inject = self.env[fi]

    def _emit_chain(self, head, chain, mode) -> str:
        name = self.fresh("c")
        em = _ChainEmitter(self, mode)
        # Self-loop chains (final condbr with exactly one successor equal to
        # the chain head) compile to an in-chain ``while`` loop; the head
        # phis dispatch dynamically once, then re-evaluate along the static
        # latch edge each iteration (see emit_term / emit_loop_phis).
        dterm = self.dfn.blocks[chain[-1]].term
        loop = False
        if dterm is not None and dterm[0] == T_CONDBR:
            _ir, _c, tb, fb = dterm[3]
            loop = (tb.source is head) != (fb.source is head)
        if loop:
            em.loop_head = head
            em.loop_dblock = self.dfn.blocks[head]
            em.loop_latch = chain[-1]
            defs = set()
            for block in chain:
                defs.update(block.instructions)
                defs.update(p for p, _t in self.dfn.blocks[block].phis)
            em.chain_defs = defs
        for j, block in enumerate(chain):
            dblock = self.dfn.blocks[block]
            if j == 0:
                em.emit_head_phis(dblock)
                if loop:
                    em.line("while True:")
                    em.base = 1
                    # Defer in-loop register writes: pre-register the head
                    # phis (their regs entries go stale each iteration once
                    # the back edge reassigns the temps).
                    em.loop_regs = {}
                    for phi, _table in dblock.phis:
                        target = (
                            em.vlocals.get(phi)
                            if em._phi_dtype(phi) is not None
                            else em.locals.get(phi)
                        )
                        if target is not None:
                            em.loop_regs[self.value_key(phi)] = target
            else:
                em.emit_interior_phis(dblock, chain[j - 1])
            em.emit_block_body(block, dblock, last=(j == len(chain) - 1))
        # Prologue: prechecks, then loads of everything loop-invariant
        # (stats fields, step limit, hook, runtime attrs, memory accessors,
        # external register reads).  The body runs under try/finally — the
        # finally writes the running locals back exactly once per call, on
        # returns and traps alike, so observable state at every escape
        # point matches the per-site attribute writes this replaces.
        prologue = [f"def {name}(vm, regs, prev):"]
        prologue.append("    stats = vm.stats")
        prologue.append("    _st = stats.total")
        prologue.append("    _sl = vm.step_limit")
        prologue.append(f"    if _st + {em.charged_total} > _sl:")
        prologue.append("        return _FB")
        prologue.append("    _ss = stats.scalar")
        prologue.append("    _sv = stats.vector")
        if mode is not None:
            prologue.append("    rt = vm.fault_runtime")
            prologue.append("    _dc = rt.dynamic_count")
            if mode == "inject":
                if loop:
                    prologue.append("    _mt = rt.max_target")
                    prologue.append("    _sh = rt.span_hits")
                    prologue.append(
                        f"    if _dc < _mt and _sh(_dc, _dc + {em.max_sites}):"
                    )
                else:
                    prologue.append(
                        f"    if _dc < rt.max_target and "
                        f"rt.span_hits(_dc, _dc + {em.max_sites}):"
                    )
                prologue.append("        return _FB")
            else:
                prologue.append("    _ws = rt.site_widths")
        if loop:
            prologue.append("    _bh = vm.block_hook")
        for hoist in em.hoists:
            prologue.append("    " + hoist)
        prologue.append("    try:")
        body = ["    " + text for text in em.lines]
        epilogue = [
            "    finally:",
            "        stats.total = _st",
            "        stats.scalar = _ss",
            "        stats.vector = _sv",
        ]
        if mode is not None:
            epilogue.append("        rt.dynamic_count = _dc")
            if mode == "count":
                epilogue.append(
                    "        if rt.checkpoint_interval is not None "
                    "and _dc >= rt._next_checkpoint:"
                )
                epilogue.append("            rt.checkpoint_pending = True")
        self.sources.append("\n".join(prologue + body + epilogue) + "\n")
        return name


class _ChainEmitter:
    """Emits the body of one chain closure (one variant)."""

    def __init__(self, fc: _FunctionCompiler, mode):
        self.fc = fc
        self.mode = mode  # None (no sites) | "count" | "inject"
        self.lines: list[str] = []
        self.locals: dict = {}
        # Packed-representation locals: IR value -> ndarray-holding local.
        # A value may appear in both caches (the two representations of the
        # same bits); neither is ever mutated in place, so they stay
        # consistent for the lifetime of the chain invocation.
        self.vlocals: dict = {}
        self.lcount = 0
        # Step accounting batched since the previous commit.
        self.pending = [0, 0, 0]
        # Whole-chain charge (the prologue precheck constant).
        self.charged_total = 0
        self.max_sites = 0
        # Dynamic-site counts / count-mode width bytes coalesced since the
        # previous commit (flushed in tape order at every commit, which
        # precedes every trap point — so the tape at any trap is exact).
        self.pending_sites = 0
        self.pending_widths = b""
        self._mem_name = None
        self._packed_mems: dict = {}
        # Unknown-representation locals (list OR ndarray at run time, e.g.
        # a scalar select between vector registers inside a loop): reads
        # normalize through _ul/_pk, which accept both.
        self.ulocals: dict = {}
        # Prologue-level hoists (memory object, bulk accessors, reads of
        # registers defined outside the chain): emitted once per chain
        # call, ahead of any in-chain loop.
        self.hoists: list[str] = []
        # In-chain loop state (set by _emit_chain for self-loop chains).
        self.base = 0
        self.loop_head = None
        self.loop_dblock = None
        self.loop_latch = None
        # Inside an in-chain loop, register-dict writes are deferred: defs
        # land in locals only, and this key-expr -> local map is flushed to
        # ``regs`` immediately before every in-loop return (the only points
        # where control can leave the chain with the registers observable).
        # Exceptions (traps) abandon the run, so they need no flush.
        self.loop_regs: dict | None = None
        # Every register this chain defines (instructions and phis of all
        # chain blocks, precomputed before emission).  Reads of these must
        # never be hoisted to the prologue: a use can precede its def in
        # emission order (an interior-block phi feeding the loop head
        # through the back edge), so "not cached in locals yet" does not
        # imply loop-invariant.
        self.chain_defs: set = frozenset()

    # -- low-level emission ----------------------------------------------------

    def line(self, text: str, indent: int = 1) -> None:
        self.lines.append("    " * (indent + self.base) + text)

    def fresh_local(self) -> str:
        self.lcount += 1
        return f"v{self.lcount}"

    def pending_add(self, isvec: bool, total: int = 1) -> None:
        self.pending[0] += total
        if isvec:
            self.pending[2] += total
        else:
            self.pending[1] += total
        self.charged_total += total

    def pending_add_tax(self, group) -> None:
        d0 = group[0]
        n = len(group)
        self.pending[0] += d0.tax_total * n
        self.pending[1] += d0.tax_scalar * n
        self.pending[2] += d0.tax_vector * n
        self.charged_total += d0.tax_total * n

    def flush_sites(self) -> None:
        """Emit the coalesced dynamic-site bookkeeping accumulated since the
        previous flush: one ``_dc`` increment and (count mode) one tape
        extend, in site order."""
        if not self.pending_sites and not self.pending_widths:
            return
        if self.pending_sites:
            self.line(f"_dc += {self.pending_sites}")
        if self.mode == "count" and self.pending_widths:
            wb = self.fc.bind(self.pending_widths, "w")
            self.line(f"_ws.extend({wb})")
        self.pending_sites = 0
        self.pending_widths = b""

    def commit(self) -> None:
        """Flush all pending charges into the running locals.

        ``_st``/``_ss``/``_sv`` (and ``_dc``) are chain-locals; the real
        ``stats``/runtime attributes are written back exactly once per
        call, in the chain's ``finally`` — which runs on every return
        *and* on every trap, so observable state at any escape point is
        bit-identical to the per-attribute writes this replaces."""
        self.flush_sites()
        t, s, v = self.pending
        if t:
            self.line(f"_st += {t}")
        if s:
            self.line(f"_ss += {s}")
        if v:
            self.line(f"_sv += {v}")
        self.pending = [0, 0, 0]

    def emit_exits(self) -> None:
        # Runtime/stats write-back now lives in the chain's ``finally``;
        # a return point only needs the pending charges committed.
        self.commit()

    def emit_regs_flush(self, indent: int = 1) -> None:
        """Write loop-deferred register updates back to ``regs`` — emitted
        before every in-loop return, so the register dict is canonical
        exactly when control can leave the chain."""
        for key, name in self.loop_regs.items():
            self.line(f"regs[{key}] = {name}", indent)

    def memref(self) -> str:
        if self._mem_name is None:
            self._mem_name = "mem"
            self.hoists.append("mem = vm.memory")
        return self._mem_name

    # -- operand expressions ---------------------------------------------------

    def const_expr(self, payload) -> str:
        if type(payload) is int:
            return repr(payload) if payload >= 0 else f"({payload!r})"
        if type(payload) is float:
            if payload == payload and payload not in (math.inf, -math.inf):
                return f"({payload!r})"
        return self.fc.bind(payload, "k")

    def rd(self, value) -> str:
        """Read an operand in canonical (list/scalar) representation,
        caching register loads in a chain-local."""
        is_reg, payload = _spec(value)
        if not is_reg:
            return self.const_expr(payload)
        return self.rd_reg(payload)

    def _emit_reg_load(self, text: str, payload) -> None:
        """Emit a ``regs`` load line — hoisted to the chain prologue when
        inside an in-chain loop.  Registers the chain never defines cannot
        change during one call, so those loads are loop-invariant.  Reads
        of the chain's own defs stay in place: a use can precede its def in
        emission order (an interior-block phi feeding the loop head through
        the back edge), and decoded closures write ``regs`` directly."""
        if self.loop_regs is not None and payload not in self.chain_defs:
            self.hoists.append(text)
        else:
            self.line(text)

    def rd_reg(self, payload) -> str:
        """Canonical read of one register, unpacking packed slots."""
        name = self.locals.get(payload)
        if name is None:
            name = self.fresh_local()
            vname = self.vlocals.get(payload)
            uname = self.ulocals.get(payload)
            if vname is not None:
                self.line(f"{name} = {vname}.tolist()")
            elif uname is not None:
                self.line(f"{name} = _ul({uname})")
            elif isinstance(payload.type, VectorType):
                # The register may hold a packed slot left by an earlier
                # chain; _ul is a list passthrough otherwise.
                self._emit_reg_load(
                    f"{name} = _ul(regs[{self.fc.value_key(payload)}])",
                    payload,
                )
            else:
                self._emit_reg_load(
                    f"{name} = regs[{self.fc.value_key(payload)}]", payload
                )
            self.locals[payload] = name
        return name

    def rd_vec(self, value, dtype) -> str:
        """Read a vector operand in packed representation, caching the
        ndarray in a chain-local (register lists pack on the spot)."""
        is_reg, payload = _spec(value)
        if not is_reg:
            return self.fc.packed_const(payload, dtype)
        name = self.vlocals.get(payload)
        if name is None:
            name = self.fresh_local()
            lname = self.locals.get(payload)
            if lname is None:
                lname = self.ulocals.get(payload)
            dtn = self.fc.dtype_name(dtype)
            if lname is not None:
                self.line(f"{name} = _pk({lname}, {dtn})")
            else:
                self._emit_reg_load(
                    f"{name} = _pk(regs[{self.fc.value_key(payload)}], {dtn})",
                    payload,
                )
            self.vlocals[payload] = name
        return name

    def vec_expr(self, spec, dtype) -> str:
        """Inline packed expression for a phi edge: no lines emitted (phi
        dispatch branches cannot host hoisting loads), no caching."""
        is_reg, payload = spec
        if not is_reg:
            return self.fc.packed_const(payload, dtype)
        name = self.vlocals.get(payload)
        if name is not None:
            return name
        lname = self.locals.get(payload)
        if lname is None:
            lname = self.ulocals.get(payload)
        src = (
            lname if lname is not None else f"regs[{self.fc.value_key(payload)}]"
        )
        return f"_pk({src}, {self.fc.dtype_name(dtype)})"

    def rd_raw(self, value) -> str:
        """Read an operand without hoisting — for lazily-evaluated contexts
        (select arms, phi edges) that must not load registers eagerly."""
        is_reg, payload = _spec(value)
        if not is_reg:
            return self.const_expr(payload)
        return self._raw_reg(payload)

    def rd_spec_raw(self, spec) -> str:
        is_reg, payload = spec
        if not is_reg:
            return self.const_expr(payload)
        return self._raw_reg(payload)

    def _raw_reg(self, payload) -> str:
        name = self.locals.get(payload)
        if name is not None:
            return name
        uname = self.ulocals.get(payload)
        if uname is not None:
            return f"_ul({uname})"
        return f"regs[{self.fc.value_key(payload)}]"

    def rd_lane(self, value, lane: int) -> str:
        is_reg, payload = _spec(value)
        if not is_reg and type(payload) is list:
            return self.const_expr(payload[lane])
        return f"{self.rd(value)}[{lane}]"

    def store_def(self, instr, expr: str) -> str:
        name = self.fresh_local()
        key = self.fc.value_key(instr)
        if self.loop_regs is not None:
            self.line(f"{name} = {expr}")
            self.loop_regs[key] = name
        else:
            self.line(f"regs[{key}] = {name} = {expr}")
        self.locals[instr] = name
        return name

    def store_def_packed(self, instr, expr: str) -> str:
        """Write a packed (ndarray) def through to the register dict."""
        name = self.fresh_local()
        key = self.fc.value_key(instr)
        if self.loop_regs is not None:
            self.line(f"{name} = {expr}")
            self.loop_regs[key] = name
        else:
            self.line(f"regs[{key}] = {name} = {expr}")
        self.vlocals[instr] = name
        return name

    def store_def_unknown(self, instr, expr: str) -> None:
        """Write a def whose representation is unknown at compile time
        (e.g. a scalar select between vector registers) — uncached outside
        loops (later reads re-fetch through regs and normalize); inside a
        loop it lands in a deferred local tracked as unknown-rep."""
        key = self.fc.value_key(instr)
        if self.loop_regs is not None:
            name = self.fresh_local()
            self.line(f"{name} = {expr}")
            self.loop_regs[key] = name
            self.ulocals[instr] = name
        else:
            self.line(f"regs[{key}] = {expr}")

    def packed_mem_ref(self, kind: str, ty) -> str:
        """Chain-local holding a memoized bulk memory accessor.

        Hoisted to the chain prologue (like ``mem`` itself), so an in-chain
        loop resolves each accessor once per call, not per iteration.
        """
        key = (kind, ty)
        name = self._packed_mems.get(key)
        if name is None:
            mem = self.memref()
            name = self.fresh_local()
            tn = self.fc.bind(ty, "t")
            if kind == "writer_raw":
                self.hoists.append(
                    f"{name} = {mem}.packed_writer({tn}, quiet=False)"
                )
            else:
                self.hoists.append(f"{name} = {mem}.packed_{kind}({tn})")
            self._packed_mems[key] = name
        return name

    # -- phis ------------------------------------------------------------------

    def _phi_dtype(self, phi):
        """The packed dtype a phi normalizes to, or ``None`` to stay
        canonical.  Normalizing batchable vector phis at every edge keeps
        the phi's representation statically known to both caches."""
        ty = phi.type
        if not isinstance(ty, VectorType):
            return None
        return np_dtype(ty.element)

    def _phi_edge_expr(self, phi, spec) -> str:
        dt = self._phi_dtype(phi)
        if dt is not None:
            return self.vec_expr(spec, dt)
        return self.rd_spec_raw(spec)

    def _cache_phi(self, phi, tmp) -> None:
        if self._phi_dtype(phi) is not None:
            self.vlocals[phi] = tmp
        else:
            self.locals[phi] = tmp

    def emit_head_phis(self, dblock) -> None:
        """Head-block phis dispatch on the dynamic ``prev`` edge; parallel
        semantics via per-phi temporaries assigned after all reads."""
        phis = dblock.phis
        if not phis:
            return
        temps = [self.fresh_local() for _ in phis]
        order: list = []
        for _phi, table in phis:
            for pred in table:
                if pred not in order:
                    order.append(pred)
        first_phi = self.fc.bind(phis[0][0], "ph")
        if not order:
            self.line(f"_phi_err({first_phi}, prev)")
        else:
            kw = "if"
            for pred in order:
                self.line(f"{kw} prev is {self.fc.block_name(pred)}:")
                kw = "elif"
                for (phi, table), tmp in zip(phis, temps):
                    spec = table.get(pred)
                    if spec is None:
                        # The interpreter raises at the first phi missing
                        # this edge, after evaluating the earlier phis.
                        self.line(
                            f"_phi_err({self.fc.bind(phi, 'ph')}, "
                            f"{self.fc.block_name(pred)})",
                            2,
                        )
                        break
                    self.line(f"{tmp} = {self._phi_edge_expr(phi, spec)}", 2)
            self.line("else:")
            self.line(f"_phi_err({first_phi}, prev)", 2)
            for (phi, _table), tmp in zip(phis, temps):
                self.line(f"regs[{self.fc.value_key(phi)}] = {tmp}")
                self._cache_phi(phi, tmp)
        self._charge_phis(dblock)

    def emit_interior_phis(self, dblock, pred) -> None:
        """Interior chain blocks enter through one statically-known edge."""
        phis = dblock.phis
        if not phis:
            return
        temps = []
        for phi, table in phis:
            spec = table.get(pred)
            if spec is None:
                self.line(
                    f"_phi_err({self.fc.bind(phi, 'ph')}, "
                    f"{self.fc.block_name(pred)})"
                )
                break
            tmp = self.fresh_local()
            # No caching: a phi may read another phi's *pre-block* value.
            self.line(f"{tmp} = {self._phi_edge_expr(phi, spec)}")
            temps.append((phi, tmp))
        for phi, tmp in temps:
            self.line(f"regs[{self.fc.value_key(phi)}] = {tmp}")
            self._cache_phi(phi, tmp)
        self._charge_phis(dblock)

    def emit_loop_phis(self, dblock, pred) -> None:
        """Re-evaluate the head block's phis along a compiled-in back edge.

        Reassigns the *existing* head-phi temps (the loop body above reads
        those names), so after this the next iteration of the ``while`` sees
        the latch-edge values.  No charging: the head-phi charge is already
        part of the chain's per-iteration pending cycle.
        """
        phis = dblock.phis
        if not phis:
            return
        phi_set = {phi for phi, _ in phis}
        items = []
        for phi, table in phis:
            spec = table.get(pred)
            if spec is None:
                self.line(
                    f"_phi_err({self.fc.bind(phi, 'ph')}, "
                    f"{self.fc.block_name(pred)})"
                )
                return
            target = (
                self.vlocals.get(phi)
                if self._phi_dtype(phi) is not None
                else self.locals.get(phi)
            )
            if target is None:
                # The head dispatch raised unconditionally (no incoming
                # edges at all): the loop body is dead code.
                return
            items.append((phi, spec, target))
        # Parallel semantics: go through fresh intermediates only when some
        # phi reads a sibling phi of the same block.
        if len(items) > 1 and any(
            spec[0] and spec[1] in phi_set for _phi, spec, _t in items
        ):
            staged = []
            for phi, spec, target in items:
                t = self.fresh_local()
                self.line(f"{t} = {self._phi_edge_expr(phi, spec)}")
                staged.append((phi, t, target))
            for phi, t, target in staged:
                self.line(f"{target} = {t}")
                self._loop_phi_store(phi, target)
        else:
            for phi, spec, target in items:
                self.line(f"{target} = {self._phi_edge_expr(phi, spec)}")
                self._loop_phi_store(phi, target)

    def _loop_phi_store(self, phi, target: str) -> None:
        # Back-edge phi writes are deferred with every other in-loop def;
        # the targets are pre-registered when the loop opens, so this only
        # needs the non-deferred (defensive) path.
        if self.loop_regs is not None:
            self.loop_regs[self.fc.value_key(phi)] = target
        else:
            self.line(f"regs[{self.fc.value_key(phi)}] = {target}")

    def _charge_phis(self, dblock) -> None:
        self.pending[0] += dblock.phi_total
        self.pending[1] += dblock.phi_scalar
        self.pending[2] += dblock.phi_vector
        self.charged_total += dblock.phi_total

    # -- fault-site bookkeeping ------------------------------------------------

    def emit_group(self, instr, group) -> None:
        """Advance the dynamic-site counter (and count-mode widths) for one
        planned group — straight-line arithmetic, no entry-point calls.
        Injection itself never happens here: the inject variant's span
        precheck already diverted any chain containing the target."""
        d0 = group[0]
        n = len(group)
        width = _entry_widths()[d0.entry_index]
        if d0.mask_operand_index is None:
            # Coalesced: flushed (in tape order) at the next commit.
            self.pending_sites += n
            self.max_sites += n
            if self.mode == "count":
                self.pending_widths += bytes((width,)) * n
            return
        mask_val = instr.operands[d0.mask_operand_index]
        is_reg, payload = _spec(mask_val)
        if not is_reg and type(payload) is list:
            # Constant mask: fold the active count at compile time — but
            # only when every lane evaluates to canonical 0/1 (lshr on wide
            # integer lanes can yield arbitrary counts, which must keep
            # today's dynamic arithmetic and tape growth).
            try:
                counts = [d0.active_fn(payload[d.lane]) for d in group]
            except Exception:
                counts = None
            if counts is not None and all(c in (0, 1) for c in counts):
                active = sum(counts)
                self.pending_sites += active
                self.max_sites += n
                if self.mode == "count":
                    self.pending_widths += bytes((width,)) * active
                return
        # Dynamic mask: flush the coalesced counts first so the width tape
        # stays in site order, then count active lanes at run time.
        self.flush_sites()
        na = self.fresh_local()
        bulk = d0.active_bulk_fn
        vname = self.vlocals.get(payload) if is_reg else None
        lanes = sorted(d.lane for d in group)
        if (
            bulk is not None
            and vname is not None
            and lanes == list(range(mask_val.type.length))
        ):
            bf = self.fc.bind(bulk, "af")
            self.line(f"{na} = {bf}({vname})")
        else:
            mask = self.rd(mask_val)
            af = self.fc.bind(d0.active_fn, "af")
            total = " + ".join(f"{af}({mask}[{d.lane}])" for d in group)
            self.line(f"{na} = {total}")
        self.line(f"_dc += {na}")
        self.max_sites += n
        if self.mode == "count":
            wb = self.fc.bind(bytes((width,)), "w")
            self.line(f"_ws.extend({wb} * {na})")

    # -- instruction emission --------------------------------------------------

    def emit_block_body(self, block, dblock, last: bool) -> None:
        instructions = block.instructions
        index = 0
        n = len(instructions)
        while index < n and isinstance(instructions[index], Phi):
            index += 1
        terminated = False
        while index < n:
            instr = instructions[index]
            index += 1
            if instr.is_terminator:
                self.emit_term(dblock, last)
                terminated = True
                break
            self.emit_step(instr)
        if not terminated:
            # Unterminated block: the interpreter raises without charging.
            self.commit()
            msg = (
                f"@{self.fc.fn.name}:{block.name}: fell off the end of a block"
            )
            self.line(f"raise _IO({msg!r})")

    def emit_step(self, instr) -> None:
        plan = self.fc.plan
        lv_group = plan.lvalue.get(instr) if plan is not None else None
        planned_store = plan.store.get(instr) if plan is not None else None
        self.pending_add(instr.is_vector_instruction)
        if planned_store is not None:
            _op_index, group = planned_store
            if self.mode is not None:
                self.emit_group(instr, group)
            # §II-B: the stored value's chain tax lands before the store
            # executes, so a faulting write sees tax-inclusive stats.
            self.pending_add_tax(group)
        handled = False
        try:
            handled = self._emit_specialized(instr)
        except InvalidOperation:
            handled = False
        if not handled:
            # Anything without a specialized emitter runs its (unplanned)
            # decoded closure; commit first since it may trap or raise.
            # Decoded closures read and write ``regs`` directly, so inside
            # a loop the deferred register writes flush first (the closure's
            # own def is in chain_defs, so its reads are never hoisted).
            self.commit()
            if self.loop_regs is not None:
                self.emit_regs_flush()
            self.line(f"{self.fc.bind(_decode_step(instr), 'x')}(vm, regs)")
        if lv_group is not None:
            # Result-register sites: tax and counts land after the defining
            # instruction, exactly where the spliced chain would sit.
            if self.mode is not None:
                self.emit_group(instr, lv_group)
            self.pending_add_tax(lv_group)

    def _emit_specialized(self, instr) -> bool:
        cls = type(instr)
        if cls is BinaryOp:
            return self._emit_binop(instr)
        if cls is CompareOp:
            return self._emit_compare(instr)
        if cls is Select:
            return self._emit_select(instr)
        if cls is CastOp:
            return self._emit_cast(instr)
        if cls is GetElementPtr:
            return self._emit_gep(instr)
        if cls is Load:
            self.commit()
            lty = instr.type
            mem = self.memref()
            p = self.rd(instr.operands[0])
            if isinstance(lty, VectorType) and np_dtype(lty.element) is not None:
                # Bulk read into a packed slot; the accessor's own miss
                # path raises the exact per-lane traps.
                rdr = self.packed_mem_ref("reader", lty)
                self.store_def_packed(instr, f"{rdr}({p})")
            else:
                ty = self.fc.bind(lty, "t")
                self.store_def(instr, f"{mem}.read_value({ty}, {p})")
            return True
        if cls is Store:
            self.commit()
            vty = instr.value.type
            mem = self.memref()
            if isinstance(vty, VectorType) and np_dtype(vty.element) is not None:
                v = self.rd_vec(instr.operands[0], np_dtype(vty.element))
                p = self.rd(instr.operands[1])
                wtr = self.packed_mem_ref("writer", vty)
                self.line(f"{wtr}({p}, {v})")
            else:
                ty = self.fc.bind(vty, "t")
                v = self.rd(instr.operands[0])
                p = self.rd(instr.operands[1])
                self.line(f"{mem}.write_value({ty}, {p}, {v})")
            return True
        if cls is Alloca:
            self.commit()
            ty = self.fc.bind(instr.allocated_type, "t")
            mem = self.memref()
            label = instr.name or "alloca"
            self.store_def(
                instr,
                f"{mem}.alloc_typed({ty}, {instr.count}, label={label!r})",
            )
            return True
        if cls is ExtractElement:
            return self._emit_extractelement(instr)
        if cls is InsertElement:
            return self._emit_insertelement(instr)
        if cls is ShuffleVector:
            return self._emit_shufflevector(instr)
        if cls is FNeg:
            return self._emit_fneg(instr)
        if cls is Call:
            return self._emit_call(instr)
        return False

    def _scalar_binop_expr(self, opcode: str, ty, a: str, b: str) -> str:
        # Mirrors the exact "simple" table of ops.binop_fn.
        if isinstance(ty, FloatType):
            sym = {"fadd": "+", "fsub": "-", "fmul": "*"}.get(opcode)
            if sym is not None:
                if ty.bits == 32:
                    return f"_rf({a} {sym} {b})"
                return f"({a} {sym} {b})"
        elif isinstance(ty, IntType):
            sym = {"add": "+", "sub": "-", "mul": "*"}.get(opcode)
            if sym is not None:
                bits = ty.bits
                if bits == 1:
                    # wrap_int keeps i1 canonical as 0/1.
                    return f"(({a} {sym} {b}) & 1)"
                # Branchless two's-complement wrap, inlined: identical to
                # wrap_int(x, bits) for every Python int x.
                half = 1 << (bits - 1)
                mask = (1 << bits) - 1
                return f"((({a} {sym} {b}) + {half} & {mask}) - {half})"
            sym = {"and": "&", "or": "|", "xor": "^"}.get(opcode)
            if sym is not None:
                # Closed over canonical operands (xor of two in-range
                # two's-complement ints is in range), so no wrap needed.
                return f"({a} {sym} {b})"
        fn = self.fc.bind(ops.binop_fn(opcode, ty), "f")
        return f"{fn}({a}, {b})"

    def _emit_binop(self, instr) -> bool:
        ty = instr.type
        trapping = instr.opcode in _TRAP_INT_OPS
        if trapping:
            self.commit()
        if isinstance(ty, VectorType):
            if not trapping:
                dt = np_dtype(ty.element)
                bulk = ops.binop_bulk(instr.opcode, ty.element)
                if dt is not None and bulk is not None:
                    a = self.rd_vec(instr.operands[0], dt)
                    b = self.rd_vec(instr.operands[1], dt)
                    fn = self.fc.bind(bulk, "f")
                    self.store_def_packed(instr, f"{fn}({a}, {b})")
                    return True
            a = self.rd(instr.operands[0])
            b = self.rd(instr.operands[1])
            if ty.length <= UNROLL_MAX:
                parts = [
                    self._scalar_binop_expr(
                        instr.opcode, ty.element, f"{a}[{i}]", f"{b}[{i}]"
                    )
                    for i in range(ty.length)
                ]
                expr = "[" + ", ".join(parts) + "]"
            else:
                fn = self.fc.bind(ops.binop_fn(instr.opcode, ty.element), "f")
                expr = f"[{fn}(x, y) for x, y in zip({a}, {b})]"
            self.store_def(instr, expr)
        else:
            if isinstance(ty, IntType) and instr.opcode in ("add", "sub"):
                is_reg1, p1 = _spec(instr.operands[1])
                if not is_reg1 and type(p1) is int and p1 == 0:
                    # x +/- 0 of a canonical int is x (wrap_int is a no-op
                    # on already-canonical values): alias, don't recompute.
                    self.store_def(instr, self.rd(instr.operands[0]))
                    return True
            a = self.rd(instr.operands[0])
            b = self.rd(instr.operands[1])
            self.store_def(instr, self._scalar_binop_expr(instr.opcode, ty, a, b))
        return True

    def _compare_expr(self, instr, a: str, b: str, elem) -> str:
        if instr.opcode == "icmp":
            sym = _SIGNED_ICMP_SYMBOL.get(instr.predicate)
            if sym is not None:
                return f"int({a} {sym} {b})"
        fn = self.fc.bind(
            ops.compare_fn(instr.opcode, instr.predicate, elem), "f"
        )
        return f"int({fn}({a}, {b}))"

    def _emit_compare(self, instr) -> bool:
        operand_ty = instr.lhs.type
        if isinstance(operand_ty, VectorType):
            dt = np_dtype(operand_ty.element)
            bulk = ops.compare_bulk(instr.opcode, instr.predicate, operand_ty.element)
            if dt is not None and bulk is not None:
                a = self.rd_vec(instr.operands[0], dt)
                b = self.rd_vec(instr.operands[1], dt)
                fn = self.fc.bind(bulk, "f")
                self.store_def_packed(instr, f"{fn}({a}, {b})")
                return True
        a = self.rd(instr.operands[0])
        b = self.rd(instr.operands[1])
        if isinstance(operand_ty, VectorType):
            if operand_ty.length <= UNROLL_MAX:
                parts = [
                    self._compare_expr(
                        instr, f"{a}[{i}]", f"{b}[{i}]", operand_ty.element
                    )
                    for i in range(operand_ty.length)
                ]
                expr = "[" + ", ".join(parts) + "]"
            else:
                fn = self.fc.bind(
                    ops.compare_fn(
                        instr.opcode, instr.predicate, operand_ty.element
                    ),
                    "f",
                )
                expr = f"[int({fn}(x, y)) for x, y in zip({a}, {b})]"
            self.store_def(instr, expr)
        else:
            self.store_def(
                instr, self._compare_expr(instr, a, b, operand_ty)
            )
        return True

    def _emit_select(self, instr) -> bool:
        if instr.condition.type.is_vector():
            dt = np_dtype(instr.type.element)
            cdt = np_dtype(instr.condition.type.element)
            if dt is not None and cdt is not None:
                # Eager arms, like the unrolled path below; np.where on an
                # int8 0/1 condition returns a fresh array.
                c = self.rd_vec(instr.operands[0], cdt)
                a = self.rd_vec(instr.operands[1], dt)
                b = self.rd_vec(instr.operands[2], dt)
                self.store_def_packed(instr, f"_WH({c}, {a}, {b})")
                return True
            c = self.rd(instr.operands[0])
            a = self.rd(instr.operands[1])
            b = self.rd(instr.operands[2])
            length = instr.type.length
            if length > UNROLL_MAX:
                expr = f"[x if t else y for t, x, y in zip({c}, {a}, {b})]"
            else:
                expr = "[" + ", ".join(
                    f"{a}[{i}] if {c}[{i}] else {b}[{i}]" for i in range(length)
                ) + "]"
            self.store_def(instr, expr)
        else:
            c = self.rd(instr.operands[0])
            # Arms stay lazy, as in the decoded closure: only the chosen
            # side's register is read.
            a = self.rd_raw(instr.operands[1])
            b = self.rd_raw(instr.operands[2])
            if isinstance(instr.type, VectorType):
                # A register arm may hold either representation; write it
                # through unchanged and let later reads normalize.
                self.store_def_unknown(instr, f"({a} if {c} else {b})")
            else:
                self.store_def(instr, f"({a} if {c} else {b})")
        return True

    def _emit_cast(self, instr) -> bool:
        src_ty = instr.operands[0].type
        dst_ty = instr.type
        if isinstance(dst_ty, VectorType):
            sdt = np_dtype(src_ty.scalar_type)
            bulk = ops.cast_bulk(instr.opcode, src_ty.scalar_type, dst_ty.element)
            if sdt is not None and bulk is not None:
                a = self.rd_vec(instr.operands[0], sdt)
                fn = self.fc.bind(bulk, "f")
                self.store_def_packed(instr, f"{fn}({a})")
                return True
            a = self.rd(instr.operands[0])
            fn = self.fc.bind(
                ops.cast_fn(instr.opcode, src_ty.scalar_type, dst_ty.element),
                "f",
            )
            if dst_ty.length <= UNROLL_MAX:
                expr = "[" + ", ".join(
                    f"{fn}({a}[{i}])" for i in range(dst_ty.length)
                ) + "]"
            else:
                expr = f"[{fn}(x) for x in {a}]"
        else:
            if (
                instr.opcode == "bitcast"
                and isinstance(src_ty, PointerType)
                and isinstance(dst_ty, PointerType)
            ):
                # Pointer-to-pointer bitcast is the identity in the scalar
                # evaluator: alias the operand instead of calling it.
                self.store_def(instr, self.rd(instr.operands[0]))
                return True
            a = self.rd(instr.operands[0])
            fn = self.fc.bind(ops.cast_fn(instr.opcode, src_ty, dst_ty), "f")
            expr = f"{fn}({a})"
        self.store_def(instr, expr)
        return True

    def _emit_gep(self, instr) -> bool:
        stride = instr.base.type.pointee.store_size()
        base = self.rd(instr.operands[0])
        idx_ty = instr.index.type
        idx = self.rd(instr.operands[1])
        if isinstance(idx_ty, VectorType):
            if idx_ty.length <= UNROLL_MAX:
                expr = "[" + ", ".join(
                    f"{base} + {idx}[{i}] * {stride}" for i in range(idx_ty.length)
                ) + "]"
            else:
                expr = f"[{base} + i * {stride} for i in {idx}]"
        else:
            expr = f"({base} + {idx} * {stride})"
        self.store_def(instr, expr)
        return True

    def _emit_extractelement(self, instr) -> bool:
        length = instr.operands[0].type.length
        is_reg, payload = _spec(instr.operands[1])
        vec = self.rd(instr.operands[0])
        if not is_reg and type(payload) is int:
            self.store_def(instr, f"{vec}[{payload % length}]")
            return True
        idx = self.rd(instr.operands[1])
        t = self.fresh_local()
        self.line(f"{t} = int({idx})")
        self.store_def(
            instr, f"{vec}[{t} if 0 <= {t} < {length} else {t} % {length}]"
        )
        return True

    def _emit_insertelement(self, instr) -> bool:
        length = instr.operands[0].type.length
        vec = self.rd(instr.operands[0])
        val = self.rd(instr.operands[1])
        is_reg, payload = _spec(instr.operands[2])
        out = self.store_def(instr, f"list({vec})")
        if not is_reg and type(payload) is int:
            self.line(f"{out}[{payload % length}] = {val}")
            return True
        idx = self.rd(instr.operands[2])
        t = self.fresh_local()
        self.line(f"{t} = int({idx})")
        self.line(f"if not 0 <= {t} < {length}:")
        self.line(f"    {t} %= {length}")
        self.line(f"{out}[{t}] = {val}")
        return True

    def _emit_shufflevector(self, instr) -> bool:
        la = instr.operands[0].type.length
        lb = instr.operands[1].type.length
        mask = instr.mask
        if any(not 0 <= m < la + lb for m in mask):
            return False  # decoded closure raises IndexError at run time
        parts = [
            self.rd_lane(instr.operands[0], m)
            if m < la
            else self.rd_lane(instr.operands[1], m - la)
            for m in mask
        ]
        self.store_def(instr, "[" + ", ".join(parts) + "]")
        return True

    def _emit_fneg(self, instr) -> bool:
        if instr.type.is_vector():
            dt = np_dtype(instr.type.element)
            bulk = ops.fneg_bulk(instr.type.element)
            if dt is not None and bulk is not None:
                a = self.rd_vec(instr.operands[0], dt)
                fn = self.fc.bind(bulk, "f")
                self.store_def_packed(instr, f"{fn}({a})")
                return True
        a = self.rd(instr.operands[0])
        if instr.type.is_vector():
            length = instr.type.length
            if length > UNROLL_MAX:
                expr = f"[-x for x in {a}]"
            else:
                expr = "[" + ", ".join(f"-{a}[{i}]" for i in range(length)) + "]"
        else:
            expr = f"(-{a})"
        self.store_def(instr, expr)
        return True

    # -- calls -----------------------------------------------------------------

    def _emit_call(self, instr) -> bool:
        callee = instr.callee
        name = callee.name
        if not callee.is_declaration:
            return False  # unreachable: such blocks are never compiled
        if is_intrinsic_name(name):
            info = get_intrinsic(name)
            kind = info.kind
            if kind == "math":
                return self._emit_math_call(instr, name, info)
            if kind in ("reduce", "mask-reduce"):
                ret = info.function_type.return_type
                fn = self.fc.bind(
                    lambda args, _n=name, _r=ret: ops.reduce_intrinsic(
                        _n, _r, args
                    ),
                    "red",
                )
                args = ", ".join(self.rd(o) for o in instr.operands)
                self.store_def(instr, f"{fn}([{args}])")
                return True
            if kind in _MEMORY_INTRINSICS:
                return self._emit_memory_intrinsic(instr, info, kind)
            return False
        # External call (VULFI/detector runtimes): bound per-interpreter,
        # looked up per execution like the decoded closure does.
        self.commit()
        args = ", ".join(self.rd(o) for o in instr.operands)
        ext = self.fresh_local()
        self.line(f"{ext} = vm.externals.get({name!r})")
        self.line(f"if {ext} is None:")
        self.line(f"    raise _IO({('call to unbound external @' + name)!r})")
        call = f"{ext}({args})"
        if instr.has_lvalue():
            self.store_def(instr, call)
        else:
            self.line(call)
        return True

    def _emit_math_call(self, instr, name: str, info) -> bool:
        op = name.split(".")[1]
        fn = self.fc.bind(ops.MATH_FNS[op], "mf")
        ret = info.function_type.return_type
        operands = instr.operands
        if isinstance(ret, VectorType):
            if ret.length > UNROLL_MAX:
                return False
            f32 = ret.element.bits == 32
            if len(operands) == 1:
                a = self.rd(operands[0])
                parts = [f"{fn}({a}[{i}])" for i in range(ret.length)]
            else:
                a = self.rd(operands[0])
                b = self.rd(operands[1])
                parts = [f"{fn}({a}[{i}], {b}[{i}])" for i in range(ret.length)]
            if f32:
                parts = [f"_rf({p})" for p in parts]
            self.store_def(instr, "[" + ", ".join(parts) + "]")
            return True
        f32 = ret.bits == 32
        args = ", ".join(self.rd(o) for o in operands)
        expr = f"{fn}({args})"
        if f32:
            expr = f"_rf({expr})"
        self.store_def(instr, expr)
        return True

    def _bulk_mask_test(self, m: str, mask_elem, convention) -> str:
        """Whole-vector mask test over a packed mask array.

        Bit-identical to mapping :meth:`_mask_test` over the lanes: i1
        masks are canonical 0/1 int8 (np.where treats them as booleans),
        sign-bit float masks use ``signbit`` (== bit 63/31, NaNs included),
        sign-bit integer masks use ``< 0``.
        """
        if convention == MASK_SIGN:
            if mask_elem.is_float():
                return f"_SB({m})"
            return f"({m} < 0)"
        return m

    def _mask_test(self, mask: str, lane: int, mask_ty, convention) -> str:
        if convention == MASK_SIGN:
            elem = mask_ty.scalar_type
            if isinstance(elem, FloatType):
                sa = self.fc.bind(
                    lambda v, _t=elem: ops.sign_active(v, _t), "sa"
                )
                return f"{sa}({mask}[{lane}])"
            return f"{mask}[{lane}] < 0"
        return f"{mask}[{lane}]"

    def _emit_memory_intrinsic(self, instr, info, kind: str) -> bool:
        ftype = info.function_type
        if kind in ("maskload", "gather"):
            data_ty = ftype.return_type
        elif kind == "maskstore":
            data_ty = ftype.params[info.stored_value_index]
        else:
            data_ty = ftype.params[0]
        if not isinstance(data_ty, VectorType) or data_ty.length > UNROLL_MAX:
            return False
        length = data_ty.length
        elem = data_ty.element
        stride = elem.store_size()
        et = self.fc.bind(elem, "t")
        self.commit()
        mem = self.memref()
        if kind == "maskload":
            mask_ty = ftype.params[info.mask_index]
            conv = info.mask_convention
            edt = np_dtype(elem)
            mdt = np_dtype(mask_ty.element)
            if edt is not None and mdt is not None:
                # Bulk path, gated at run time on the whole span being
                # in-bounds: reading the inactive lanes is then harmless
                # (no side effects, no traps), and an out-of-bounds span
                # drops to the per-lane path, which traps only on *active*
                # out-of-bounds lanes — exactly today's semantics.
                addr = self.rd(instr.operands[0])
                m = self.rd_vec(instr.operands[info.mask_index], mdt)
                test = self._bulk_mask_test(m, mask_ty.element, conv)
                if conv == MASK_SIGN:
                    zero = [0.0 if elem.is_float() else 0] * length
                    pt = self.fc.packed_const(zero, edt)
                    pt_list = None
                else:
                    pt = self.rd_vec(instr.operands[2], edt)
                    pt_list = self.fresh_local()
                rdr = self.packed_mem_ref("reader", data_ty)
                out = self.fresh_local()
                self.line(
                    f"if not {mem}.strict_alignment and "
                    f"{mem}.range_ok({addr}, {length * stride}):"
                )
                self.line(f"    {out} = _WH({test}, {rdr}({addr}), {pt})")
                self.line("else:")
                ml = self.fresh_local()
                self.line(f"{ml} = {m}.tolist()", 2)
                if pt_list is None:
                    zero_expr = "0.0" if elem.is_float() else "0"
                    passthru = [zero_expr] * length
                else:
                    self.line(f"{pt_list} = {pt}.tolist()", 2)
                    passthru = [f"{pt_list}[{i}]" for i in range(length)]
                parts = [
                    f"{mem}.read_scalar({et}, {addr} + {i * stride}) "
                    f"if {self._mask_test(ml, i, mask_ty, conv)} "
                    f"else {passthru[i]}"
                    for i in range(length)
                ]
                self.line(f"{out} = [" + ", ".join(parts) + "]", 2)
                # Representation depends on the branch taken: unknown-rep.
                key = self.fc.value_key(instr)
                if self.loop_regs is not None:
                    self.loop_regs[key] = out
                    self.ulocals[instr] = out
                else:
                    self.line(f"regs[{key}] = {out}")
                return True
            addr = self.rd(instr.operands[0])
            mask = self.rd(instr.operands[info.mask_index])
            if conv == MASK_SIGN:
                zero = "0.0" if elem.is_float() else "0"
                passthru = [zero] * length
            else:
                pt = self.rd(instr.operands[2])
                passthru = [f"{pt}[{i}]" for i in range(length)]
            parts = [
                f"{mem}.read_scalar({et}, {addr} + {i * stride}) "
                f"if {self._mask_test(mask, i, mask_ty, conv)} "
                f"else {passthru[i]}"
                for i in range(length)
            ]
            self.store_def(instr, "[" + ", ".join(parts) + "]")
            return True
        if kind == "maskstore":
            mask_ty = ftype.params[info.mask_index]
            conv = info.mask_convention
            edt = np_dtype(elem)
            mdt = np_dtype(mask_ty.element)
            if edt is not None and mdt is not None:
                # Read-modify-write over the whole span: active lanes take
                # the (f32-quieted) data, inactive lanes are written back
                # with their *raw* current bytes — hence the raw reader and
                # non-quieting writer; memory bits of untouched lanes never
                # change.
                if conv == MASK_SIGN:
                    addr = self.rd(instr.operands[0])
                    d = self.rd_vec(instr.operands[2], edt)
                else:
                    d = self.rd_vec(instr.operands[0], edt)
                    addr = self.rd(instr.operands[1])
                m = self.rd_vec(instr.operands[info.mask_index], mdt)
                test = self._bulk_mask_test(m, mask_ty.element, conv)
                f32 = isinstance(elem, FloatType) and elem.bits == 32
                data_expr = f"_QN({d})" if f32 else d
                wtr = self.packed_mem_ref("writer_raw", data_ty)
                rdr = self.packed_mem_ref("reader", data_ty)
                self.line(
                    f"if not {mem}.strict_alignment and "
                    f"{mem}.range_ok({addr}, {length * stride}):"
                )
                self.line(
                    f"    {wtr}({addr}, _WH({test}, {data_expr}, {rdr}({addr})))"
                )
                self.line("else:")
                ml = self.fresh_local()
                dl = self.fresh_local()
                self.line(f"{ml} = {m}.tolist()", 2)
                self.line(f"{dl} = {d}.tolist()", 2)
                for i in range(length):
                    test_i = self._mask_test(ml, i, mask_ty, conv)
                    self.line(f"if {test_i}:", 2)
                    self.line(
                        f"    {mem}.write_scalar({et}, {addr} + {i * stride}, "
                        f"{dl}[{i}])",
                        2,
                    )
                return True
            mask = self.rd(instr.operands[info.mask_index])
            if conv == MASK_SIGN:
                addr = self.rd(instr.operands[0])
                data = self.rd(instr.operands[2])
            else:
                data = self.rd(instr.operands[0])
                addr = self.rd(instr.operands[1])
            for i in range(length):
                test = self._mask_test(mask, i, mask_ty, conv)
                self.line(f"if {test}:")
                self.line(
                    f"    {mem}.write_scalar({et}, {addr} + {i * stride}, "
                    f"{data}[{i}])"
                )
            return True
        if kind == "gather":
            ptrs = self.rd(instr.operands[0])
            mask = self.rd(instr.operands[1])
            pt = self.rd(instr.operands[2])
            parts = [
                f"{mem}.read_scalar({et}, {ptrs}[{i}]) "
                f"if {mask}[{i}] else {pt}[{i}]"
                for i in range(length)
            ]
            self.store_def(instr, "[" + ", ".join(parts) + "]")
            return True
        # scatter
        data = self.rd(instr.operands[0])
        ptrs = self.rd(instr.operands[1])
        mask = self.rd(instr.operands[2])
        for i in range(length):
            self.line(f"if {mask}[{i}]:")
            self.line(
                f"    {mem}.write_scalar({et}, {ptrs}[{i}], {data}[{i}])"
            )
        return True

    # -- terminators -----------------------------------------------------------

    def emit_term(self, dblock, last: bool) -> None:
        term = dblock.term
        tag, isvec, _opcode, payload = term
        self.pending_add(isvec)
        src = dblock.source
        if tag == T_BR:
            if not last:
                return  # falls through to the next chain block
            self.emit_exits()
            self.line(f"return {self.fc.edge_name(payload.source, src)}")
        elif tag == T_CONDBR:
            self.emit_exits()
            is_reg, cond, true_block, false_block = payload
            c = self.rd_spec_raw((is_reg, cond))
            e1 = self.fc.edge_name(true_block.source, src)
            e2 = self.fc.edge_name(false_block.source, src)
            if last and self.loop_head is not None:
                # In-chain loop back edge.  Everything is already committed
                # (exits above), so returning to the driver at any of the
                # guards below re-enters this same chain through the normal
                # edge — hook firing, step-limit fallback, and inject-span
                # fallback all behave exactly as the non-looping emission.
                # Each return flushes the loop-deferred register writes
                # first; the flush runs once per call, not per iteration.
                if true_block.source is self.loop_head:
                    self.line(f"if not {c}:")
                    exit_edge, e_back = e2, e1
                else:
                    self.line(f"if {c}:")
                    exit_edge, e_back = e1, e2
                self.emit_regs_flush(2)
                self.line(f"    return {exit_edge}")
                self.line("if _bh is not None:")
                self.emit_regs_flush(2)
                self.line(f"    return {e_back}")
                self.line(f"if _st + {self.charged_total} > _sl:")
                self.emit_regs_flush(2)
                self.line(f"    return {e_back}")
                if self.mode == "inject":
                    self.line(
                        f"if _dc < _mt and _sh(_dc, _dc + {self.max_sites}):"
                    )
                    self.emit_regs_flush(2)
                    self.line(f"    return {e_back}")
                self.emit_loop_phis(self.loop_dblock, self.loop_latch)
            else:
                self.line(f"return {e1} if {c} else {e2}")
        elif tag == T_RET:
            self.emit_exits()
            if payload is None:
                self.line("return (None,)")
            else:
                is_reg, value = payload
                if is_reg and isinstance(value.type, VectorType):
                    # Return values escape to runners/callers: canonicalize
                    # a packed slot back to the lane list.
                    self.line(f"return ({self.rd_reg(value)},)")
                else:
                    self.line(f"return ({self.rd_spec_raw(payload)},)")
        else:
            assert tag == T_UNREACHABLE
            self.emit_exits()
            msg = f"@{self.fc.fn.name}: reached 'unreachable'"
            self.line(f"raise _IO({msg!r})")


# -- compiled program ----------------------------------------------------------


class CompiledFunction:
    """A function compiled into per-block superblock chain closures."""

    __slots__ = ("fn", "name", "dfn", "plan", "version", "entries", "entry")

    def __init__(self, fn: Function, dfn, plan: InjectionPlan | None, version: int):
        COMPILE_EVENTS["functions"] += 1
        self.fn = fn
        self.name = fn.name
        self.dfn = dfn
        self.plan = plan
        self.version = version
        self.entries = {
            block: CompiledEntry(block, dfn.blocks[block]) for block in fn.blocks
        }
        _FunctionCompiler(self, dfn, plan).build()
        self.entry = self.entries[fn.entry]


class CompiledProgram:
    """Lazily compiled functions of one module at one version.

    Shares the decoded program (same plan, same cache slots) — the decoded
    blocks are both the fallback path and the source of pre-resolved phi
    tables and terminators.
    """

    __slots__ = ("version", "plan", "decoded", "_functions")

    def __init__(self, module: Module, plan: InjectionPlan | None = None):
        self.version = module.version
        self.plan = plan
        self.decoded = decoded_program(module, plan)
        self._functions: dict = {}

    def function(self, fn: Function) -> CompiledFunction:
        compiled = self._functions.get(fn)
        if compiled is None:
            compiled = CompiledFunction(
                fn, self.decoded.function(fn), self.plan, self.version
            )
            self._functions[fn] = compiled
        return compiled


def compiled_program(
    module: Module, plan: InjectionPlan | None = None
) -> CompiledProgram:
    """The module's compile cache, invalidated by :attr:`Module.version`.

    Like :func:`~repro.vm.decode.decoded_program`: with a ``plan`` the
    program lives on the plan (``plan._compiled``), else on the module
    (``module._vm_compiled``), so planned closures never leak into plain
    execution and stale code can never run after an IR transformation.
    """
    if plan is not None:
        program = plan._compiled
        if program is None or program.version != module.version:
            program = CompiledProgram(module, plan)
            plan._compiled = program
        return program
    program = getattr(module, "_vm_compiled", None)
    if program is None or program.version != module.version:
        program = CompiledProgram(module)
        module._vm_compiled = program
    return program
