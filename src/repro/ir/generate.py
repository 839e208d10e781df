"""Seeded IR generators: fuzz modules and the generated kernel family.

Two generator tiers share this module (one implementation, no copy-paste
drift between the test suite and the workload registry):

* **Fuzz modules** (:func:`build_random_module`,
  :func:`build_remainder_module`) — adversarial loop-shaped IR the frontend
  never emits, used by ``tests/core/test_fuzz_engines.py`` to differential-
  test the injection engines.
* **Kernel recipes** (:func:`make_recipe` + the ``build_*_kernel``
  emitters) — the generator-backed workload family of
  :mod:`repro.workloads.generated`.  A recipe is a plain, deterministic
  data structure (seeded expression trees); *two* emitters render it:

  - :func:`build_scalar_kernel` — a scalar counted loop with real control
    flow, the input the auto-vectorizer (:mod:`repro.passes.vectorize`)
    consumes;
  - :func:`build_handvec_kernel` — the hand-vectorized form: a stride-``Vl``
    masked loop in the style the MiniISPC frontend emits for ``foreach``
    (dynamic lane mask, masked loads/stores, vector selects for the
    conditional arms, vector accumulators with a lane fold).

  Because both emitters evaluate the *same* expression tree with the same
  per-lane operations — and integer reductions restrict themselves to
  two's-complement ``add/mul/xor`` which are exactly associative and
  commutative — the scalar, hand-vectorized, and auto-vectorized forms of
  one recipe produce bit-identical golden outputs.  That shared golden is
  what makes ``vecdiff`` campaign outcomes comparable across forms.

Determinism: recipes are derived from ``random.Random(f"{shape}:{seed}")``
(string seeding hashes with SHA-512 — stable across processes and
platforms), so registry fingerprints and campaign manifests built from
these kernels are byte-identical run to run.
"""

from __future__ import annotations

from random import Random

from ..frontend.target import Target, get_target
from .builder import IRBuilder
from .intrinsics import declare_intrinsic
from .module import Module
from .types import F32, FunctionType, I1, I8, I32, Type, pointer, vector
from .values import (
    ConstantVector,
    Value,
    const_float,
    const_int,
    zeroinitializer,
)
from .verifier import verify_module

V4I = vector(I32, 4)
V4F = vector(F32, 4)

#: Exactly-representable f32 constants, so golden values stay tame and
#: decode-time rounding is a no-op.
_F32_CONSTS = (0.25, 0.5, 1.5, 2.0, -0.75, 3.0)

_INT_OPS = ("add", "sub", "mul", "and", "or", "xor")
_VEC_OPS = ("add", "sub", "mul", "xor")
_FLOAT_OPS = ("fadd", "fsub", "fmul")
_ICMP = ("eq", "ne", "slt", "sle", "sgt", "sge")


def _mask_const(rng: Random) -> ConstantVector:
    return ConstantVector([const_int(I1, rng.randint(0, 1)) for _ in range(4)])


def build_random_module(seed: int) -> Module:
    """One random loop: ``f(ip: i32*, fp: f32*, n: i32) -> i32``.

    The loop header carries int/float/vector phis; the body mixes random
    arithmetic with guaranteed memory traffic (masked and unmasked) on the
    two 8-element argument arrays, every address clamped in-bounds with an
    ``and 7`` / lane-0 base so the *golden* run never faults — corrupted
    runs are free to.
    """
    rng = Random(seed)
    m = Module(f"fuzz{seed}")
    fn = m.add_function(
        "f", FunctionType(I32, (pointer(I32), pointer(F32), I32)), ["ip", "fp", "n"]
    )
    entry = fn.add_block("entry")
    loop = fn.add_block("loop")
    body = fn.add_block("body")
    latch = fn.add_block("latch")
    done = fn.add_block("done")

    b = IRBuilder(entry)
    ivp = b.bitcast(fn.args[0], pointer(V4I), "ivp")
    fvp = b.bitcast(fn.args[1], pointer(V4F), "fvp")  # noqa: F841 - shape parity
    b.br(loop)

    b.position_at_end(loop)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    facc = b.phi(F32, "facc")
    vacc = b.phi(V4I, "vacc")
    cmp = b.icmp("slt", i, fn.args[2], "cmp")
    b.condbr(cmp, body, done)

    b.position_at_end(body)
    ints = [i, acc, fn.args[2], b.i32(rng.randint(-20, 20))]
    floats = [facc, const_float(rng.choice(_F32_CONSTS), F32)]
    ivecs = [vacc]
    bools = []

    # Guaranteed memory traffic: scalar load/store on each array.
    idx = b.and_(rng.choice(ints), b.i32(7), "idx")
    ip_slot = b.gep(fn.args[0], idx, "ips")
    ints.append(b.load(ip_slot, "ild"))
    b.store(rng.choice(ints), ip_slot)
    fidx = b.and_(rng.choice(ints), b.i32(7), "fidx")
    fp_slot = b.gep(fn.args[1], fidx, "fps")
    floats.append(b.load(fp_slot, "fld"))
    b.store(rng.choice(floats), fp_slot)

    for _ in range(rng.randint(4, 12)):
        kind = rng.choice(
            ["int", "int", "float", "vec", "cmp", "select", "cast", "shuffle",
             "extract", "masked_load", "masked_store"]
        )
        if kind == "int":
            ints.append(
                b.binop(rng.choice(_INT_OPS), rng.choice(ints), rng.choice(ints))
            )
        elif kind == "float":
            floats.append(
                b.binop(
                    rng.choice(_FLOAT_OPS), rng.choice(floats), rng.choice(floats)
                )
            )
        elif kind == "vec":
            ivecs.append(
                b.binop(rng.choice(_VEC_OPS), rng.choice(ivecs), rng.choice(ivecs))
            )
        elif kind == "cmp":
            bools.append(
                b.icmp(rng.choice(_ICMP), rng.choice(ints), rng.choice(ints))
            )
        elif kind == "select" and bools:
            ints.append(
                b.select(rng.choice(bools), rng.choice(ints), rng.choice(ints))
            )
        elif kind == "cast":
            ints.append(b.fptosi(rng.choice(floats), I32))
        elif kind == "shuffle":
            mask = [rng.randint(0, 7) for _ in range(4)]
            ivecs.append(
                b.shufflevector(rng.choice(ivecs), rng.choice(ivecs), mask)
            )
        elif kind == "extract":
            ints.append(b.extractelement(rng.choice(ivecs), rng.randint(0, 3)))
        elif kind == "masked_load":
            ld = declare_intrinsic(m, "llvm.masked.load.v4i32")
            ivecs.append(
                b.call(ld, [ivp, _mask_const(rng), zeroinitializer(V4I)], "mld")
            )
        elif kind == "masked_store":
            st = declare_intrinsic(m, "llvm.masked.store.v4i32")
            b.call(st, [rng.choice(ivecs), ivp, _mask_const(rng)])

    acc_next = rng.choice(ints)
    facc_next = rng.choice(floats)
    vacc_next = rng.choice(ivecs)
    b.br(latch)

    b.position_at_end(latch)
    inext = b.add(i, b.i32(1), "inext")
    b.br(loop)

    b.position_at_end(done)
    lane = b.extractelement(vacc, rng.randint(0, 3), "lane")
    b.ret(b.xor(b.add(acc, lane, "sum"), b.load(b.gep(fn.args[0], b.i32(0))), "r"))

    i.add_incoming(b.i32(0), entry)
    i.add_incoming(inext, latch)
    acc.add_incoming(b.i32(rng.randint(-5, 5)), entry)
    acc.add_incoming(acc_next, latch)
    facc.add_incoming(const_float(rng.choice(_F32_CONSTS), F32), entry)
    facc.add_incoming(facc_next, latch)
    vacc.add_incoming(
        ConstantVector([b.i32(rng.randint(-3, 3)) for _ in range(4)]), entry
    )
    vacc.add_incoming(vacc_next, latch)

    verify_module(m)
    return m


def build_remainder_module(seed: int) -> Module:
    """A stride-4 loop whose trip count need not divide the vector width.

    The body computes the lane mask dynamically — lane ``k`` active iff
    ``i + k < n`` (scalar icmp + insertelement, the scalarized remainder
    idiom vectorizers emit) — and pushes it through
    ``llvm.masked.load/store.v4i32``.  With trip counts like 5, 6, 7 the
    final iteration runs a genuinely partial mask, exercising the batched
    tier's masked paths and its per-lane fallbacks on the same module.
    """
    rng = Random(seed)
    m = Module(f"rem{seed}")
    fn = m.add_function(
        "f", FunctionType(I32, (pointer(I32), pointer(F32), I32)), ["ip", "fp", "n"]
    )
    entry = fn.add_block("entry")
    loop = fn.add_block("loop")
    body = fn.add_block("body")
    latch = fn.add_block("latch")
    done = fn.add_block("done")

    b = IRBuilder(entry)
    ivp = b.bitcast(fn.args[0], pointer(V4I), "ivp")
    b.br(loop)

    b.position_at_end(loop)
    i = b.phi(I32, "i")
    vacc = b.phi(V4I, "vacc")
    cmp = b.icmp("slt", i, fn.args[2], "cmp")
    b.condbr(cmp, body, done)

    b.position_at_end(body)
    mask = ConstantVector([const_int(I1, 0)] * 4)
    for k in range(4):
        ck = b.icmp("slt", b.add(i, b.i32(k)), fn.args[2], f"c{k}")
        mask = b.insertelement(mask, ck, k, f"m{k}")
    q = b.lshr(i, b.i32(2), "q")
    slot = b.gep(ivp, q, "slot")
    ld = declare_intrinsic(m, "llvm.masked.load.v4i32")
    st = declare_intrinsic(m, "llvm.masked.store.v4i32")
    loaded = b.call(ld, [slot, mask, zeroinitializer(V4I)], "mld")
    vnext = b.binop(rng.choice(_VEC_OPS), vacc, loaded, "vnext")
    b.call(st, [vnext, slot, mask])
    b.br(latch)

    b.position_at_end(latch)
    inext = b.add(i, b.i32(4), "inext")
    b.br(loop)

    b.position_at_end(done)
    lane = b.extractelement(vacc, rng.randint(0, 3), "lane")
    b.ret(b.xor(lane, b.load(b.gep(fn.args[0], b.i32(0))), "r"))

    i.add_incoming(b.i32(0), entry)
    i.add_incoming(inext, latch)
    vacc.add_incoming(
        ConstantVector([b.i32(rng.randint(-3, 3)) for _ in range(4)]), entry
    )
    vacc.add_incoming(vnext, latch)

    verify_module(m)
    return m


# -- the generated kernel family -----------------------------------------------

#: Bump when recipe derivation or either emitter changes semantics — it is
#: part of :func:`recipe_source`, hence of the registry fingerprint that
#: campaign-store manifests pin.
GENERATOR_VERSION = 1

KERNEL_SHAPES = ("map", "cond", "reduce")

#: Reduction ops restricted to exactly-associative integer arithmetic so a
#: vector accumulator folds to the scalar result bit-for-bit.
_RED_OPS = ("add", "xor", "mul")


def _int_leaf(rng: Random) -> tuple:
    return rng.choice(
        [("a",), ("a",), ("iv",), ("ic", rng.randint(-9, 9))]
    )


def _int_expr(rng: Random, depth: int) -> tuple:
    if depth <= 0 or rng.random() < 0.3:
        return _int_leaf(rng)
    if rng.random() < 0.15:
        return ("fptosi", _flt_expr(rng, depth - 1))
    op = rng.choice(_INT_OPS)
    return (op, _int_expr(rng, depth - 1), _int_expr(rng, depth - 1))


def _flt_leaf(rng: Random) -> tuple:
    return rng.choice([("x",), ("x",), ("fc", rng.choice(_F32_CONSTS))])


def _flt_expr(rng: Random, depth: int) -> tuple:
    if depth <= 0 or rng.random() < 0.3:
        return _flt_leaf(rng)
    if rng.random() < 0.15:
        return ("sitofp", _int_expr(rng, depth - 1))
    op = rng.choice(_FLOAT_OPS)
    return (op, _flt_expr(rng, depth - 1), _flt_expr(rng, depth - 1))


def make_recipe(seed: int, shape: str) -> dict:
    """A deterministic kernel recipe: plain data, stable across processes."""
    if shape not in KERNEL_SHAPES:
        raise ValueError(f"unknown kernel shape {shape!r}")
    rng = Random(f"{shape}:{seed}")
    recipe = {
        "version": GENERATOR_VERSION,
        "seed": seed,
        "shape": shape,
        "int_expr": _int_expr(rng, 3),
        "flt_expr": _flt_expr(rng, 3),
    }
    if shape == "cond":
        if rng.random() < 0.5:
            recipe["cond"] = ("icmp", rng.choice(_ICMP), _int_expr(rng, 2),
                              _int_expr(rng, 2))
        else:
            recipe["cond"] = ("fcmp", rng.choice(("olt", "ogt", "ole", "oge")),
                              _flt_expr(rng, 2), _flt_expr(rng, 2))
        recipe["then_expr"] = _int_expr(rng, 2)
        recipe["else_expr"] = _int_expr(rng, 2)
        recipe["store_both"] = rng.random() < 0.5
    elif shape == "reduce":
        recipe["red_op"] = rng.choice(_RED_OPS)
        recipe["red_init"] = rng.randint(-5, 5)
        recipe["red_conditional"] = rng.random() < 0.5
        recipe["cond"] = ("icmp", rng.choice(_ICMP), _int_expr(rng, 2),
                          _int_expr(rng, 2))
    return recipe


def recipe_source(recipe: dict) -> str:
    """Canonical text form — the ``source`` a registry fingerprint hashes."""
    body = "\n".join(f"{k} = {recipe[k]!r}" for k in sorted(recipe))
    return f"; generated kernel (generator v{GENERATOR_VERSION})\n{body}\n"


class _ExprEmitter:
    """Evaluate a recipe expression tree as scalar or as per-lane vector IR.

    ``iv``/``a_load``/``x_load`` are supplied by the caller (scalar values
    in the scalar emitter, ``<Vl x T>`` values in the hand-vec emitter), so
    both forms perform the identical operation sequence per lane.
    """

    def __init__(self, b: IRBuilder, iv: Value, a_load, x_load, lanes: int):
        self.b = b
        self.iv = iv
        self._a = a_load  # lazy thunks: load once, reuse
        self._x = x_load
        self.lanes = lanes  # 1 for the scalar form
        self._a_val: Value | None = None
        self._x_val: Value | None = None

    def _const(self, ty: Type, value) -> Value:
        c = const_int(ty, value) if ty.is_integer() else const_float(value, ty)
        if self.lanes == 1:
            return c
        return IRBuilder.splat_const(c, self.lanes)

    def emit(self, node: tuple) -> Value:
        tag = node[0]
        b = self.b
        if tag == "a":
            if self._a_val is None:
                self._a_val = self._a()
            return self._a_val
        if tag == "x":
            if self._x_val is None:
                self._x_val = self._x()
            return self._x_val
        if tag == "iv":
            return self.iv
        if tag == "ic":
            return self._const(I32, node[1])
        if tag == "fc":
            return self._const(F32, node[1])
        if tag == "sitofp":
            ty = F32 if self.lanes == 1 else vector(F32, self.lanes)
            return b.sitofp(self.emit(node[1]), ty)
        if tag == "fptosi":
            ty = I32 if self.lanes == 1 else vector(I32, self.lanes)
            return b.fptosi(self.emit(node[1]), ty)
        return b.binop(tag, self.emit(node[1]), self.emit(node[2]))

    def cond(self, node: tuple) -> Value:
        kind, pred, lhs, rhs = node
        emit = self.b.icmp if kind == "icmp" else self.b.fcmp
        return emit(pred, self.emit(lhs), self.emit(rhs), "c")


#: Generated kernels share one signature:
#: ``kernel(a: i32*, x: f32*, out: i32*, fout: f32*, n: i32) -> i32``.
KERNEL_TYPE = FunctionType(
    I32, (pointer(I32), pointer(F32), pointer(I32), pointer(F32), I32)
)
KERNEL_ARGS = ["a", "x", "out", "fout", "n"]


def build_scalar_kernel(seed: int, shape: str, name: str | None = None) -> Module:
    """The scalar form: a counted loop with genuine control flow — exactly
    the shape :func:`repro.passes.vectorize.vectorize_function` consumes."""
    recipe = make_recipe(seed, shape)
    m = Module(name or f"gen-{shape}{seed}.scalar")
    fn = m.add_function("kernel", KERNEL_TYPE, list(KERNEL_ARGS))
    a, x, out, fout, n = fn.args

    entry = fn.add_block("entry")
    header = fn.add_block("loop")
    body = fn.add_block("body")
    latch = fn.add_block("latch")
    done = fn.add_block("done")

    b = IRBuilder(entry)
    b.br(header)

    b.position_at_end(header)
    iv = b.phi(I32, "i")
    acc = b.phi(I32, "acc") if shape == "reduce" else None
    cmp = b.icmp("slt", iv, n, "cmp")
    b.condbr(cmp, body, done)

    b.position_at_end(body)
    ex = _ExprEmitter(
        b,
        iv,
        lambda: b.load(b.gep(a, iv, "a.addr"), "a.i"),
        lambda: b.load(b.gep(x, iv, "x.addr"), "x.i"),
        lanes=1,
    )
    acc_next: Value | None = None
    if shape == "map":
        b.store(ex.emit(recipe["int_expr"]), b.gep(out, iv, "out.addr"))
        b.store(ex.emit(recipe["flt_expr"]), b.gep(fout, iv, "fout.addr"))
        b.br(latch)
    elif shape == "cond":
        b.store(ex.emit(recipe["flt_expr"]), b.gep(fout, iv, "fout.addr"))
        c = ex.cond(recipe["cond"])
        then_blk = fn.add_block("then", after=body)
        merge = fn.add_block("merge", after=then_blk)
        if recipe["store_both"]:
            else_blk = fn.add_block("else", after=then_blk)
            b.condbr(c, then_blk, else_blk)
            b.position_at_end(then_blk)
            b.store(ex.emit(recipe["then_expr"]), b.gep(out, iv, "out.t"))
            b.br(merge)
            b.position_at_end(else_blk)
            b.store(ex.emit(recipe["else_expr"]), b.gep(out, iv, "out.e"))
            b.br(merge)
        else:
            b.condbr(c, then_blk, merge)
            b.position_at_end(then_blk)
            b.store(ex.emit(recipe["then_expr"]), b.gep(out, iv, "out.t"))
            b.br(merge)
        b.position_at_end(merge)
        b.br(latch)
    else:  # reduce
        b.store(ex.emit(recipe["int_expr"]), b.gep(out, iv, "out.addr"))
        val = ex.emit(recipe["int_expr"])
        if recipe["red_conditional"]:
            c = ex.cond(recipe["cond"])
            upd_blk = fn.add_block("accum", after=body)
            merge = fn.add_block("merge", after=upd_blk)
            b.condbr(c, upd_blk, merge)
            b.position_at_end(upd_blk)
            upd = b.binop(recipe["red_op"], acc, val, "acc.next")
            b.br(merge)
            b.position_at_end(merge)
            accm = b.phi(I32, "acc.m")
            accm.add_incoming(upd, upd_blk)
            accm.add_incoming(acc, body)
            acc_next = accm
            b.br(latch)
        else:
            acc_next = b.binop(recipe["red_op"], acc, val, "acc.next")
            b.br(latch)

    b.position_at_end(latch)
    inext = b.add(iv, b.i32(1), "inext")
    b.br(header)

    b.position_at_end(done)
    checksum = b.load(b.gep(a, b.i32(0), "chk.addr"), "chk")
    r = b.xor(acc, checksum, "r") if acc is not None else checksum
    b.ret(r)

    iv.add_incoming(b.i32(0), entry)
    iv.add_incoming(inext, latch)
    if acc is not None:
        acc.add_incoming(b.i32(recipe["red_init"]), entry)
        acc.add_incoming(acc_next, latch)

    verify_module(m)
    return m


def build_handvec_kernel(
    seed: int, shape: str, target: Target | str, name: str | None = None
) -> Module:
    """The hand-vectorized form of the same recipe: a stride-``Vl`` masked
    loop in the frontend's ``foreach`` style — dynamic lane mask, masked
    memory, selects for the conditional arms, vector accumulator + fold."""
    t = get_target(target) if isinstance(target, str) else target
    vl = t.vector_width
    recipe = make_recipe(seed, shape)
    m = Module(name or f"gen-{shape}{seed}.handvec.{t.name}")
    fn = m.add_function("kernel", KERNEL_TYPE, list(KERNEL_ARGS))
    a, x, out, fout, n = fn.args

    entry = fn.add_block("entry")
    header = fn.add_block("loop")
    body = fn.add_block("body")
    latch = fn.add_block("latch")
    done = fn.add_block("done")

    def masked_load(b: IRBuilder, base: Value, iv: Value, elem, nm: str) -> Value:
        addr = b.gep(base, iv, nm + ".addr")
        intr = declare_intrinsic(m, t.masked_load_name(elem))
        vec_ty = vector(elem, vl)
        if t.mask_style == "x86-sign":
            i8p = b.bitcast(addr, pointer(I8))
            return b.call(intr, [i8p, sign_mask(b, elem)], nm)
        vp = b.bitcast(addr, pointer(vec_ty))
        return b.call(intr, [vp, lane_mask, zeroinitializer(vec_ty)], nm)

    def masked_store(b: IRBuilder, value: Value, base: Value, iv: Value, elem) -> None:
        addr = b.gep(base, iv, "st.addr")
        intr = declare_intrinsic(m, t.masked_store_name(elem))
        if t.mask_style == "x86-sign":
            i8p = b.bitcast(addr, pointer(I8))
            b.call(intr, [i8p, sign_mask(b, elem), value])
            return
        vp = b.bitcast(addr, pointer(vector(elem, vl)))
        b.call(intr, [value, vp, lane_mask])

    def sign_mask(b: IRBuilder, elem) -> Value:
        key = "f" if elem.is_float() else "i"
        if key not in sign_masks:
            ivec = b.sext(lane_mask, vector(I32, vl), "maski32")
            sign_masks["i"] = ivec
            if key == "f":
                sign_masks["f"] = b.bitcast(ivec, vector(F32, vl), "maskf32")
        return sign_masks[key]

    b = IRBuilder(entry)
    b.br(header)

    b.position_at_end(header)
    iv = b.phi(I32, "i")
    vacc = b.phi(vector(I32, vl), "vacc") if shape == "reduce" else None
    cmp = b.icmp("slt", iv, n, "cmp")
    b.condbr(cmp, body, done)

    b.position_at_end(body)
    sign_masks: dict[str, Value] = {}
    lane_mask: Value = ConstantVector([const_int(I1, 0)] * vl)
    for k in range(vl):
        ck = b.icmp("slt", b.add(iv, b.i32(k)), n, f"c{k}")
        lane_mask = b.insertelement(lane_mask, ck, k, f"m{k}")

    iota = ConstantVector([const_int(I32, k) for k in range(vl)])
    iv_vec = b.add(b.broadcast(iv, vl, "iv"), iota, "iv.vec")
    ex = _ExprEmitter(
        b,
        iv_vec,
        lambda: masked_load(b, a, iv, I32, "a.v"),
        lambda: masked_load(b, x, iv, F32, "x.v"),
        lanes=vl,
    )
    vacc_next: Value | None = None
    if shape == "map":
        masked_store(b, ex.emit(recipe["int_expr"]), out, iv, I32)
        masked_store(b, ex.emit(recipe["flt_expr"]), fout, iv, F32)
    elif shape == "cond":
        masked_store(b, ex.emit(recipe["flt_expr"]), fout, iv, F32)
        c = ex.cond(recipe["cond"])
        then_v = ex.emit(recipe["then_expr"])
        if recipe["store_both"]:
            else_v = ex.emit(recipe["else_expr"])
            blended = b.select(c, then_v, else_v, "blend")
            masked_store(b, blended, out, iv, I32)
        else:
            # Store only where the condition holds: mask & c.
            old = masked_load(b, out, iv, I32, "out.old")
            blended = b.select(c, then_v, old, "blend")
            masked_store(b, blended, out, iv, I32)
    else:  # reduce
        masked_store(b, ex.emit(recipe["int_expr"]), out, iv, I32)
        val = ex.emit(recipe["int_expr"])
        upd = b.binop(recipe["red_op"], vacc, val, "vacc.upd")
        guard = lane_mask
        if recipe["red_conditional"]:
            c = ex.cond(recipe["cond"])
            guard = b.and_(lane_mask, c, "accmask")
        vacc_next = b.select(guard, upd, vacc, "vacc.next")
    b.br(latch)

    b.position_at_end(latch)
    inext = b.add(iv, b.i32(vl), "inext")
    b.br(header)

    b.position_at_end(done)
    checksum = b.load(b.gep(a, b.i32(0), "chk.addr"), "chk")
    if vacc is not None:
        acc = b.extractelement(vacc, 0, "fold0")
        for k in range(1, vl):
            acc = b.binop(
                recipe["red_op"], acc, b.extractelement(vacc, k, f"lane{k}"), "fold"
            )
        r = b.xor(acc, checksum, "r")
    else:
        r = checksum
    b.ret(r)

    iv.add_incoming(b.i32(0), entry)
    iv.add_incoming(inext, latch)
    if vacc is not None:
        ident = {"add": 0, "xor": 0, "mul": 1}[recipe["red_op"]]
        init = ConstantVector(
            [const_int(I32, recipe["red_init"])]
            + [const_int(I32, ident)] * (vl - 1)
        )
        vacc.add_incoming(init, entry)
        vacc.add_incoming(vacc_next, latch)

    verify_module(m)
    return m
