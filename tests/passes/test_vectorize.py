"""The loop auto-vectorizer: golden IR, bail-outs, and differentials.

Three layers of evidence that :mod:`repro.passes.vectorize` is sound:

* a golden snapshot of an if-converted loop (the transform's whole shape —
  guarded vector preheader, unmasked main body with complementary-masked
  stores for the two arms, scalarized lane-mask epilogue, live-out fixup —
  is load-bearing for campaign comparability, so it is pinned byte-for-byte);
* conservative bail-outs, one hand-built module per reason;
* differential golden-output bit-identity: scalar vs auto-vectorized forms
  of every generated recipe across both engines, at trip counts that
  do not divide any target's lane width.
"""

import numpy as np
import pytest

from repro.core import ENGINES, FaultInjector
from repro.ir import (
    F32,
    FunctionType,
    I32,
    IRBuilder,
    Module,
    pointer,
    verify_module,
)
from repro.ir.generate import KERNEL_SHAPES, build_scalar_kernel
from repro.ir.printer import print_module
from repro.passes.vectorize import (
    CONTAINS_CALL,
    LOOP_CARRIED,
    MEMORY_DEPENDENCE,
    NOT_COUNTABLE,
    TRAPPING_ARITH,
    auto_vectorized,
    vectorize_module,
)
from repro.vm.interpreter import Interpreter

TARGET_NAMES = ("sse", "avx", "avx512")


def _loop_skeleton(extra_args=()):
    """``kernel(a: i32*, out: i32*, n: i32)`` with an empty counted loop:
    entry -> loop(iv phi, slt, condbr) -> body -> latch -> loop, exit done.
    Returns (module, builder-positioned-at-body, blocks dict, args)."""
    m = Module("t")
    fn = m.add_function(
        "kernel",
        FunctionType(I32, (pointer(I32), pointer(I32), I32, *extra_args)),
        ["a", "out", "n", *(f"x{i}" for i in range(len(extra_args)))],
    )
    blocks = {
        name: fn.add_block(name)
        for name in ("entry", "loop", "body", "latch", "done")
    }
    b = IRBuilder(blocks["entry"])
    b.br(blocks["loop"])
    b.position_at_end(blocks["loop"])
    iv = b.phi(I32, "i")
    cmp = b.icmp("slt", iv, fn.args[2], "cmp")
    b.condbr(cmp, blocks["body"], blocks["done"])
    b.position_at_end(blocks["latch"])
    inext = b.add(iv, b.i32(1), "inext")
    b.br(blocks["loop"])
    b.position_at_end(blocks["done"])
    b.ret(iv)
    iv.add_incoming(b.i32(0), blocks["entry"])
    iv.add_incoming(inext, blocks["latch"])
    b.position_at_end(blocks["body"])
    return m, b, blocks, fn.args, iv


def _finish(m, b, blocks):
    b.br(blocks["latch"])
    verify_module(m)
    return m


class TestBailouts:
    def _sole_reason(self, m, target="sse"):
        report = vectorize_module(m, target)
        assert len(report.loops) == 1
        loop = report.loops[0]
        assert loop.status == "bailout"
        return loop.reason

    def test_contains_call(self):
        m, b, blocks, (a, out, n), iv = _loop_skeleton()
        helper = m.add_function("helper", FunctionType(I32, (I32,)), ["v"])
        b.store(b.call(helper, [iv], "h"), b.gep(out, iv))
        assert self._sole_reason(_finish(m, b, blocks)) == CONTAINS_CALL

    def test_trapping_arith(self):
        m, b, blocks, (a, out, n), iv = _loop_skeleton()
        v = b.load(b.gep(a, iv), "v")
        b.store(b.sdiv(n, v, "q"), b.gep(out, iv))
        assert self._sole_reason(_finish(m, b, blocks)) == TRAPPING_ARITH

    def test_non_unit_step_is_not_countable(self):
        m, b, blocks, (a, out, n), iv = _loop_skeleton()
        b.store(iv, b.gep(out, iv))
        # Rewrite the latch increment to stride 2.
        latch = blocks["latch"]
        inext = latch.instructions[0]
        inext.set_operand(1, b.i32(2))
        assert self._sole_reason(_finish(m, b, blocks)) == NOT_COUNTABLE

    def test_uniform_load_aliasing_a_store(self):
        m, b, blocks, (a, out, n), iv = _loop_skeleton()
        # out[0] is loop-invariant but written through out[i]: a genuine
        # loop-carried memory dependence the vectorizer must refuse.
        u = b.load(b.gep(out, b.i32(0)), "u")
        b.store(b.add(u, iv), b.gep(out, iv))
        assert self._sole_reason(_finish(m, b, blocks)) == MEMORY_DEPENDENCE

    def test_non_reassociable_recurrence(self):
        m, b, blocks, (a, out, n), iv = _loop_skeleton()
        loop = blocks["loop"]
        bb = IRBuilder(loop)
        acc = bb.phi(I32, "acc")
        v = b.load(b.gep(a, iv), "v")
        nxt = b.sub(acc, v, "nxt")  # sub is not a supported reduction op
        acc.add_incoming(b.i32(0), blocks["entry"])
        acc.add_incoming(nxt, blocks["latch"])
        assert self._sole_reason(_finish(m, b, blocks)) == LOOP_CARRIED

    def test_already_vector_code_is_left_alone(self):
        from repro.workloads import get_workload

        m = get_workload("vcopy").compile("sse")
        report = vectorize_module(m, "sse")
        assert report.vectorized == []
        verify_module(m)


def _build_ifconv():
    m = Module("ifconv")
    fn = m.add_function(
        "kernel", FunctionType(I32, (pointer(I32), pointer(I32), I32)),
        ["a", "out", "n"],
    )
    names = ("entry", "loop", "body", "then", "else", "merge", "latch", "done")
    blk = {name: fn.add_block(name) for name in names}
    a, out, n = fn.args
    b = IRBuilder(blk["entry"])
    b.br(blk["loop"])
    b.position_at_end(blk["loop"])
    i = b.phi(I32, "i")
    cmp = b.icmp("slt", i, n, "cmp")
    b.condbr(cmp, blk["body"], blk["done"])
    b.position_at_end(blk["body"])
    v = b.load(b.gep(a, i, "a.addr"), "v")
    c = b.icmp("sgt", v, b.i32(0), "c")
    b.condbr(c, blk["then"], blk["else"])
    b.position_at_end(blk["then"])
    b.store(b.mul(v, b.i32(2), "t"), b.gep(out, i, "out.t"))
    b.br(blk["merge"])
    b.position_at_end(blk["else"])
    b.store(b.sub(v, b.i32(1), "e"), b.gep(out, i, "out.e"))
    b.br(blk["merge"])
    b.position_at_end(blk["merge"])
    b.br(blk["latch"])
    b.position_at_end(blk["latch"])
    inext = b.add(i, b.i32(1), "inext")
    b.br(blk["loop"])
    b.position_at_end(blk["done"])
    b.ret(i)
    i.add_incoming(b.i32(0), blk["entry"])
    i.add_incoming(inext, blk["latch"])
    verify_module(m)
    return m


GOLDEN_IFCONV_SSE = """\
; ModuleID = 'ifconv.autovec'

declare void @llvm.masked.store.v4i32(<4 x i32>, <4 x i32>*, <4 x i1>)

declare <4 x i32> @llvm.masked.load.v4i32(<4 x i32>*, <4 x i1>, <4 x i32>)

define i32 @kernel(i32* %a, i32* %out, i32 %n) {
entry:
  br label %loop.vec.ph
loop.vec.ph:
  %vec.limit = sub i32 %n, 4
  %vec.wide = icmp sge i32 %n, 4
  %vec.inrange = icmp sle i32 0, %vec.limit
  %vec.enter = and i1 %vec.wide, %vec.inrange
  br i1 %vec.enter, label %loop.vec.body, label %loop.vec.tailchk
loop.vec.body:
  %i.v = phi i32 [ 0, %loop.vec.ph ], [ %i.vnext, %loop.vec.body ]
  %v.a = getelementptr i32, i32* %a, i32 %i.v
  %0 = bitcast i32* %v.a to <4 x i32>*
  %v = load <4 x i32>, <4 x i32>* %0
  %c = icmp sgt <4 x i32> %v, <i32 0, i32 0, i32 0, i32 0>
  %mnot = xor <4 x i1> %c, <i1 true, i1 true, i1 true, i1 true>
  %e = sub <4 x i32> %v, <i32 1, i32 1, i32 1, i32 1>
  %st.a = getelementptr i32, i32* %out, i32 %i.v
  %1 = bitcast i32* %st.a to <4 x i32>*
  call void @llvm.masked.store.v4i32(<4 x i32> %e, <4 x i32>* %1, <4 x i1> %mnot)
  %t = mul <4 x i32> %v, <i32 2, i32 2, i32 2, i32 2>
  %st.a.1 = getelementptr i32, i32* %out, i32 %i.v
  %2 = bitcast i32* %st.a.1 to <4 x i32>*
  call void @llvm.masked.store.v4i32(<4 x i32> %t, <4 x i32>* %2, <4 x i1> %c)
  %i.vnext = add i32 %i.v, 4
  %vec.more = icmp sle i32 %i.vnext, %vec.limit
  br i1 %vec.more, label %loop.vec.body, label %loop.vec.tailchk
loop.vec.tailchk:
  %i.mid = phi i32 [ 0, %loop.vec.ph ], [ %i.vnext, %loop.vec.body ]
  %vec.remain = icmp slt i32 %i.mid, %n
  br i1 %vec.remain, label %loop.vec.tail, label %loop.vec.done
loop.vec.tail:
  %3 = add i32 %i.mid, 0
  %vec.c0 = icmp slt i32 %3, %n
  %vec.m0 = insertelement <4 x i1> <i1 false, i1 false, i1 false, i1 false>, i1 %vec.c0, i32 0
  %4 = add i32 %i.mid, 1
  %vec.c1 = icmp slt i32 %4, %n
  %vec.m1 = insertelement <4 x i1> %vec.m0, i1 %vec.c1, i32 1
  %5 = add i32 %i.mid, 2
  %vec.c2 = icmp slt i32 %5, %n
  %vec.m2 = insertelement <4 x i1> %vec.m1, i1 %vec.c2, i32 2
  %6 = add i32 %i.mid, 3
  %vec.c3 = icmp slt i32 %6, %n
  %vec.m3 = insertelement <4 x i1> %vec.m2, i1 %vec.c3, i32 3
  %v.a.1 = getelementptr i32, i32* %a, i32 %i.mid
  %7 = bitcast i32* %v.a.1 to <4 x i32>*
  %v.1 = call <4 x i32> @llvm.masked.load.v4i32(<4 x i32>* %7, <4 x i1> %vec.m3, <4 x i32> <i32 0, i32 0, i32 0, i32 0>)
  %c.1 = icmp sgt <4 x i32> %v.1, <i32 0, i32 0, i32 0, i32 0>
  %mnot.1 = xor <4 x i1> %c.1, <i1 true, i1 true, i1 true, i1 true>
  %e.1 = sub <4 x i32> %v.1, <i32 1, i32 1, i32 1, i32 1>
  %st.a.2 = getelementptr i32, i32* %out, i32 %i.mid
  %mand = and <4 x i1> %vec.m3, %mnot.1
  %8 = bitcast i32* %st.a.2 to <4 x i32>*
  call void @llvm.masked.store.v4i32(<4 x i32> %e.1, <4 x i32>* %8, <4 x i1> %mand)
  %t.1 = mul <4 x i32> %v.1, <i32 2, i32 2, i32 2, i32 2>
  %st.a.3 = getelementptr i32, i32* %out, i32 %i.mid
  %mand.1 = and <4 x i1> %vec.m3, %c.1
  %9 = bitcast i32* %st.a.3 to <4 x i32>*
  call void @llvm.masked.store.v4i32(<4 x i32> %t.1, <4 x i32>* %9, <4 x i1> %mand.1)
  br label %loop.vec.done
loop.vec.done:
  %vec.ran = icmp slt i32 0, %n
  %i.final = select i1 %vec.ran, i32 %n, i32 0
  br label %done
done:
  ret i32 %i.final
}
"""


class TestIfConversion:
    def test_golden_snapshot_sse(self):
        vec, report = auto_vectorized(_build_ifconv(), "sse", name="ifconv.autovec")
        assert print_module(vec) == GOLDEN_IFCONV_SSE
        (loop,) = report.loops
        assert loop.status == "vectorized"
        assert loop.masked_loads == 1  # main-body load is unmasked
        assert loop.masked_stores == 4  # both arms, body + epilogue

    @pytest.mark.parametrize("target", TARGET_NAMES)
    def test_both_arms_compute_correctly(self, target):
        vec, _ = auto_vectorized(_build_ifconv(), target)
        for n in (0, 1, 5, 7, 16, 19):
            cap = max(n, 1)  # the allocator rejects zero-length arrays
            data = np.random.default_rng(7).integers(-9, 9, cap).astype(np.int32)
            expected = np.where(data > 0, data * 2, data - 1).astype(np.int32)
            for m in (_build_ifconv(), vec):
                vm = Interpreter(m)
                pa = vm.memory.store_array(I32, data, "a")
                po = vm.memory.store_array(I32, np.zeros(cap, np.int32), "out")
                r = vm.run("kernel", [pa, po, n])
                assert r == n
                assert np.array_equal(
                    vm.memory.load_array(I32, po, n), expected[:n]
                )


class TestGeneratedDifferential:
    """Scalar vs auto-vectorized forms of every recipe: verifier-clean and
    bit-identical golden outputs on both engines."""

    @pytest.mark.parametrize("target", TARGET_NAMES)
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_bit_identical_golden_outputs(self, shape, target):
        scalar = build_scalar_kernel(0, shape)
        vec, report = auto_vectorized(scalar, target)
        assert report.vectorized, [loop.to_dict() for loop in report.loops]
        verify_module(vec)
        # 5/19/33 never divide Vl in {4, 8, 16}: the epilogue always runs.
        for n in (5, 19, 33):
            gen = np.random.default_rng(n)
            a = gen.integers(-40, 40, n).astype(np.int32)
            x = (gen.random(n).astype(np.float32) * 4 - 2).astype(np.float32)

            def runner(vm):
                pa = vm.memory.store_array(I32, a, "a")
                px = vm.memory.store_array(F32, x, "x")
                po = vm.memory.store_array(I32, np.zeros(n, np.int32), "out")
                pf = vm.memory.store_array(F32, np.zeros(n, np.float32), "fout")
                r = vm.run("kernel", [pa, px, po, pf, n])
                return repr(
                    (
                        r,
                        list(vm.memory.load_array(I32, po, n)),
                        [float(v) for v in vm.memory.load_array(F32, pf, n)],
                    )
                )

            outputs = set()
            for module in (scalar, vec):
                for engine in ENGINES:
                    injector = FaultInjector(
                        module, category="all", step_limit=500_000, engine=engine
                    )
                    outputs.add(injector.golden(runner).output)
            assert len(outputs) == 1, (shape, target, n, outputs)


class TestFixpoint:
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_second_pass_is_a_no_op(self, shape):
        vec, report = auto_vectorized(build_scalar_kernel(1, shape), "avx")
        assert report.vectorized
        again = vectorize_module(vec, "avx")
        assert again.vectorized == []
        verify_module(vec)

    def test_registry_modules_survive_the_pass(self):
        """The pass must be safe to point at arbitrary compiled workloads:
        already-vector loops bail, output still verifies."""
        from repro.workloads import benchmark_workloads

        for w in benchmark_workloads()[:3]:
            m = w.compile("sse")
            vectorize_module(m, "sse")
            verify_module(m)
