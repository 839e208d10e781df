"""Program execution: control flow, memory, calls, intrinsics, accounting."""

import math

import numpy as np
import pytest

from repro.errors import (
    InvalidOperation,
    MemoryFault,
    StepLimitExceeded,
)
from repro.ir import (
    I8,
    ConstantVector,
    F32,
    FunctionType,
    I1,
    I32,
    IRBuilder,
    Module,
    VOID,
    const_float,
    declare_intrinsic,
    parse_module,
    pointer,
    vector,
    zeroinitializer,
)
from repro.vm import Interpreter
from tests.helpers import build_axpy, build_fig3_foo, run_foo_reference


class TestControlFlow:
    def test_axpy_loop(self):
        m = build_axpy()
        vm = Interpreter(m)
        x = np.arange(10, dtype=np.float32)
        y = np.ones(10, dtype=np.float32)
        px = vm.memory.store_array(F32, x)
        py = vm.memory.store_array(F32, y)
        vm.run("axpy", [px, py, 2.0, 10])
        assert np.allclose(vm.memory.load_array(F32, py, 10), 2 * x + 1)

    def test_fig3_matches_reference(self):
        m = build_fig3_foo()
        a = np.array([3, -1, 100000, 7, 0], dtype=np.int32)
        vm = Interpreter(m)
        pa = vm.memory.store_array(I32, a)
        vm.run("foo", [pa, len(a), 41])
        assert (vm.memory.load_array(I32, pa, len(a)) == run_foo_reference(a, 41)).all()

    def test_phi_parallel_semantics(self):
        # Swapping phis: (a, b) = (b, a) each iteration must read old values.
        text = """\
define i32 @swap(i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %inext, %loop ]
  %a = phi i32 [ 1, %entry ], [ %b, %loop ]
  %b = phi i32 [ 2, %entry ], [ %a, %loop ]
  %inext = add i32 %i, 1
  %done = icmp sge i32 %inext, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i32 %a
}
"""
        m = parse_module(text)
        assert Interpreter(m).run("swap", [1]) == 1
        assert Interpreter(m).run("swap", [2]) == 2
        assert Interpreter(m).run("swap", [3]) == 1

    def test_select_scalar_and_vector(self):
        m = Module("t")
        vt = vector(I32, 4)
        fn = m.add_function("f", FunctionType(vt, (vector(I1, 4), vt, vt)), ["c", "a", "b"])
        b = IRBuilder(fn.add_block("entry"))
        b.ret(b.select(fn.args[0], fn.args[1], fn.args[2]))
        out = Interpreter(m).run("f", [[1, 0, 0, 1], [1, 2, 3, 4], [9, 9, 9, 9]])
        assert out == [1, 9, 9, 4]

    def test_unreachable_traps(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(VOID, ()), [])
        IRBuilder(fn.add_block("entry")).unreachable()
        with pytest.raises(InvalidOperation):
            Interpreter(m).run("f", [])

    def test_step_limit_enforced(self):
        text = """\
define void @spin() {
entry:
  br label %loop
loop:
  br label %loop
}
"""
        m = parse_module(text)
        with pytest.raises(StepLimitExceeded):
            Interpreter(m, step_limit=1000).run("spin", [])


class TestCallsAndExternals:
    def test_user_function_call(self):
        text = """\
define i32 @double(i32 %x) {
entry:
  %r = add i32 %x, %x
  ret i32 %r
}

define i32 @main(i32 %x) {
entry:
  %r = call i32 @double(i32 %x)
  %r2 = call i32 @double(i32 %r)
  ret i32 %r2
}
"""
        m = parse_module(text)
        assert Interpreter(m).run("main", [3]) == 12

    def test_recursion(self):
        text = """\
define i32 @fact(i32 %n) {
entry:
  %base = icmp sle i32 %n, 1
  br i1 %base, label %one, label %rec
one:
  ret i32 1
rec:
  %nm1 = sub i32 %n, 1
  %sub = call i32 @fact(i32 %nm1)
  %r = mul i32 %n, %sub
  ret i32 %r
}
"""
        m = parse_module(text)
        assert Interpreter(m).run("fact", [6]) == 720

    def test_external_binding(self):
        text = """\
declare i32 @host(i32)

define i32 @main(i32 %x) {
entry:
  %r = call i32 @host(i32 %x)
  ret i32 %r
}
"""
        m = parse_module(text)
        vm = Interpreter(m)
        vm.bind("host", lambda x: x * 100)
        assert vm.run("main", [4]) == 400

    def test_unbound_external_traps(self):
        text = """\
declare i32 @host(i32)

define i32 @main(i32 %x) {
entry:
  %r = call i32 @host(i32 %x)
  ret i32 %r
}
"""
        m = parse_module(text)
        with pytest.raises(InvalidOperation):
            Interpreter(m).run("main", [4])

    def test_run_declaration_rejected(self):
        m = Module("t")
        m.declare_function("d", FunctionType(VOID, ()))
        with pytest.raises(InvalidOperation):
            Interpreter(m).run("d", [])

    def test_wrong_arity_rejected(self):
        m = build_axpy()
        with pytest.raises(InvalidOperation):
            Interpreter(m).run("axpy", [1, 2])


class TestMaskedIntrinsics:
    def _module_avx_float(self):
        m = Module("t")
        fn = m.add_function(
            "k", FunctionType(VOID, (pointer(F32), pointer(F32))), ["src", "dst"]
        )
        b = IRBuilder(fn.add_block("entry"))
        ld = declare_intrinsic(m, "llvm.x86.avx.maskload.ps.256")
        st = declare_intrinsic(m, "llvm.x86.avx.maskstore.ps.256")
        i8s = b.bitcast(fn.args[0], pointer(I8))
        i8d = b.bitcast(fn.args[1], pointer(I8))
        # Sign-bit mask: first 3 lanes active.
        mask = ConstantVector(
            [const_float(-1.0)] * 3 + [const_float(0.0)] * 5
        )
        v = b.call(ld, [i8s, mask], "v")
        b.call(st, [i8d, mask, v])
        b.ret()
        return m

    def test_avx_sign_mask_load_store(self):
        m = self._module_avx_float()
        vm = Interpreter(m)
        src = vm.memory.store_array(F32, np.arange(1, 9, dtype=np.float32))
        dst = vm.memory.store_array(F32, np.zeros(8, dtype=np.float32))
        vm.run("k", [src, dst])
        assert vm.memory.load_array(F32, dst, 8).tolist() == [1, 2, 3, 0, 0, 0, 0, 0]

    def test_masked_lanes_do_not_touch_memory(self):
        """A masked load whose inactive lanes would be out of bounds is safe —
        the property that makes ISPC's partial iterations legal."""
        m = Module("t")
        fn = m.add_function("k", FunctionType(vector(F32, 4), (pointer(vector(F32, 4)), vector(I1, 4))), ["p", "m"])
        b = IRBuilder(fn.add_block("entry"))
        ld = declare_intrinsic(m, "llvm.masked.load.v4f32")
        v = b.call(ld, [fn.args[0], fn.args[1], zeroinitializer(vector(F32, 4))], "v")
        b.ret(v)
        vm = Interpreter(m)
        # Allocate only 2 floats; lanes 2-3 would fault if touched.
        p = vm.memory.store_array(F32, np.array([5.0, 6.0], dtype=np.float32))
        out = vm.run("k", [p, [1, 1, 0, 0]])
        assert out == [5.0, 6.0, 0.0, 0.0]
        with pytest.raises(MemoryFault):
            Interpreter(m).run("k", [p, [1, 1, 1, 0]])

    def test_gather_scatter(self):
        text = """\
define void @k(i32* %a, i32* %out) {
entry:
  %idx = add <4 x i32> <i32 3, i32 0, i32 2, i32 1>, zeroinitializer
  %ptrs = getelementptr i32, i32* %a, <4 x i32> %idx
  %g = call <4 x i32> @llvm.masked.gather.v4i32(<4 x i32*> %ptrs, <4 x i1> <i1 true, i1 true, i1 true, i1 false>, <4 x i32> <i32 -1, i32 -1, i32 -1, i32 -1>)
  %optrs = getelementptr i32, i32* %out, <4 x i32> <i32 0, i32 1, i32 2, i32 3>
  call void @llvm.masked.scatter.v4i32(<4 x i32> %g, <4 x i32*> %optrs, <4 x i1> <i1 true, i1 true, i1 true, i1 true>)
  ret void
}
"""
        m = parse_module(text)
        vm = Interpreter(m)
        a = vm.memory.store_array(I32, np.array([10, 11, 12, 13], dtype=np.int32))
        out = vm.memory.store_array(I32, np.zeros(4, dtype=np.int32))
        vm.run("k", [a, out])
        assert vm.memory.load_array(I32, out, 4).tolist() == [13, 10, 12, -1]


class TestMathAndReduce:
    def _eval_call(self, intr_name, arg_types, ret_type, args):
        m = Module("t")
        fn = m.add_function("f", FunctionType(ret_type, tuple(arg_types)), None)
        b = IRBuilder(fn.add_block("entry"))
        intr = declare_intrinsic(m, intr_name)
        b.ret(b.call(intr, list(fn.args)))
        return Interpreter(m).run("f", args)

    def test_sqrt_scalar(self):
        assert self._eval_call("llvm.sqrt.f32", [F32], F32, [4.0]) == 2.0

    def test_sqrt_negative_is_nan(self):
        assert math.isnan(self._eval_call("llvm.sqrt.f32", [F32], F32, [-1.0]))

    def test_sqrt_vector(self):
        t = vector(F32, 4)
        out = self._eval_call("llvm.sqrt.v4f32", [t], t, [[1.0, 4.0, 9.0, 16.0]])
        assert out == [1.0, 2.0, 3.0, 4.0]

    def test_exp_log_specials(self):
        assert self._eval_call("llvm.exp.f32", [F32], F32, [1000.0]) == math.inf
        assert self._eval_call("llvm.log.f32", [F32], F32, [0.0]) == -math.inf
        assert math.isnan(self._eval_call("llvm.log.f32", [F32], F32, [-1.0]))

    def test_minnum_maxnum_nan_handling(self):
        nan = float("nan")
        assert self._eval_call("llvm.minnum.f32", [F32, F32], F32, [nan, 2.0]) == 2.0
        assert self._eval_call("llvm.maxnum.f32", [F32, F32], F32, [1.0, nan]) == 1.0

    def test_reduce_add_int(self):
        t = vector(I32, 4)
        assert self._eval_call("llvm.vector.reduce.add.v4i32", [t], I32, [[1, 2, 3, 4]]) == 10

    def test_reduce_add_wraps(self):
        t = vector(I32, 2)
        out = self._eval_call("llvm.vector.reduce.add.v2i32", [t], I32, [[2**31 - 1, 1]])
        assert out == -(2**31)

    def test_reduce_fadd_sequential_with_rounding(self):
        t = vector(F32, 4)
        out = self._eval_call(
            "llvm.vector.reduce.fadd.v4f32", [F32, t], F32, [0.0, [1e8, 1.0, 1.0, 1.0]]
        )
        # Sequential binary32 accumulation: the 1.0s are each absorbed.
        assert out == 1e8

    def test_reduce_or_and_on_masks(self):
        t = vector(I1, 4)
        assert self._eval_call("llvm.vector.reduce.or.v4i1", [t], I1, [[0, 0, 1, 0]]) == 1
        assert self._eval_call("llvm.vector.reduce.and.v4i1", [t], I1, [[1, 1, 0, 1]]) == 0

    def test_reduce_minmax(self):
        t = vector(I32, 4)
        assert self._eval_call("llvm.vector.reduce.smax.v4i32", [t], I32, [[3, -5, 7, 0]]) == 7
        assert self._eval_call("llvm.vector.reduce.smin.v4i32", [t], I32, [[3, -5, 7, 0]]) == -5


class TestAccounting:
    def test_dynamic_counts(self):
        m = build_axpy()
        vm = Interpreter(m)
        x = vm.memory.store_array(F32, np.zeros(5, dtype=np.float32))
        y = vm.memory.store_array(F32, np.zeros(5, dtype=np.float32))
        vm.run("axpy", [x, y, 1.0, 5])
        # entry br + 6x(phi+cmp+condbr) + 5x(8 body instrs) + ret
        assert vm.stats.total == 1 + 6 * 3 + 5 * 9 + 1
        assert vm.stats.vector == 0
        assert vm.stats.scalar == vm.stats.total

    def test_vector_instruction_counting(self):
        text = """\
define <4 x i32> @f(<4 x i32> %v) {
entry:
  %r = add <4 x i32> %v, %v
  %s = add i32 1, 2
  ret <4 x i32> %r
}
"""
        m = parse_module(text)
        vm = Interpreter(m)
        vm.run("f", [[1, 2, 3, 4]])
        assert vm.stats.vector == 2  # the vector add and the vector ret
        assert vm.stats.scalar == 1
