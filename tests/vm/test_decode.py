"""The pre-decoded interpreter fast path: constants, caching, invalidation."""

import numpy as np

from repro.frontend import compile_source
from repro.ir.types import F32, F64, I1, I32, I64, PointerType, VectorType
from repro.ir.values import (
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    ConstantVector,
    UndefValue,
)
from repro.vm import Interpreter
from repro.vm.decode import decoded_program, evaluate_constant

KERNEL = """
export void k(uniform int a[], uniform int b[], uniform int n) {
    foreach (i = 0 ... n) { b[i] = a[i] - 4; }
}
"""


def run_kernel(module, n=9, seed=0):
    data = np.random.default_rng(seed).integers(-50, 50, n).astype(np.int32)
    vm = Interpreter(module)
    pa = vm.memory.store_array(I32, data, "a")
    pb = vm.memory.store_array(I32, np.zeros(n, dtype=np.int32), "b")
    vm.run("k", [pa, pb, n])
    return data, vm.memory.load_array(I32, pb, n)


class TestEvaluateConstant:
    def test_ints_and_floats(self):
        assert evaluate_constant(ConstantInt(I32, 42)) == 42
        assert evaluate_constant(ConstantInt(I64, -7)) == -7
        assert evaluate_constant(ConstantFloat(F64, 0.1)) == 0.1
        # f32 constants round to single precision at decode time.
        assert evaluate_constant(ConstantFloat(F32, 0.1)) == np.float32(0.1)

    def test_vectors_and_null(self):
        v = ConstantVector([ConstantInt(I32, i) for i in (1, 2, 3)])
        assert evaluate_constant(v) == [1, 2, 3]
        assert evaluate_constant(ConstantPointerNull(PointerType(I32))) == 0

    def test_undef_is_deterministic_zero(self):
        assert evaluate_constant(UndefValue(I32)) == 0
        assert evaluate_constant(UndefValue(F64)) == 0.0
        assert evaluate_constant(UndefValue(VectorType(I1, 4))) == [0, 0, 0, 0]


class TestConstantIdentity:
    def test_equal_constants_at_different_ids_evaluate_independently(self):
        """Regression: the old interpreter memoized constants by ``id()``.

        ``id()`` of a dead object can be reused by a fresh allocation, so an
        id-keyed cache could serve constant A's value for an unrelated
        constant B.  Decode-time evaluation keys on nothing at all — every
        constant operand is resolved structurally.
        """
        values = []
        for _ in range(50):
            # Fresh, short-lived constants; ids get recycled across rounds.
            c = ConstantInt(I32, len(values))
            values.append(evaluate_constant(c))
            del c
        assert values == list(range(50))

    def test_no_id_keyed_caches_on_interpreter(self):
        module = compile_source(KERNEL, "avx")
        vm = Interpreter(module)
        assert not hasattr(vm, "_const_cache")
        assert not hasattr(vm, "_vec_cache")


class TestDecodeCache:
    def test_decoded_program_is_cached(self):
        module = compile_source(KERNEL, "avx")
        assert decoded_program(module) is decoded_program(module)

    def test_structural_mutation_invalidates(self):
        module = compile_source(KERNEL, "avx")
        before = decoded_program(module)
        data, out = run_kernel(module)
        assert np.array_equal(out, data - 4)

        # Mutate: the uniform 4 is broadcast via insertelement; bump the
        # scalar operand 4 -> 5 through set_operand (a structural edit).
        from repro.ir.instructions import InsertElement

        changed = 0
        for fn in module.functions.values():
            for block in fn.blocks:
                for instr in block.instructions:
                    if isinstance(instr, InsertElement):
                        scalar = instr.operands[1]
                        if isinstance(scalar, ConstantInt) and scalar.value == 4:
                            instr.set_operand(1, ConstantInt(scalar.type, 5))
                            changed += 1
        assert changed > 0

        after = decoded_program(module)
        assert after is not before
        data, out = run_kernel(module)
        assert np.array_equal(out, data - 5)

    def test_block_edit_bumps_version(self):
        module = compile_source(KERNEL, "avx")
        v0 = module.version
        fn = next(iter(module.functions.values()))
        block = fn.blocks[0]
        instr = block.instructions[0]
        block.remove(instr)
        assert module.version > v0
        v1 = module.version
        block.insert(0, instr)
        assert module.version > v1

    def test_stats_identical_across_decode_paths(self):
        """Decoding must not change the dynamic-instruction accounting."""
        module = compile_source(KERNEL, "avx")
        data, out = run_kernel(module)
        vm = Interpreter(module)
        pa = vm.memory.store_array(I32, data, "a")
        pb = vm.memory.store_array(I32, np.zeros(len(data), dtype=np.int32), "b")
        vm.run("k", [pa, pb, len(data)])
        first = (vm.stats.total, vm.stats.scalar, vm.stats.vector)

        vm2 = Interpreter(module)  # decode cache warm now
        pa = vm2.memory.store_array(I32, data, "a")
        pb = vm2.memory.store_array(I32, np.zeros(len(data), dtype=np.int32), "b")
        vm2.run("k", [pa, pb, len(data)])
        second = (vm2.stats.total, vm2.stats.scalar, vm2.stats.vector)
        assert first == second
