"""mem2reg: promotion correctness and semantic preservation."""

import numpy as np
import pytest

from repro.ir import (
    F32,
    FunctionType,
    I1,
    I32,
    IRBuilder,
    Module,
    VOID,
    pointer,
    vector,
    verify_module,
)
from repro.ir.clone import clone_module
from repro.passes import promote_allocas, simplify_cfg
from repro.vm import Interpreter
from tests.helpers import build_fig3_foo, run_foo_reference


class TestPromotion:
    def test_fig3_promotes_to_loop_phis(self):
        m = build_fig3_foo()
        fn = m.get_function("foo")
        assert promote_allocas(fn)
        verify_module(m)
        assert not any(i.opcode == "alloca" for i in fn.instructions())
        assert not any(i.opcode == "load" and i.pointer.type.pointee == I32
                       and i.pointer.opcode == "alloca"
                       for i in fn.instructions() if hasattr(i, "pointer"))
        loop_phis = m.get_function("foo").get_block("loop").phis()
        assert {p.name for p in loop_phis} == {"i", "s"}

    def test_semantics_preserved_on_fig3(self):
        m = build_fig3_foo()
        c = clone_module(m)
        promote_allocas(c.get_function("foo"))
        verify_module(c)
        a = np.array([5, -3, 7, 0, 2, 9], dtype=np.int32)
        results = []
        for mod in (m, c):
            vm = Interpreter(mod)
            pa = vm.memory.store_array(I32, a)
            vm.run("foo", [pa, len(a), 13])
            results.append(vm.memory.load_array(I32, pa, len(a)))
        assert (results[0] == results[1]).all()
        assert (results[0] == run_foo_reference(a, 13)).all()

    def test_address_taken_alloca_not_promoted(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(I32, (I32,)), ["x"])
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(I32, name="slot")
        b.store(fn.args[0], slot)
        # Taking the address via gep blocks promotion.
        g = b.gep(slot, b.i32(0))
        v = b.load(g)
        b.ret(v)
        promote_allocas(fn)
        assert any(i.opcode == "alloca" for i in fn.instructions())

    def test_stored_pointer_not_promoted(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(VOID, (pointer(pointer(I32)),)), ["pp"])
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(I32, name="slot")
        b.store(slot, fn.args[0])  # the alloca escapes as a stored value
        b.ret()
        promote_allocas(fn)
        assert any(i.opcode == "alloca" for i in fn.instructions())

    def test_array_alloca_not_promoted(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(VOID, ()), [])
        b = IRBuilder(fn.add_block("entry"))
        from repro.ir.instructions import Alloca

        arr = Alloca(I32, count=4, name="arr")
        fn.entry.append(arr)
        b.position_at_end(fn.entry)
        b.ret()
        promote_allocas(fn)
        assert any(i.opcode == "alloca" for i in fn.instructions())

    def test_diamond_gets_merge_phi(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(I32, (I1, I32)), ["c", "x"])
        entry = fn.add_block("entry")
        left = fn.add_block("left")
        right = fn.add_block("right")
        merge = fn.add_block("merge")
        b = IRBuilder(entry)
        slot = b.alloca(I32, name="v")
        b.store(b.i32(0), slot)
        b.condbr(fn.args[0], left, right)
        b.position_at_end(left)
        b.store(fn.args[1], slot)
        b.br(merge)
        b.position_at_end(right)
        b.store(b.i32(42), slot)
        b.br(merge)
        b.position_at_end(merge)
        out = b.load(slot, "out")
        b.ret(out)
        promote_allocas(fn)
        verify_module(m)
        assert len(merge.phis()) == 1
        assert Interpreter(m).run("f", [1, 7]) == 7
        assert Interpreter(m).run("f", [0, 7]) == 42

    def test_copies_between_promoted_slots(self):
        """A slot's stored value may be the load of an earlier slot (``y``
        copies ``x``) or of a later one (``x`` copies ``z``): all three
        promote in one renaming walk and the copies resolve to registers."""
        m = Module("t")
        fn = m.add_function("f", FunctionType(I32, (I1, I32)), ["c", "a"])
        entry = fn.add_block("entry")
        then = fn.add_block("then")
        join = fn.add_block("join")
        b = IRBuilder(entry)
        x = b.alloca(I32, name="x")
        y = b.alloca(I32, name="y")
        z = b.alloca(I32, name="z")
        b.store(fn.args[1], x)
        b.store(b.i32(7), z)
        b.store(b.load(x), y)
        b.condbr(fn.args[0], then, join)
        b.position_at_end(then)
        b.store(b.load(z), x)
        b.br(join)
        b.position_at_end(join)
        b.ret(b.add(b.load(x), b.load(y)))
        original = clone_module(m)
        assert promote_allocas(fn)
        verify_module(m)
        assert not any(
            i.opcode in ("alloca", "load", "store") for i in fn.instructions()
        )
        assert [p.name for p in join.phis()] == ["x"]
        for c in (0, 1):
            want = Interpreter(original).run("f", [c, 5])
            assert want == (12 if c else 10)
            assert Interpreter(m).run("f", [c, 5]) == want

    def test_uninitialized_load_reads_zero(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(I32, ()), [])
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(I32, name="v")
        out = b.load(slot, "out")
        b.ret(out)
        promote_allocas(fn)
        verify_module(m)
        assert Interpreter(m).run("f", []) == 0

    def test_vector_allocas_promote(self):
        m = Module("t")
        vt = vector(F32, 4)
        fn = m.add_function("f", FunctionType(vt, (vt,)), ["v"])
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(vt, name="acc")
        b.store(fn.args[0], slot)
        loaded = b.load(slot)
        doubled = b.fadd(loaded, loaded)
        b.store(doubled, slot)
        final = b.load(slot)
        b.ret(final)
        promote_allocas(fn)
        verify_module(m)
        assert not any(i.opcode == "alloca" for i in fn.instructions())
        assert Interpreter(m).run("f", [[1.0, 2.0, 3.0, 4.0]]) == [2.0, 4.0, 6.0, 8.0]

    def test_no_allocas_returns_false(self):
        m = Module("t")
        fn = m.add_function("f", FunctionType(VOID, ()), [])
        IRBuilder(fn.add_block("entry")).ret()
        assert not promote_allocas(fn)

    def test_compiled_workloads_have_no_promotable_allocas(self):
        """After the default pipeline, every local scalar is in SSA form."""
        from repro.workloads import all_workloads
        from repro.ir.instructions import Alloca, Load, Store

        for w in all_workloads():
            fn_module = w.compile("avx")
            for fn in fn_module.defined_functions():
                for instr in fn.instructions():
                    if isinstance(instr, Alloca):
                        users = instr.users()
                        only_mem = all(
                            isinstance(u, (Load, Store)) for u in users
                        )
                        assert not (only_mem and instr.count == 1), (
                            f"@{fn.name} kept promotable alloca {instr.name}"
                        )
