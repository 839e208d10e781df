"""Shared builders for the test suite: canned IR programs, random
straight-line program generation for property-based tests, and exact
output comparison for engine differentials."""

from __future__ import annotations

import numpy as np

from repro.ir import (
    F32,
    FunctionType,
    I32,
    IRBuilder,
    Module,
    VOID,
    pointer,
)


def build_axpy() -> Module:
    """y[i] = a*x[i] + y[i] over n floats; scalar loop in SSA form."""
    m = Module("axpy")
    fn = m.add_function(
        "axpy",
        FunctionType(VOID, (pointer(F32), pointer(F32), F32, I32)),
        ["x", "y", "a", "n"],
    )
    entry = fn.add_block("entry")
    loop = fn.add_block("loop")
    body = fn.add_block("body")
    done = fn.add_block("done")
    b = IRBuilder(entry)
    b.br(loop)
    b.position_at_end(loop)
    i = b.phi(I32, "i")
    cmp = b.icmp("slt", i, fn.args[3], "cmp")
    b.condbr(cmp, body, done)
    b.position_at_end(body)
    px = b.gep(fn.args[0], i, "px")
    v = b.load(px, "v")
    av = b.fmul(v, fn.args[2], "av")
    py = b.gep(fn.args[1], i, "py")
    w = b.load(py, "w")
    s = b.fadd(av, w, "s")
    b.store(s, py)
    inext = b.add(i, b.i32(1), "inext")
    b.br(loop)
    b.position_at_end(done)
    b.ret()
    i.add_incoming(b.i32(0), entry)
    i.add_incoming(inext, body)
    return m


def build_fig3_foo() -> Module:
    """The paper's Fig. 3 C++ function, compiled by hand with allocas:

        void foo(int a[], int n, int x) {
            int s = x;
            for (int i = 0; i < n; i++) { a[i] = a[i] * s; s = s + i; }
        }
    """
    m = Module("fig3")
    fn = m.add_function(
        "foo", FunctionType(VOID, (pointer(I32), I32, I32)), ["a", "n", "x"]
    )
    entry = fn.add_block("entry")
    loop = fn.add_block("loop")
    body = fn.add_block("body")
    done = fn.add_block("done")
    b = IRBuilder(entry)
    s_var = b.alloca(I32, name="s")
    i_var = b.alloca(I32, name="i")
    b.store(fn.args[2], s_var)
    b.store(b.i32(0), i_var)
    b.br(loop)
    b.position_at_end(loop)
    iv = b.load(i_var, "iv")
    cmp = b.icmp("slt", iv, fn.args[1], "cmp")
    b.condbr(cmp, body, done)
    b.position_at_end(body)
    i2 = b.load(i_var, "i2")
    pa = b.gep(fn.args[0], i2, "pa")
    av = b.load(pa, "av")
    sv = b.load(s_var, "sv")
    prod = b.mul(av, sv, "prod")
    b.store(prod, pa)
    s2 = b.add(sv, i2, "s2")
    b.store(s2, s_var)
    inext = b.add(i2, b.i32(1), "inext")
    b.store(inext, i_var)
    b.br(loop)
    b.position_at_end(done)
    b.ret()
    return m


def run_foo_reference(a: np.ndarray, x: int) -> np.ndarray:
    """Wrapped 32-bit reference semantics for Fig. 3's foo()."""
    out = []
    s = x
    for i in range(len(a)):
        v = (int(a[i]) * s) & 0xFFFFFFFF
        if v >= 1 << 31:
            v -= 1 << 32
        out.append(v)
        s += i
    return np.array(out, dtype=np.int32)


def output_bytes(output: dict) -> list:
    """A program output as exact bytes (floats by bit pattern), for
    differential comparisons where ``nan != nan`` would mislead."""
    return [
        (name, str(np.asarray(value).dtype), np.asarray(value).tobytes())
        for name, value in sorted(output.items())
    ]
