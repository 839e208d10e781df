"""The block compiler: caching, lazy chains, invalidation, execution parity."""

import struct
from random import Random

import numpy as np
import pytest

from repro.core import FaultInjector
from repro.frontend import compile_source
from repro.ir.types import F32, I32
from repro.ir.values import ConstantInt
from repro.passes.constfold import constant_fold
from repro.passes.dce import dead_code_elimination
from repro.passes.manager import PassManager
from repro.passes.mem2reg import promote_allocas
from repro.vm import COMPILE_EVENTS, Interpreter
from repro.vm.decode import InjectionPlan, decoded_program
from repro.workloads import get_workload

KERNEL = """
export void k(uniform int a[], uniform int b[], uniform int n) {
    foreach (i = 0 ... n) { b[i] = a[i] - 4; }
}
"""


def run_kernel(module, n=9, seed=0, plan=None):
    """Run ``KERNEL``: decoded only without a plan, as chains with one (a
    site-free ``InjectionPlan()`` compiles a plain kernel's chains)."""
    data = np.random.default_rng(seed).integers(-50, 50, n).astype(np.int32)
    vm = Interpreter(module, plan=plan)
    pa = vm.memory.store_array(I32, data, "a")
    pb = vm.memory.store_array(I32, np.zeros(n, dtype=np.int32), "b")
    vm.run("k", [pa, pb, n])
    return data, vm.memory.load_array(I32, pb, n), vm.stats


def chains_of(module, plan):
    """Every block's ``chain`` slot of every defined function."""
    program = decoded_program(module, plan)
    return [
        block.chain
        for fn in module.defined_functions()
        for block in program.function(fn).blocks.values()
    ]


class TestCompileCache:
    def test_compiled_program_is_cached(self):
        module = compile_source(KERNEL, "avx")
        plan = InjectionPlan()
        program = decoded_program(module, plan)
        assert decoded_program(module, plan) is program
        run_kernel(module, plan=plan)
        assert decoded_program(module, plan) is program
        assert any(chain is not None for chain in chains_of(module, plan))

    def test_compilation_happens_once_per_version(self):
        module = compile_source(KERNEL, "avx")
        plan = InjectionPlan()
        run_kernel(module, plan=plan)
        before = dict(COMPILE_EVENTS)
        # Fresh interpreters, same module version: the cache must serve
        # every one of them without re-exec'ing a single chain.
        for seed in range(3):
            run_kernel(module, seed=seed, plan=plan)
        assert COMPILE_EVENTS == before

    def test_pass_pipeline_evicts_decoded_and_compiled(self):
        """An IR transformation must never leave stale code runnable.

        mem2reg + constfold + dce rewrite blocks in place, bumping
        ``Module.version`` as they go; the decoded program and the chains
        on its blocks key their caches on that version, so the next
        execution after the pipeline re-decodes *and* re-compiles.  Stale
        compiled closures surviving a transformation would execute the
        pre-pass program silently — the worst kind of corruption.
        """
        # optimize_ir=False leaves the allocas in, so the pipeline has
        # promotions to perform (the default frontend output is already
        # optimized, which would make this test vacuous).
        module = compile_source(KERNEL, "avx", optimize_ir=False)
        plan = InjectionPlan()
        data, out, stats_before = run_kernel(module, plan=plan)
        assert np.array_equal(out, data - 4)
        decoded_before = decoded_program(module)
        planned_before = decoded_program(module, plan)
        version_before = module.version

        changed = PassManager(
            [promote_allocas, constant_fold, dead_code_elimination]
        ).run(module)
        assert changed
        assert module.version > version_before

        assert decoded_program(module) is not decoded_before
        assert decoded_program(module, plan) is not planned_before
        # Same observable semantics from the freshly compiled code.
        chains_before = COMPILE_EVENTS["chains"]
        data, out, stats_after = run_kernel(module, plan=plan)
        assert COMPILE_EVENTS["chains"] > chains_before
        assert np.array_equal(out, data - 4)
        # The pipeline actually changed the program (fewer dynamic
        # instructions after mem2reg/dce), proving the re-run executed the
        # transformed code rather than a stale cache.
        assert stats_after.total != stats_before.total

    def test_structural_edit_recompiles(self):
        module = compile_source(KERNEL, "avx")
        plan = InjectionPlan()
        data, out, _ = run_kernel(module, plan=plan)
        assert np.array_equal(out, data - 4)

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
        data, out, _ = run_kernel(module, plan=plan)
        assert np.array_equal(out, data - 5)

    def test_plan_keyed_cache_evicts_on_version_bump(self):
        # An injector's chains live on its plan's decoded program, not the
        # module's, and must still track the module version.
        module = compile_source(KERNEL, "avx", optimize_ir=False)
        injector = FaultInjector(module, engine="direct")
        injector.warm()
        before = decoded_program(injector.module, injector._plan)
        assert decoded_program(injector.module, injector._plan) is before
        changed = PassManager(
            [promote_allocas, constant_fold, dead_code_elimination]
        ).run(injector.module)
        assert changed
        assert decoded_program(injector.module, injector._plan) is not before


class TestCompiledExecutionParity:
    def test_output_and_stats_match_interpreter(self):
        module = compile_source(KERNEL, "avx")
        plan = InjectionPlan()
        for seed in range(3):
            data, out, stats = run_kernel(module, seed=seed)
            cdata, cout, cstats = run_kernel(module, seed=seed, plan=plan)
            assert np.array_equal(data, cdata)
            assert np.array_equal(out, cout)
            assert (stats.total, stats.scalar, stats.vector) == (
                cstats.total,
                cstats.scalar,
                cstats.vector,
            )
        assert any(chain is not None for chain in chains_of(module, plan))


class TestPlainRunsNeverCompile:
    """Chains exist exactly when a plan is present: plain interpreter runs
    and the instrumented oracle's goldens run decoded only."""

    def test_plain_interpreter_run_compiles_nothing(self):
        module = compile_source(KERNEL, "avx")
        before = dict(COMPILE_EVENTS)
        for seed in range(2):
            data, out, _ = run_kernel(module, seed=seed)
            assert np.array_equal(out, data - 4)
        assert COMPILE_EVENTS == before
        assert set(chains_of(module, None)) == {None}

    def test_instrumented_golden_compiles_nothing(self):
        workload = get_workload("vector_sum")
        injector = FaultInjector(workload.compile("avx"), engine="instrumented")
        runner = workload.build_runner(workload.sample_input(Random(3)))
        before = dict(COMPILE_EVENTS)
        injector.warm()
        golden = injector.golden(runner)
        injector.experiment(runner, Random(5), golden=golden)
        assert COMPILE_EVENTS == before
        assert injector._plan is None
        assert set(chains_of(injector.module, None)) == {None}


class TestLazyChains:
    """Chains compile on first entry, once, and only when entered."""

    def test_warm_compiles_no_chain(self):
        module = compile_source(KERNEL, "avx")
        injector = FaultInjector(module)
        before = COMPILE_EVENTS["chains"]
        injector.warm()
        assert COMPILE_EVENTS["chains"] == before
        assert any(
            chain is not None for chain in chains_of(module, injector._plan)
        ), "warm() installs the chain stubs"

    def test_repeated_run_compiles_no_chain(self):
        workload = get_workload("vector_sum")
        injector = FaultInjector(workload.compile("avx"))
        runner = workload.build_runner(workload.sample_input(Random(3)))
        golden = injector.golden(runner)
        injector.experiment(runner, Random(5), golden=golden)
        before = COMPILE_EVENTS["chains"]
        injector.golden(runner)
        injector.experiment(runner, Random(5), golden=golden)
        assert COMPILE_EVENTS["chains"] == before

    def test_chain_never_entered_is_never_compiled(self):
        module = compile_source(KERNEL, "avx")
        plan = InjectionPlan()
        before = COMPILE_EVENTS["chains"]
        # n = 0: the foreach body is never entered, so its chains stay stubs.
        Interpreter(module, plan=plan).run("k", [0, 0, 0])
        cold = COMPILE_EVENTS["chains"] - before
        run_kernel(module, plan=plan)
        assert COMPILE_EVENTS["chains"] - before > cold > 0


#: Every batched-tier emitter fed by unrounded f32 arguments: the vector
#: binop, compare, select, cast and fneg, the vector phi that carries ``h``
#: around a loop, and (in the partial last iteration) the masked store.
WIDE_KERNEL = """
export void k(uniform float a[], uniform float o1[], uniform float o2[],
              uniform float o3[], uniform int o4[], uniform float o5[],
              uniform float h, uniform float g, uniform int n) {
    foreach (i = 0 ... n) {
        float x = a[i];
        o1[i] = h - x;
        float s = (x < h) ? h : x;
        o2[i] = (s - x) + (-s + x);
        float acc = h;
        for (uniform int t = 0; t < 2; t++) { acc = acc * x + x; }
        o3[i] = acc;
        o4[i] = int((x < h) ? g : x);
        o5[i] = h;
    }
}
"""

WIDE_MERGE_KERNEL = """
export void k(uniform float a[], uniform float o[], uniform float h,
              uniform int n) {
    foreach (i = 0 ... n) {
        float x = a[i];
        float v = h;
        float y = x * x;
        if (n > 5) { v = y; }
        o[i] = v - h;
    }
}
"""


class TestUnroundedF32Arguments:
    """The host passes ``float`` arguments as binary64 values, which the
    interpreter keeps unrounded.  Chains must compute on them exactly as
    the decoded closures do, not on float32-packed copies."""

    @pytest.mark.parametrize("target", ["avx", "sse"])
    def test_chain_matches_decoded_bit_for_bit(self, target):
        module = compile_source(WIDE_KERNEL, target)
        h, g = 0.35, 2.9999999999
        # Lanes equal to h's float32 rounding make every compare and every
        # subtraction tell h apart from float32(h).
        a = np.array([h, 0.1, h, 0.5, h, -0.2, h, 0.3, h], dtype=np.float32)
        n = len(a)

        def run(plan):
            vm = Interpreter(module, plan=plan)
            pa = vm.memory.store_array(F32, a, "a")
            outs = [
                vm.memory.store_array(ty, np.zeros(n, dtype=dt), f"o{j}")
                for j, (ty, dt) in enumerate(
                    [(F32, np.float32)] * 3 + [(I32, np.int32), (F32, np.float32)]
                )
            ]
            vm.run("k", [pa, *outs, h, g, n])
            data = [
                struct.pack(f"<{n}f", *vm.memory.load_array(F32, p, n))
                for p in outs[:3] + outs[4:]
            ] + [vm.memory.load_array(I32, outs[3], n).tobytes()]
            return data, (vm.stats.total, vm.stats.scalar, vm.stats.vector)

        assert run(InjectionPlan()) == run(None)

    @pytest.mark.parametrize("target", ["avx", "sse"])
    @pytest.mark.parametrize("n", [9, 3])
    def test_merge_phi_of_wide_and_packed_matches_decoded(self, target, n):
        """A uniform ``if`` merges the broadcast ``h`` with a vector another
        chain computed packed; the canonical merge phi must unpack that edge,
        or ``v - h`` runs in float32 on a rounded ``h``."""
        module = compile_source(WIDE_MERGE_KERNEL, target)
        h = 0.35
        a = np.array([0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, h], dtype=np.float32)

        def run(plan):
            vm = Interpreter(module, plan=plan)
            pa = vm.memory.store_array(F32, a, "a")
            po = vm.memory.store_array(F32, np.zeros(n, dtype=np.float32), "o")
            vm.run("k", [pa, po, h, n])
            out = struct.pack(f"<{n}f", *vm.memory.load_array(F32, po, n))
            return out, (vm.stats.total, vm.stats.scalar, vm.stats.vector)

        assert run(InjectionPlan()) == run(None)
