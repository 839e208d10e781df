"""Differential fuzzing: the direct engine against the instrumented oracle.

The seeded generators live in :mod:`repro.ir.generate` (shared with the
generated workload family) — scalar and vector arithmetic, phis (scalar,
float, and vector), masked load/store intrinsics, plain memory traffic,
compares, selects, casts, and shuffles.  This file runs seeded injection
campaigns through the instrumented engine and the direct engine (compiled
chains over the decoded plan) and requires the complete observable
stream to be bit-identical: dynamic
site counts and widths, dynamic-instruction totals (golden and faulty),
outcomes, crash kinds, and injection records.  Modules whose golden run
traps are kept as differential cases too (both engines must trap
identically); zero-site modules are skipped.

The workload-based differential matrix (``test_direct_engine.py``) covers
the compiler's idioms; this file covers IR shapes the frontend never
emits — adversarial phi webs, odd mask constants, store-then-masked-load
aliasing — which is where a specializing compiler grows silent bugs.
A third sweep feeds *auto-vectorized* generated kernels (from
:mod:`repro.passes.vectorize`) through the same harness: predicated
masked memory and select chains produced by the pass, not the frontend.
"""

import os
from random import Random

import numpy as np
import pytest

from repro.core import FaultInjector
from repro.errors import VMTrap
from repro.ir import F32, I32, Module
from repro.ir.generate import (
    KERNEL_SHAPES,
    build_random_module,
    build_remainder_module,
    build_scalar_kernel,
)
from repro.passes.vectorize import auto_vectorized
from tests.helpers import output_bytes


def make_runner(seed: int):
    gen = np.random.default_rng(seed)
    idata = gen.integers(-40, 40, 8).astype(np.int32)
    fdata = gen.random(8).astype(np.float32)
    n = 4 + seed % 5

    def runner(vm):
        pi = vm.memory.store_array(I32, idata, "ip")
        pf = vm.memory.store_array(F32, fdata, "fp")
        r = vm.run("f", [pi, pf, n])
        return {
            "i": vm.memory.load_array(I32, pi, 8),
            "f": vm.memory.load_array(F32, pf, 8),
            "r": r,
        }

    return runner


def make_kernel_runner(seed: int):
    """Runner for the generated-kernel signature (a, x, out, fout, n)."""
    gen = np.random.default_rng(seed)
    n = 3 + seed % 7
    cap = n + 16
    idata = gen.integers(-40, 40, cap).astype(np.int32)
    fdata = gen.random(cap).astype(np.float32)

    def runner(vm):
        pa = vm.memory.store_array(I32, idata, "a")
        px = vm.memory.store_array(F32, fdata, "x")
        po = vm.memory.store_array(I32, np.zeros(cap, np.int32), "out")
        pf = vm.memory.store_array(F32, np.zeros(cap, np.float32), "fout")
        r = vm.run("kernel", [pa, px, po, pf, n])
        return {
            "out": vm.memory.load_array(I32, po, cap),
            "fout": vm.memory.load_array(F32, pf, cap),
            "r": r,
        }

    return runner


def engine_stream(
    module: Module, engine: str, seeds=range(3), runner_factory=make_runner
) -> list:
    """Every observable of a seeded campaign, nan-safe via ``repr``."""
    injector = FaultInjector(
        module, category="all", step_limit=200_000, engine=engine
    )
    stream = []
    for seed in seeds:
        runner = runner_factory(seed)
        try:
            golden = injector.golden(runner)
        except VMTrap as trap:
            # Golden traps are legal fuzz outputs; parity of (type,
            # message) across engines is the differential property.
            stream.append(repr(("golden-trap", type(trap).__name__, str(trap))))
            continue
        if golden.dynamic_sites == 0:  # pragma: no cover - category="all"
            stream.append("zero-site")
            continue
        result = injector.experiment(
            runner, Random(seed * 7919 + 3), golden=golden
        )
        stream.append(
            repr(
                (
                    output_bytes(golden.output),
                    golden.dynamic_sites,
                    golden.dynamic_instructions,
                    bytes(golden.site_widths),
                    result.outcome,
                    result.crash_kind,
                    result.injection,
                    result.dynamic_sites,
                    result.target_index,
                    result.faulty_dynamic_instructions,
                )
            )
        )
    return stream


#: Seed counts are env-configurable so CI's extended matrix can widen the
#: sweep without editing the file (see .github/workflows/ci.yml).
_FUZZ_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "20"))
_REMAINDER_SEEDS = int(os.environ.get("REPRO_REMAINDER_SEEDS", "8"))
_AUTOVEC_SEEDS = int(os.environ.get("REPRO_AUTOVEC_SEEDS", "2"))


@pytest.mark.parametrize("module_seed", range(_FUZZ_SEEDS))
def test_engines_bit_identical_on_random_modules(module_seed):
    module = build_random_module(module_seed)
    assert engine_stream(module, "direct") == engine_stream(
        module, "instrumented"
    ), f"direct diverged from the instrumented oracle on fuzz module seed {module_seed}"


@pytest.mark.parametrize("module_seed", range(_REMAINDER_SEEDS))
def test_engines_bit_identical_on_masked_remainder_loops(module_seed):
    """Trip counts 5, 6, 7 (runner seeds 1-3) never divide the 4-lane
    width, so every module's last iteration runs a partial mask."""
    module = build_remainder_module(module_seed)
    assert engine_stream(module, "direct", seeds=range(1, 4)) == engine_stream(
        module, "instrumented", seeds=range(1, 4)
    ), (
        f"direct diverged from the instrumented oracle on masked-remainder "
        f"module seed {module_seed}"
    )


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
@pytest.mark.parametrize("module_seed", range(_AUTOVEC_SEEDS))
def test_engines_bit_identical_on_autovectorized_kernels(shape, module_seed):
    """Auto-vectorized generated kernels through the same differential
    harness: the pass's predicated masked loads/stores, lane-mask
    insertelement chains, and epilogue selects are injection surfaces the
    frontend never produces in quite this arrangement."""
    scalar = build_scalar_kernel(module_seed, shape)
    module, report = auto_vectorized(scalar, "sse")
    assert report.vectorized, [loop.to_dict() for loop in report.loops]
    assert engine_stream(
        module, "direct", runner_factory=make_kernel_runner
    ) == engine_stream(module, "instrumented", runner_factory=make_kernel_runner), (
        f"direct diverged from the instrumented oracle on auto-vectorized "
        f"{shape} kernel seed {module_seed}"
    )


def test_generator_exercises_the_interesting_shapes():
    """The fuzzer is only worth its runtime if the shapes it promises
    (vector phis, masked intrinsics, memory traffic) actually occur."""
    opcodes = set()
    masked = 0
    for seed in range(20):
        module = build_random_module(seed)
        for fn in module.defined_functions():
            for instr in fn.instructions():
                opcodes.add(instr.opcode)
                callee = getattr(instr, "callee", None)
                if callee is not None and "masked" in callee.name:
                    masked += 1
    assert {"phi", "load", "store", "call", "shufflevector"} <= opcodes
    assert masked > 0
