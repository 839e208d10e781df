"""Differential matrix: the direct engine vs the instrumented reference.

The direct engine runs compiled superblock chains over the decoded plan
(:mod:`repro.vm.compile`), so this matrix pins the whole fast path —
chains, batched NumPy tier, decoded fallback — to the oracle.

The direct engine's contract is *bit-identical* experiment streams: same
site ids, same dynamic-site order and widths, same RNG-stream consumption,
same records, same outcomes and crash kinds, same dynamic-instruction
totals.  The instrumented engine is VULFI's actual §II-D mechanism, so it
is the oracle; every test here runs both engines on the same schedule and
compares the complete observable stream — including the hard cases the
instrumented chains handle structurally (sign-bit-masked AVX intrinsics,
i1-masked SSE intrinsics, pointer sites' ptrtoint/inttoptr sandwich).
"""

import math
import struct
from random import Random

import numpy as np
import pytest

from repro.core import (
    ENGINES,
    CampaignConfig,
    FaultInjector,
    build_injection_plan,
    enumerate_module_sites,
    filter_sites,
    run_campaigns,
)
from repro.errors import InjectionError
from repro.frontend import compile_source
from repro.ir.types import F32, I32, PointerType
from repro.workloads import all_workloads, get_workload, micro_workloads
from tests.helpers import output_bytes

INT_KERNEL = """
export void k(uniform int a[], uniform int b[], uniform int n) {
    foreach (i = 0 ... n) { b[i] = a[i] * 3 - 2; }
}
"""

FLOAT_KERNEL = """
export void k(uniform float a[], uniform float b[], uniform int n) {
    foreach (i = 0 ... n) { b[i] = a[i] * 1.5 + 0.25; }
}
"""


def int_runner(n=13, seed=0):
    data = np.random.default_rng(seed).integers(-50, 50, n).astype(np.int32)

    def runner(vm):
        pa = vm.memory.store_array(I32, data, "a")
        pb = vm.memory.store_array(I32, np.zeros(n, dtype=np.int32), "b")
        vm.run("k", [pa, pb, n])
        return {"b": vm.memory.load_array(I32, pb, n)}

    return runner


def float_runner(n=13, seed=0):
    data = np.random.default_rng(seed).random(n).astype(np.float32)

    def runner(vm):
        pa = vm.memory.store_array(F32, data, "a")
        pb = vm.memory.store_array(F32, np.zeros(n, dtype=np.float32), "b")
        vm.run("k", [pa, pb, n])
        return {"b": vm.memory.load_array(F32, pb, n)}

    return runner


def experiment_stream(
    module,
    runner_factory,
    engine,
    category="all",
    seeds=range(4),
    respect_masks=True,
    step_limit=500_000,
):
    """Every observable of a seeded experiment sequence, nan-safe.

    ``repr`` comparison sidesteps ``nan != nan`` in
    :class:`InjectionRecord` equality — a bit flip regularly mints NaNs.
    """
    injector = FaultInjector(
        module,
        category=category,
        step_limit=step_limit,
        respect_masks=respect_masks,
        engine=engine,
    )
    stream = []
    for seed in seeds:
        runner = runner_factory(seed=seed)
        golden = injector.golden(runner)
        result = injector.experiment(runner, Random(seed * 7919 + 3), golden=golden)
        stream.append(
            repr(
                (
                    golden.dynamic_sites,
                    golden.dynamic_instructions,
                    bytes(golden.site_widths),
                    result.outcome,
                    result.crash_kind,
                    result.injection,
                    result.dynamic_sites,
                    result.target_index,
                    sorted(result.site_categories),
                )
            )
        )
    return stream


def assert_engines_agree(module, runner_factory, **kwargs):
    direct = experiment_stream(module, runner_factory, "direct", **kwargs)
    instrumented = experiment_stream(module, runner_factory, "instrumented", **kwargs)
    assert direct == instrumented


def workload_stream(
    workload, engine, category="all", seeds=range(3), target="avx"
):
    module = workload.compile(target)
    injector = FaultInjector(
        module, category=category, step_limit=500_000, engine=engine
    )
    stream = []
    for seed in seeds:
        runner = workload.build_runner(workload.sample_input(Random(seed)))
        golden = injector.golden(runner)
        result = injector.experiment(runner, Random(seed * 7919 + 3), golden=golden)
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
                    result.target_index,
                    sorted(result.site_categories),
                )
            )
        )
    return stream


class TestRegistryMatrix:
    """Both engines over the workload registry and the site categories."""

    @pytest.mark.parametrize("workload", micro_workloads(), ids=lambda w: w.name)
    @pytest.mark.parametrize("category", ["pure-data", "control", "address"])
    def test_micro_per_category(self, workload, category):
        assert workload_stream(workload, "direct", category) == workload_stream(
            workload, "instrumented", category
        )

    @pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
    def test_every_registry_workload(self, workload):
        seeds = range(2)
        for target in ("avx", "sse"):
            oracle = workload_stream(
                workload, "instrumented", seeds=seeds, target=target
            )
            assert (
                workload_stream(workload, "direct", seeds=seeds, target=target)
                == oracle
            ), target


class TestNonFiniteMath:
    """A flipped exponent bit can feed inf or NaN to a math intrinsic.  All
    engines share one math table, which must return C's IEEE result there
    instead of raising a host ``ValueError`` that kills the campaign."""

    def test_table_returns_ieee_results(self):
        from repro.vm.ops import MATH_FNS

        for name in ("sin", "cos"):
            for x in (math.inf, -math.inf, math.nan):
                assert math.isnan(MATH_FNS[name](x))
        for name in ("floor", "ceil"):
            assert MATH_FNS[name](math.inf) == math.inf
            assert MATH_FNS[name](-math.inf) == -math.inf
            assert math.isnan(MATH_FNS[name](math.nan))

    @pytest.mark.parametrize("x", [-2.5, -0.0, 0.3, 1.5, 7.0, 1e300, -1e-310])
    def test_finite_arguments_are_unchanged(self, x):
        from repro.vm.ops import MATH_FNS

        bits = lambda v: struct.pack("<d", v)
        for name in ("sin", "cos", "floor", "ceil"):
            expected = getattr(math, name)(x)
            got = MATH_FNS[name](x)
            assert type(got) is type(expected)
            assert bits(got) == bits(expected)

    @pytest.mark.parametrize(
        "target, seed", [("sse", 1683844437), ("avx", 3634175658)]
    )
    def test_chebyshev_campaign_classifies_on_every_engine(self, target, seed):
        """Both seeds used to crash the host with ``math domain error``."""
        workload = get_workload("chebyshev")
        config = CampaignConfig(8, 1, 1)
        campaigns = {
            engine: run_campaigns(
                FaultInjector(
                    workload.compile(target), category="pure-data",
                    engine=engine,
                ),
                workload.runner_factory(),
                config,
                seed=seed,
            ).campaigns
            for engine in ENGINES
        }
        assert campaigns["direct"] == campaigns["instrumented"]
        assert campaigns["direct"][0].total == 8


class TestPointerSites:
    """Address faults go through the ptrtoint/inttoptr sandwich (§II-D)."""

    def test_address_category_has_pointer_sites(self):
        module = compile_source(INT_KERNEL, "avx")
        sites = filter_sites(enumerate_module_sites(module), "address")
        assert any(isinstance(s.scalar_type, PointerType) for s in sites)

    def test_pointer_differential(self):
        module = compile_source(INT_KERNEL, "avx")
        assert_engines_agree(
            module, int_runner, category="address", seeds=range(8)
        )

    def test_pointer_flip_records_int64(self):
        module = compile_source(INT_KERNEL, "avx")
        injector = FaultInjector(module, category="address", engine="direct")
        runner = int_runner()
        golden = injector.golden(runner)
        # Sweep sites until one lands on a pointer (width 64 in the count
        # run's record); low bits keep the access in-bounds -> not a crash.
        for k, width in enumerate(golden.site_widths, start=1):
            if width == 64:
                result = injector.faulty(runner, golden, k, bit=2)
                assert result.injection.type_name == "Int64"
                break
        else:  # pragma: no cover
            pytest.fail("no pointer site exercised")


class TestMaskedSites:
    """Execution-mask decoding must match the spliced chains bit for bit."""

    def test_avx_sign_int_masked_differential(self):
        # AVX uses the sign-bit mask convention; integer lanes decode the
        # mask with a bare lshr.
        module = compile_source(INT_KERNEL, "avx")
        sites = enumerate_module_sites(module)
        assert any(s.mask is not None for s in sites)
        assert_engines_agree(module, int_runner, seeds=range(8))

    def test_avx_sign_float_masked_differential(self):
        # Float lanes decode the sign-bit mask with bitcast + lshr.
        module = compile_source(FLOAT_KERNEL, "avx")
        sites = enumerate_module_sites(module)
        assert any(s.mask is not None for s in sites)
        assert_engines_agree(module, float_runner, seeds=range(8))

    def test_sse_i1_masked_differential(self):
        # SSE uses <N x i1> masks decoded with zext.
        module = compile_source(INT_KERNEL, "sse")
        assert_engines_agree(module, int_runner, seeds=range(8))

    def test_mask_unaware_ablation_differential(self):
        # respect_masks=False treats every lane as active in both engines;
        # the direct engine must charge the cheaper unmasked chain tax.
        module = compile_source(FLOAT_KERNEL, "avx")
        assert_engines_agree(module, float_runner, respect_masks=False, seeds=range(6))

    def test_masked_dynamic_counts_differ_from_unaware(self):
        # Sanity that the ablation changes anything at all: a partial
        # final iteration means dead lanes, which only the unaware run
        # counts as dynamic sites.
        module = compile_source(FLOAT_KERNEL, "avx")
        aware = FaultInjector(module, engine="direct").golden(float_runner())
        unaware = FaultInjector(module, engine="direct", respect_masks=False).golden(
            float_runner()
        )
        assert unaware.dynamic_sites > aware.dynamic_sites


class TestStepLimitParity:
    """Timeout crashes must trip at identical dynamic-instruction budgets."""

    def test_crash_parity_at_tight_budget(self):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        runner = workload.build_runner(workload.sample_input(Random(1)))

        def stream(engine):
            injector = FaultInjector(
                module, category="control", step_limit=500_000, engine=engine
            )
            golden = injector.golden(runner)
            # Re-run every control-site experiment against a budget with no
            # slack: any injected flip that lengthens execution (or loops)
            # must overrun at the same instruction in both engines.
            tight = FaultInjector(
                module,
                category="control",
                step_limit=golden.dynamic_instructions,
                engine=engine,
            )
            return [
                repr(
                    (
                        r.outcome,
                        r.crash_kind,
                        r.injection,
                    )
                )
                for k in range(1, golden.dynamic_sites + 1)
                for r in (tight.faulty(runner, golden, k, bit=0),)
            ]

        assert stream("direct") == stream("instrumented")


class TestEngineApi:
    def test_unknown_engine_rejected(self):
        module = compile_source(INT_KERNEL, "avx")
        with pytest.raises(InjectionError, match="unknown engine"):
            FaultInjector(module, engine="jit")

    def test_engines_constant(self):
        assert ENGINES == ("direct", "instrumented")

    def test_direct_engine_keeps_module_pristine(self):
        module = compile_source(INT_KERNEL, "avx")
        version = module.version
        count = len(list(module.get_function("k").instructions()))
        FaultInjector(module, engine="direct")
        assert module.version == version
        assert len(list(module.get_function("k").instructions())) == count

    def test_plan_covers_every_site(self):
        module = compile_source(INT_KERNEL, "avx")
        sites = enumerate_module_sites(module)
        plan = build_injection_plan(sites)
        assert len(plan) == len(sites)

    def test_worker_payload_carries_engine(self):
        module = compile_source(INT_KERNEL, "avx")
        for engine in ENGINES:
            payload = FaultInjector(module, engine=engine).worker_payload()
            assert payload["engine"] == engine
            rebuilt = FaultInjector(**payload)
            assert rebuilt.engine == engine

    def test_direct_site_ids_match_instrumented(self):
        module = compile_source(INT_KERNEL, "avx")
        direct = FaultInjector(module, engine="direct")
        instrumented = FaultInjector(module, engine="instrumented")
        assert [
            (s.site_id, s.lane, str(s.scalar_type), sorted(s.categories))
            for s in direct.sites
        ] == [
            (s.site_id, s.lane, str(s.scalar_type), sorted(s.categories))
            for s in instrumented.sites
        ]
