"""Workload registry invariants."""

from random import Random

import pytest

from repro.workloads import (
    Workload,
    all_workloads,
    benchmark_workloads,
    get_workload,
    micro_workloads,
)


class TestRegistry:
    def test_nine_benchmarks_in_paper_order(self):
        names = [w.name for w in benchmark_workloads()]
        assert names == [
            "fluidanimate",
            "swaptions",
            "blackscholes",
            "sorting",
            "stencil",
            "raytracing",
            "chebyshev",
            "jacobi",
            "cg",
        ]

    def test_three_micro_benchmarks(self):
        assert [w.name for w in micro_workloads()] == [
            "vcopy",
            "dot_product",
            "vector_sum",
        ]

    def test_suites_match_table1(self):
        suites = {w.name: w.suite for w in benchmark_workloads()}
        assert suites["fluidanimate"] == "Parvec"
        assert suites["swaptions"] == "Parvec"
        assert suites["blackscholes"] == "ISPC"
        assert suites["chebyshev"] == "SCL"
        assert suites["jacobi"] == "SCL"
        assert suites["cg"] == "SCL"

    def test_languages_match_table1(self):
        langs = {w.name: w.language for w in benchmark_workloads()}
        assert langs["fluidanimate"] == "C++"
        assert langs["swaptions"] == "C++"
        assert all(
            langs[n] == "ISPC"
            for n in ("blackscholes", "sorting", "stencil", "raytracing")
        )

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            get_workload("pacman")

    def test_module_cache_by_target_and_flags(self):
        w = get_workload("vcopy")
        m1 = w.compile("avx")
        m2 = w.compile("avx")
        m3 = w.compile("sse")
        m4 = w.compile("avx", foreach_detectors=True)
        assert m1 is m2
        assert m1 is not m3
        assert m1 is not m4

    def test_sampling_stays_inside_input_space(self):
        rng = Random(0)
        for w in all_workloads():
            for _ in range(5):
                params = w.sample_input(rng)
                assert isinstance(params, dict) and params

    def test_input_summaries_present(self):
        for w in all_workloads():
            assert w.input_summary

    def test_every_workload_has_entry_in_module(self):
        for w in all_workloads():
            m = w.compile("avx")
            assert not m.get_function(w.entry).is_declaration

    def test_runner_builds_its_input_on_first_call(self):
        built = []
        base = get_workload("vector_sum")

        def make_runner(params):
            built.append(params)
            return base.make_runner(params)

        w = Workload(
            name="lazy", suite="Micro", language="ISPC", description="",
            source=base.source, entry=base.entry,
            sample_input=base.sample_input, make_runner=make_runner,
        )
        runner = w.build_runner({"n": 16, "seed": 3})
        assert built == []
        assert runner.params == {"n": 16, "seed": 3}
        assert runner.input_key == ("lazy", (("n", 16), ("seed", 3)))
        from repro.vm.interpreter import Interpreter

        module = base.compile("avx")
        first = runner(Interpreter(module))
        assert runner(Interpreter(module)) == first
        assert built == [{"n": 16, "seed": 3}]

    def test_duplicate_registration_rejected(self):
        from repro.workloads.registry import register

        w = get_workload("vcopy")
        with pytest.raises(ValueError):
            register(w)


class TestRegistryFingerprint:
    """The memoized fingerprint: same value, ~300x cheaper, and correctly
    invalidated when the registry's membership changes."""

    def test_memoized_value_is_stable(self):
        from repro.workloads import registry

        first = registry.registry_fingerprint()
        assert registry._fingerprint_cache == first
        assert registry.registry_fingerprint() == first

    def test_register_invalidates_the_cache(self):
        from repro.workloads import registry

        before = registry.registry_fingerprint()
        w = get_workload("vcopy")
        extra = type(w)(
            name="___fingerprint_probe",
            suite=w.suite,
            language=w.language,
            description="cache invalidation probe",
            source=w.source,
            entry=w.entry,
            sample_input=w.sample_input,
            make_runner=w.make_runner,
            input_summary=w.input_summary,
        )
        registry.register(extra)
        try:
            assert registry._fingerprint_cache is None
            after = registry.registry_fingerprint()
            assert after != before
        finally:
            del registry._REGISTRY["___fingerprint_probe"]
            registry._fingerprint_cache = None
        assert registry.registry_fingerprint() == before

    def test_memoization_is_much_faster_than_rehashing(self):
        # Not a timing floor (tier-1 stays timing-free) — just proof the
        # hot path no longer walks every workload source: the cached call
        # must not touch hashlib at all.
        import hashlib
        from unittest import mock

        from repro.workloads import registry

        registry.registry_fingerprint()  # prime
        with mock.patch.object(
            hashlib, "sha256", side_effect=AssertionError("rehashed")
        ):
            registry.registry_fingerprint()
