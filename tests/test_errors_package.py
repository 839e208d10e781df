"""Exception taxonomy and package-level surface."""

import pytest

import repro
from repro import errors


class TestTaxonomy:
    def test_all_derive_from_repro_error(self):
        for cls in (
            errors.IRError,
            errors.VerificationError,
            errors.IRParseError,
            errors.FrontendError,
            errors.LexError,
            errors.ParseError,
            errors.SemaError,
            errors.VMTrap,
            errors.MemoryFault,
            errors.ArithmeticTrap,
            errors.StepLimitExceeded,
            errors.InvalidOperation,
            errors.InjectionError,
            errors.DetectionEvent,
        ):
            assert issubclass(cls, errors.ReproError)

    def test_trap_kinds_are_crash_taxonomy(self):
        assert errors.MemoryFault("x").kind == "segfault"
        assert errors.ArithmeticTrap("x").kind == "sigfpe"
        assert errors.StepLimitExceeded("x").kind == "timeout"
        assert errors.InvalidOperation("x").kind == "invalid-op"

    def test_verification_error_carries_problems(self):
        e = errors.VerificationError(["a", "b"])
        assert e.problems == ["a", "b"]
        assert "a; b" in str(e)

    def test_frontend_error_location(self):
        e = errors.SemaError("bad", line=3, col=7)
        assert "3:7" in str(e)
        assert e.line == 3

    def test_parse_error_line(self):
        e = errors.IRParseError("oops", line=12)
        assert "line 12" in str(e)

    def test_detection_event_format(self):
        e = errors.DetectionEvent("foreach-invariants", "violated")
        assert e.detector == "foreach-invariants"
        assert "foreach-invariants" in str(e)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_subpackages_import(self):
        import repro.analysis
        import repro.core
        import repro.detectors
        import repro.experiments
        import repro.frontend
        import repro.ir
        import repro.passes
        import repro.vm
        import repro.workloads

    def test_ir_all_exports_resolve(self):
        import repro.ir as ir

        for name in ir.__all__:
            assert hasattr(ir, name), name

    def test_core_all_exports_resolve(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name
