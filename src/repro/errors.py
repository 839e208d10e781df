"""Exception taxonomy shared by every repro subsystem.

The hierarchy mirrors the layering of the system: IR-structural errors,
frontend (MiniISPC) compilation errors, VM traps raised while executing IR,
and fault-injection configuration errors.  Code that drives whole pipelines
(e.g. :mod:`repro.core.injector`) catches :class:`VMTrap` subclasses to
classify a faulty run as a *Crash* outcome, so the trap classes carry enough
context (kind, message) to be reported in experiment output.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# IR-level errors
# ---------------------------------------------------------------------------


class IRError(ReproError):
    """Structural misuse of the IR API (bad operand type, missing block...)."""


class VerificationError(IRError):
    """The IR verifier found a malformed module.

    Carries the full list of individual complaints so tests can assert on
    specific failures.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class IRParseError(IRError):
    """Textual IR could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Frontend (MiniISPC) errors
# ---------------------------------------------------------------------------


class FrontendError(ReproError):
    """Base class for MiniISPC compilation errors."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = f"{line}:{col if col is not None else '?'}: "
        super().__init__(loc + message)


class LexError(FrontendError):
    """Invalid token in MiniISPC source."""


class ParseError(FrontendError):
    """MiniISPC source does not conform to the grammar."""


class SemaError(FrontendError):
    """Type or uniform/varying qualifier violation."""


# ---------------------------------------------------------------------------
# VM traps — runtime failures of the simulated machine
# ---------------------------------------------------------------------------


class VMTrap(ReproError):
    """Base class for simulated hardware/OS traps.

    A trap terminates the simulated program and is classified as a *Crash*
    outcome by the fault-injection driver, matching the paper's definition of
    crash as "a system failure, a program crash, or any other issue that could
    easily be detected by the end user".
    """

    kind = "trap"


class MemoryFault(VMTrap):
    """Out-of-bounds or unmapped memory access (simulated SIGSEGV)."""

    kind = "segfault"


class ArithmeticTrap(VMTrap):
    """Integer division by zero or INT_MIN / -1 overflow (simulated SIGFPE)."""

    kind = "sigfpe"


class StepLimitExceeded(VMTrap):
    """The program exceeded its dynamic instruction budget (simulated hang).

    Fault injection can turn terminating loops into unbounded ones; real
    campaigns kill such runs with a watchdog timeout and report them as
    crashes.  The VM enforces a configurable step limit for the same purpose.
    """

    kind = "timeout"


class InvalidOperation(VMTrap):
    """The interpreter met IR it cannot execute (undefined function, etc.)."""

    kind = "invalid-op"


# ---------------------------------------------------------------------------
# Fault-injection / campaign configuration errors
# ---------------------------------------------------------------------------


class InjectionError(ReproError):
    """Misconfigured fault-injection experiment (bad site index, no sites...)."""


class DetectionEvent(ReproError):
    """Raised by a detector runtime call when an invariant check fails.

    This is *not* an error in the tooling: it is the detector firing.  The
    injector catches it and records the run as detected.  It derives from
    ``ReproError`` so stray events surface loudly if a driver forgets to
    handle them.
    """

    def __init__(self, detector: str, message: str):
        self.detector = detector
        super().__init__(f"[{detector}] {message}")
