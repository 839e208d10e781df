"""Outcome classification for fault-injection experiments (paper §IV-B).

* **SDC** — the faulty run terminates but its output differs from the
  golden run's;
* **Benign** — outputs are identical;
* **Crash** — the faulty run traps (simulated segfault/SIGFPE), exceeds its
  step budget (a hang, killed by the watchdog), or otherwise fails in a way
  "that could easily be detected by the end user".

Orthogonally, a run is **detected** when an inserted error detector fired —
the paper reports detection *within* the SDC population (Fig. 12), so
detection is a flag on the result, not a fourth outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .runtime import InjectionRecord


class Outcome(str, Enum):
    SDC = "sdc"
    BENIGN = "benign"
    CRASH = "crash"


def values_equal(a, b) -> bool:
    """Bitwise-faithful comparison of one output item (array or scalar).

    NaNs compare equal to NaNs in the same positions: a faulty run that
    produces the *same* NaN pattern as the golden run is not a corruption.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != b.shape:
            return False
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            return bool(np.array_equal(a, b, equal_nan=True))
        return bool(np.array_equal(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return (a == b) or (a != a and b != b)
    return a == b


def outputs_equal(golden: dict, faulty: dict) -> bool:
    if golden.keys() != faulty.keys():
        return False
    return all(values_equal(golden[k], faulty[k]) for k in golden)


@dataclass
class ExperimentResult:
    """Everything recorded about one fault-injection experiment."""

    outcome: Outcome
    detected: bool = False
    crash_kind: str | None = None  # errors.VMTrap.kind when outcome == CRASH
    injection: InjectionRecord | None = None
    dynamic_sites: int = 0  # N from the golden run
    target_index: int = 0  # k chosen uniformly from {1..N}
    site_categories: frozenset[str] = frozenset()
    golden_dynamic_instructions: int = 0
    #: Dynamic-instruction total of the faulty run itself (at the trap, for
    #: crashes).  A convergence early-exit reports the golden total — the
    #: exit's premise is that the remaining suffix *is* the golden suffix,
    #: so the completed run's total provably equals it.
    faulty_dynamic_instructions: int = 0

    @property
    def is_sdc(self) -> bool:
        return self.outcome is Outcome.SDC

    @property
    def is_crash(self) -> bool:
        return self.outcome is Outcome.CRASH

    @property
    def is_benign(self) -> bool:
        return self.outcome is Outcome.BENIGN
