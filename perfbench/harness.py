"""Shared pieces of the benchmark: seeds, accounting, percentiles, checks.

Every workload module builds its run on these, so the rules they encode —
how a workload seed becomes campaign seeds, what counts as a failed
operation, which tail percentile may be reported, how outputs are
digested and compared with recorded references — hold for all of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: The checkout root: the benchmark lives in ``<root>/perfbench/`` and
#: runs the program from ``<root>/src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

#: Tail percentiles tried from the top; the first one with at least
#: ``TAIL_BEYOND`` samples strictly beyond it is the one reported.
TAIL_LEVELS = (0.99, 0.95, 0.90, 0.75, 0.50)
TAIL_BEYOND = 10


def derive_seed(seed: int, *coords) -> int:
    """A 32-bit program seed derived from the workload seed and coordinates.

    The program only ever sees these derived values; the same workload
    seed always yields the same campaign and submission seeds.
    """
    text = ":".join(str(c) for c in ("perfbench", seed, *coords))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def digest(obj) -> str:
    """sha256 of ``obj``'s canonical JSON (sorted keys, no whitespace)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Tally:
    """Attempted vs failed operations; ``error_rate`` is their ratio.

    An operation is an experiment, a service submission, or an output
    check.  Experiments that raise, submissions that fail, and checks that
    do not hold all count as failed.  Safe to share between threads.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._lock = threading.Lock()

    def attempt(self, n: int = 1) -> None:
        with self._lock:
            self.attempted += n

    def fail(self, n: int, why: str) -> None:
        with self._lock:
            self.failed += n
            self.problems.append(why)

    def check(self, ok: bool, why: str) -> bool:
        """One output check: attempted once, failed if ``ok`` is false."""
        self.attempt()
        if not ok:
            self.fail(1, why)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def nearest_rank(ordered: list[float], q: float) -> tuple[float, int]:
    """The ``q``-quantile of sorted samples by nearest rank, and how many
    samples lie strictly beyond it."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples: list[float]) -> tuple[str, float] | None:
    """The highest percentile with >= ``TAIL_BEYOND`` samples beyond it.

    Returns ``("p95", value)`` style pairs, or ``None`` when even the
    median has fewer than ten samples above it.
    """
    ordered = sorted(samples)
    if not ordered:
        return None
    for q in TAIL_LEVELS:
        value, beyond = nearest_rank(ordered, q)
        if beyond >= TAIL_BEYOND:
            return f"p{round(q * 100)}", value
    return None


def median(values) -> float:
    return statistics.median(values)


class References:
    """Recorded output digests, keyed by workload, then seed, then item.

    Only some seeds have references (see ``record_references.py``); for
    the rest a workload falls back to invariant and determinism checks.
    """

    def __init__(self, path: Path = REFERENCES):
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def for_seed(self, workload: str, seed: int) -> dict | None:
        return self.data.get(workload, {}).get(str(seed))


def check_reference(tally: Tally, refs: dict | None, key: str, value, what: str) -> None:
    """Compare ``value`` with the reference for ``key``, if one exists."""
    if refs is None or key not in refs:
        return
    tally.check(
        refs[key] == value, f"{what}: got {value!r}, reference {refs[key]!r}"
    )


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def program_env() -> dict:
    """Environment for child processes that run the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_process_setup(workload: str, count: int) -> list[float]:
    """Time ``count`` fresh-process set-ups of ``workload``.

    Each sample runs ``setup_probe.py`` and times it from process launch to
    its ``ready`` line: interpreter start, imports, module compilation and
    injector construction.  The probe exits once timed.
    """
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            stdout=subprocess.PIPE,
            text=True,
            env=program_env(),
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        samples.append(elapsed)
    return samples


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Context:
    """One benchmark run's inputs and accumulators, handed to a workload."""

    def __init__(self, seed: int, seconds: float, work: Path, refs, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.refs = refs
        self.tracer = tracer
        self.tally = Tally()


def overhead(traced_eps: float, untraced_eps: float) -> dict:
    """Tracing overhead: untraced vs traced experiments/s on one workload."""
    return {
        "trace.traced_experiments_per_s": traced_eps,
        "trace.untraced_experiments_per_s": untraced_eps,
        "trace.overhead_pct": (untraced_eps / traced_eps - 1.0) * 100.0,
    }


def latency_note(what: str, samples: list[float]) -> str:
    """Median plus the highest percentile the sample count supports."""
    if not samples:
        return f"{what}: no samples"
    text = f"{what}: p50 {median(samples):.4f} s"
    tail = tail_percentile(samples)
    if tail is not None and tail[0] != "p50":
        text += f", {tail[0]} {tail[1]:.4f} s"
    return text + f" (n={len(samples)})"


def setup_note(samples: list[float]) -> str:
    return "set-up samples: " + ", ".join(f"{s:.3f}" for s in samples) + " s"
