"""Workload registry: the paper's nine benchmarks plus the §IV-E micros.

A :class:`Workload` bundles MiniISPC source, an entry point, a *predefined
input space* (§IV-B draws each experiment's input at random from such a
set), and a runner builder that allocates inputs in a fresh VM, invokes the
kernel, and collects the output arrays that define SDC equality.

Compiled modules are cached per (workload, target, detector flags) — the
engine clones before instrumenting, so cached modules stay pristine.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from random import Random
from typing import Callable

from ..frontend.driver import compile_source
from ..frontend.target import Target, get_target
from ..ir.module import Module
from ..vm.interpreter import Interpreter

#: Bump when the registry's *semantics* change incompatibly (a workload's
#: input space, runner protocol, or output definition).  Campaign-store
#: manifests pin this alongside :func:`registry_fingerprint`; resuming a
#: store recorded under a different registry is refused as unsound.
REGISTRY_VERSION = 1

#: suite labels used in Table I
PARVEC = "Parvec"
ISPC_SUITE = "ISPC"
SCL = "SCL"
MICRO = "Micro"
#: generator-backed kernels (not in the paper's Table I)
GENERATED = "Generated"


@dataclass
class Workload:
    name: str
    suite: str
    language: str
    description: str
    source: str
    entry: str
    #: Draw one input instance (a plain dict of parameters) from the
    #: predefined input space.
    sample_input: Callable[[Random], dict]
    #: Build a deterministic runner for one input instance.
    make_runner: Callable[[dict], Callable[[Interpreter], dict]]
    #: Human-readable summary of the input space (Table I's "Test Input").
    input_summary: str = ""
    _module_cache: dict = field(default_factory=dict, repr=False)
    _compile_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    def compile(
        self,
        target: Target | str = "avx",
        foreach_detectors: bool = False,
        uniform_detectors: bool = False,
    ) -> Module:
        tgt = get_target(target) if isinstance(target, str) else target
        key = (tgt.name, foreach_detectors, uniform_detectors)
        module = self._module_cache.get(key)
        if module is None:
            # Double-checked under the lock: concurrent campaign-service
            # threads racing here must converge on ONE canonical module
            # object per key (fingerprints and golden caches key off it).
            with self._compile_lock:
                module = self._module_cache.get(key)
                if module is None:
                    module = compile_source(
                        self.source,
                        tgt,
                        name=f"{self.name}-{tgt.name}",
                        foreach_detectors=foreach_detectors,
                        uniform_detectors=uniform_detectors,
                    )
                    self._module_cache[key] = module
        return module

    def build_runner(self, params: dict) -> "InputRunner":
        """Build a runner that remembers its input.

        The returned runner carries ``params`` (so a parallel worker can
        rebuild it from a pickled schedule entry) and a hashable
        ``input_key`` identifying the input instance (so the engine's golden
        cache can memoize the golden run per distinct input).  Inputs with
        unhashable parameter values get ``input_key = None`` — still
        runnable, just never cached.  The input arrays are generated on the
        runner's first call: a shard draws every schedule position's runner
        but runs only its own.
        """
        params = dict(params)
        try:
            input_key = (self.name, tuple(sorted(params.items())))
            hash(input_key)
        except TypeError:
            input_key = None
        return InputRunner(self.make_runner, params, input_key)

    def runner_factory(self) -> Callable[[Random], Callable[[Interpreter], dict]]:
        def factory(rng: Random):
            return self.build_runner(self.sample_input(rng))

        return factory

    def reference_runner(self, seed: int = 0):
        """A runner for a fixed representative input (docs/examples)."""
        return self.make_runner(self.sample_input(Random(seed)))


class InputRunner:
    """One input instance's runner, built by ``make_runner`` on first call."""

    __slots__ = ("params", "input_key", "_make", "_run")

    def __init__(self, make_runner, params: dict, input_key):
        self.params = params
        self.input_key = input_key
        self._make = make_runner
        self._run = None

    def __call__(self, vm: Interpreter) -> dict:
        if self._run is None:
            self._run = self._make(self.params)
        return self._run(vm)


_REGISTRY: dict[str, Workload] = {}

#: Memoized :func:`registry_fingerprint` value.  Hashing re-reads every
#: workload's full MiniISPC source (~tens of KB), and the fingerprint is
#: recomputed per manifest write and per ``verify`` — hot enough to matter
#: for the campaign service, which manifests every accepted submission.
#: Any registry mutation (:func:`register`) invalidates it.
_fingerprint_cache: str | None = None


def register(workload: Workload) -> Workload:
    global _fingerprint_cache
    if workload.name in _REGISTRY:
        raise ValueError(f"workload {workload.name!r} already registered")
    _REGISTRY[workload.name] = workload
    _fingerprint_cache = None
    return workload


def get_workload(name: str) -> Workload:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def build_runner(name: str, params: dict):
    """Module-level :meth:`Workload.build_runner` by workload name.

    Picklable via ``functools.partial(build_runner, name)`` — this is the
    ``make_runner`` callable a :class:`~repro.core.parallel.WorkerContext`
    ships to worker processes.
    """
    return get_workload(name).build_runner(params)


def all_workloads(suite: str | None = None) -> list[Workload]:
    _ensure_loaded()
    ws = list(_REGISTRY.values())
    if suite is not None:
        ws = [w for w in ws if w.suite == suite]
    return ws


def benchmark_workloads() -> list[Workload]:
    """The nine Table-I benchmarks, in the paper's order."""
    _ensure_loaded()
    order = [
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
    return [_REGISTRY[n] for n in order]


def registry_fingerprint() -> str:
    """Content hash over every registered workload's identity.

    Covers name, suite, entry point, input-space summary, and the MiniISPC
    source itself — everything that determines what a stored experiment
    *meant*.  Campaign-store manifests pin it so a resumed campaign is
    guaranteed to splice new results onto old ones drawn from the same
    input spaces and kernels.

    Memoized: ``Workload.source`` is immutable after registration, so the
    hash only changes when the registry's membership does — the cache is
    dropped on every :func:`register` (which also covers the lazy
    :func:`_ensure_loaded` bulk registration).
    """
    global _fingerprint_cache
    _ensure_loaded()
    if _fingerprint_cache is not None:
        return _fingerprint_cache
    h = hashlib.sha256()
    for name in sorted(_REGISTRY):
        w = _REGISTRY[name]
        h.update(f"{name}\x00{w.suite}\x00{w.entry}\x00{w.input_summary}\x00".encode())
        h.update(hashlib.sha256(w.source.encode()).digest())
    _fingerprint_cache = h.hexdigest()
    return _fingerprint_cache


def micro_workloads() -> list[Workload]:
    """The §IV-E micro-benchmarks: vector copy, dot product, vector sum."""
    _ensure_loaded()
    return [_REGISTRY[n] for n in ("vcopy", "dot_product", "vector_sum")]


_loaded = False
#: Serializes the lazy bulk registration: without it a second thread
#: could observe a half-populated registry mid-import (the campaign
#: service resolves workloads from concurrent executor threads).
#: Reentrant because workload modules may consult the registry while
#: registering.
_load_lock = threading.RLock()


def _ensure_loaded() -> None:
    global _loaded
    if _loaded:
        return
    with _load_lock:
        if _loaded:
            return
        # Import for registration side effects.
        from . import (  # noqa: F401
            blackscholes,
            cg,
            chebyshev,
            fluidanimate,
            generated,
            jacobi,
            micro,
            raytracing,
            sorting,
            stencil,
            swaptions,
        )

        _loaded = True
