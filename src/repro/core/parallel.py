"""Deterministic parallel experiment execution.

The paper's experiments are embarrassingly parallel — every injection is an
independent (input, site ``k``, bit) triple — but naive fan-out would give
each worker its own RNG and change the published numbers.  Here the *parent*
pre-draws the complete schedule with the one campaign ``Random(seed)``
stream (input draw, then ``k ~ U{1..N}``, then the bit from the golden run's
recorded site width — exactly the serial draw order), and workers only
execute the faulty halves.  Results come back in schedule order, so a
campaign summary is bit-identical to serial execution at any ``--jobs``.

One :class:`ExperimentPool` serves every kind of caller.  Each worker keeps
one dict of engines keyed like the tasks it receives: a sweep hands the
pool every cell's :class:`WorkerContext` up front and workers build those
engines at fork (the pristine module travels with the fork; instrumentation
is deterministic, so site ids agree with the parent's), while a service
keys tasks by :class:`EngineSpec` and workers build each spec's engine on
its first task, then keep it warm.  Golden runs stay in the parent where
the input-keyed cache lives; with ``Pool.imap`` over a lazy schedule
generator they overlap with worker faulty runs.
"""

from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass, field
from typing import Callable

from .injector import (
    DEFAULT_ENGINE,
    BindingsFactory,
    FaultInjector,
    GoldenRun,
    Runner,
)
from .outcomes import ExperimentResult


@dataclass
class WorkerContext:
    """Everything a worker process needs; must be picklable.

    ``bindings_factory_maker`` is called once per worker to produce the
    per-run bindings factory (the factory itself is usually a closure, so
    the picklable *maker* — e.g. ``functools.partial(
    detector_bindings_factory, halt_on_detection=False)`` — travels
    instead).
    """

    injector: dict = field(repr=False)  # FaultInjector kwargs incl. module
    make_runner: Callable[[dict], Runner]
    bindings_factory_maker: Callable[[], BindingsFactory] | None = None


@dataclass(frozen=True)
class EngineSpec:
    """A by-name recipe for one campaign cell's execution engine.

    Unlike :class:`WorkerContext` — which ships the pickled module itself —
    a spec is a few strings: workers rebuild the module by compiling the
    named registry workload locally (compilation and site enumeration are
    deterministic, so the rebuilt engine is bit-identical to the parent's).
    That makes specs cheap enough to ride along with *every* task, which is
    what lets one persistent pool serve campaigns that did not exist when
    the pool forked: a worker receiving a spec it has never seen builds the
    engine once, caches it, and every later campaign on the same spec —
    any tenant, any seed — reuses it warm.
    """

    workload: str
    target: str
    category: str
    engine: str = DEFAULT_ENGINE
    step_limit: int = 2_000_000

    def build(self) -> FaultInjector:
        """Build and warm the engine this spec names.

        The one recipe for both sides of a service: the parent's engine
        cache and every pool worker call it, so they cannot disagree.
        """
        from ..workloads.registry import get_workload

        injector = FaultInjector(
            get_workload(self.workload).compile(self.target),
            category=self.category,
            step_limit=self.step_limit,
            engine=self.engine,
        )
        injector.warm()
        return injector


@dataclass
class ScheduledExperiment:
    """One pre-drawn experiment: rebuild the runner, flip, classify."""

    params: dict
    k: int
    bit: int
    golden_output: dict
    dynamic_sites: int
    golden_dynamic_instructions: int


#: Tasks shipped per pickle round-trip.  Faulty runs take milliseconds, so
#: one-task batches leave workers starved on IPC; a small constant batch
#: keeps the pipeline full without delaying the in-order result stream.
DEFAULT_CHUNKSIZE = 4


class _WorkerEngine:
    """One worker process's execution state for one campaign cell.

    Built exactly once per (worker, cell key), so no task ever pays
    injector construction or module re-decode.  Workers run no goldens:
    each task carries its golden's output and counts, and the faulty run
    replays in full (checkpoint tapes are process-local).
    """

    def __init__(
        self,
        injector: FaultInjector,
        make_runner: Callable[[dict], Runner],
        bindings_factory: BindingsFactory | None = None,
    ):
        self.injector = injector
        self.make_runner = make_runner
        self.bindings_factory = bindings_factory

    @classmethod
    def build(cls, source: WorkerContext | EngineSpec) -> "_WorkerEngine":
        """The engine for a fork-time context or a by-name spec."""
        if isinstance(source, EngineSpec):
            from ..workloads.registry import build_runner

            return cls(
                source.build(), functools.partial(build_runner, source.workload)
            )
        injector = FaultInjector(**source.injector)
        # Decode every defined function and install its chain stubs now;
        # chains still compile on first entry.
        injector.warm()
        maker = source.bindings_factory_maker
        return cls(injector, source.make_runner, maker() if maker else None)

    def run_task(self, task: ScheduledExperiment) -> ExperimentResult:
        golden = GoldenRun(
            output=task.golden_output,
            dynamic_sites=task.dynamic_sites,
            dynamic_instructions=task.golden_dynamic_instructions,
            detector_fired=False,
        )
        return self.injector.faulty(
            self.make_runner(task.params),
            golden,
            task.k,
            bit=task.bit,
            bindings_factory=self.bindings_factory,
        )


#: This worker process's engines, keyed like its tasks: fork-time context
#: keys are built by :func:`_init_worker`, :class:`EngineSpec` keys on their
#: first task; either way an engine lives as long as the worker.
_engines: dict = {}


def _init_worker(contexts: dict) -> None:
    _engines.clear()
    for key, context in contexts.items():
        _engines[key] = _WorkerEngine.build(context)


def _run_task(keyed_task) -> ExperimentResult:
    key, task = keyed_task
    engine = _engines.get(key)
    if engine is None:
        if not isinstance(key, EngineSpec):
            raise KeyError(
                f"no worker context for pool cell {key!r}; pass it to "
                f"ExperimentPool(contexts=...) or key the cell by EngineSpec"
            )
        engine = _engines[key] = _WorkerEngine.build(key)
    return engine.run_task(task)


class ExperimentPool:
    """One worker pool executing pre-drawn schedules in order.

    ``contexts`` maps cell keys to :class:`WorkerContext` objects whose
    engines every worker builds at fork — a sweep forks once for all its
    cells instead of re-spawning (and re-pickling modules) per cell.  A
    cell keyed by an :class:`EngineSpec` needs no context: workers build
    its engine on first use and keep it warm across campaigns, which is
    how a service's pool, forked before any submission exists, serves
    them all.  :meth:`cell` returns the per-cell view campaign drivers
    take as ``pool=``.  Concurrent ``imap`` calls from different threads
    are safe — ``multiprocessing.Pool`` serializes its task queue — and
    each call's results stream back in its own schedule order.
    """

    def __init__(self, jobs: int, contexts: dict | None = None):
        self.jobs = jobs
        self._pool = multiprocessing.get_context().Pool(
            processes=jobs, initializer=_init_worker, initargs=(contexts or {},)
        )

    def cell(self, key) -> "PoolCell":
        return PoolCell(self, key)

    def imap(self, key, schedule, chunksize: int = DEFAULT_CHUNKSIZE):
        return self._pool.imap(
            _run_task, ((key, task) for task in schedule), chunksize
        )

    def close(self) -> None:
        self._pool.close()
        self._pool.join()

    def terminate(self) -> None:
        self._pool.terminate()
        self._pool.join()

    def __enter__(self) -> "ExperimentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.terminate()


class PoolCell:
    """One cell's view of an :class:`ExperimentPool`: map a schedule."""

    def __init__(self, pool: ExperimentPool, key):
        self._pool = pool
        self.key = key

    def imap(self, schedule, chunksize: int = DEFAULT_CHUNKSIZE):
        return self._pool.imap(self.key, schedule, chunksize)


def draw_experiment(
    injector: FaultInjector,
    runner: Runner,
    rng,
    bindings_factory: BindingsFactory | None = None,
    record_tape: bool = False,
) -> tuple[GoldenRun, int, int]:
    """Draw one experiment's ``(golden, k, bit)`` in the parent.

    Consumes the RNG stream exactly as :meth:`FaultInjector.experiment`
    does: ``k = rng.randint(1, n)`` then ``bit = rng.randrange(width_k)``.
    Raises the same :class:`~repro.errors.InjectionError` as
    :meth:`FaultInjector.experiment` for detector-tainted goldens and
    site-free programs.  The campaign driver's schedule loop draws every
    experiment through here, pooled or not, recorded or not; ``record_tape``
    marks the draws whose faulty run executes in this process.
    """
    from ..errors import InjectionError

    golden = injector.cached_golden(runner, bindings_factory, record_tape)
    if golden.detector_fired:
        raise InjectionError(
            "detector fired during the golden run: the invariants are "
            "wrong or the program is miscompiled"
        )
    n = golden.dynamic_sites
    if n == 0:
        raise InjectionError(
            f"program exercised no dynamic fault sites in category "
            f"{injector.category!r}"
        )
    k = rng.randint(1, n)
    bit = rng.randrange(golden.site_widths[k - 1])
    return golden, k, bit


def schedule_entry(
    params: dict | None, golden: GoldenRun, k: int, bit: int
) -> ScheduledExperiment:
    """The worker task for one drawn experiment."""
    if params is None:
        from ..errors import InjectionError

        raise InjectionError(
            "parallel campaigns need runners that carry their input params "
            "(build them via Workload.build_runner / runner_factory)"
        )
    return ScheduledExperiment(
        params=params,
        k=k,
        bit=bit,
        golden_output=golden.output,
        dynamic_sites=golden.dynamic_sites,
        golden_dynamic_instructions=golden.dynamic_instructions,
    )
