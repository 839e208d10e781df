"""Deterministic parallel campaigns and CampaignStats aggregation."""

import functools
from collections import Counter
from random import Random

import pytest

from repro.core import (
    CampaignConfig,
    CampaignStats,
    ExperimentPool,
    ExperimentResult,
    FaultInjector,
    Outcome,
    WorkerContext,
    run_batch,
    run_campaigns,
)
from repro.errors import InjectionError
from repro.workloads import get_workload
from repro.workloads.registry import build_runner

#: Small but non-trivial: 2 campaigns x 25 experiments, no early convergence.
_CONFIG = CampaignConfig(
    experiments_per_campaign=25,
    max_campaigns=2,
    min_campaigns=2,
    require_normality=False,
    margin_target=0.0,
)


def _result(outcome, detected=False, crash_kind=None):
    return ExperimentResult(
        outcome=outcome,
        detected=detected,
        crash_kind=crash_kind,
        injection=None,
        dynamic_sites=1,
        target_index=1,
    )


class TestCampaignStats:
    def test_crash_kinds_is_counter(self):
        stats = CampaignStats()
        stats.add(_result(Outcome.CRASH, crash_kind="segfault"))
        stats.add(_result(Outcome.CRASH, crash_kind="segfault"))
        stats.add(_result(Outcome.CRASH))  # kind unknown
        assert isinstance(stats.crash_kinds, Counter)
        assert stats.crash_kinds == {"segfault": 2, "unknown": 1}
        # Counter semantics: absent kinds read as 0 instead of raising.
        assert stats.crash_kinds["step-limit"] == 0

    def test_merge(self):
        a = CampaignStats()
        a.add(_result(Outcome.SDC, detected=True))
        a.add(_result(Outcome.BENIGN))
        a.add(_result(Outcome.CRASH, crash_kind="segfault"))
        b = CampaignStats()
        b.add(_result(Outcome.SDC))
        b.add(_result(Outcome.CRASH, crash_kind="segfault"))
        b.add(_result(Outcome.CRASH, detected=True, crash_kind="step-limit"))

        merged = a.merge(b)
        assert merged is a
        assert (a.sdc, a.benign, a.crash) == (2, 1, 3)
        assert a.detected_sdc == 1
        assert a.detected_total == 2
        assert a.crash_kinds == {"segfault": 2, "step-limit": 1}
        # b is untouched.
        assert (b.sdc, b.benign, b.crash) == (1, 0, 2)

    def test_merge_empty_is_identity(self):
        a = CampaignStats()
        a.add(_result(Outcome.SDC))
        before = (a.sdc, a.benign, a.crash, dict(a.crash_kinds))
        a.merge(CampaignStats())
        assert (a.sdc, a.benign, a.crash, dict(a.crash_kinds)) == before


def _summary_fingerprint(summary):
    return (
        [(c.sdc, c.benign, c.crash, c.detected_total, dict(c.crash_kinds))
         for c in summary.campaigns],
        (summary.totals.sdc, summary.totals.benign, summary.totals.crash),
        summary.converged,
    )


class TestParallelDeterminism:
    @pytest.fixture(scope="class")
    def setup(self):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        return workload, module

    def _run(self, setup, jobs):
        workload, module = setup
        injector = FaultInjector(module, category="all", step_limit=500_000)

        def run(pool=None):
            return run_campaigns(
                injector, workload.runner_factory(), _CONFIG, seed=7, pool=pool
            )

        if jobs == 1:
            return run()
        context = WorkerContext(
            injector=injector.worker_payload(),
            make_runner=functools.partial(build_runner, workload.name),
        )
        with ExperimentPool(jobs, {"cell": context}) as pool:
            return run(pool.cell("cell"))

    def test_serial_vs_parallel_identical(self, setup):
        serial = self._run(setup, jobs=1)
        parallel = self._run(setup, jobs=4)
        assert _summary_fingerprint(serial) == _summary_fingerprint(parallel)
        # The mini-campaign must exercise every outcome class for this to be
        # a meaningful determinism check.
        assert serial.totals.sdc > 0
        assert serial.totals.benign > 0
        assert serial.totals.crash > 0

    def test_run_batch_serial_vs_parallel(self, setup):
        workload, module = setup

        def batch(jobs):
            injector = FaultInjector(module, category="all", step_limit=500_000)

            def run(pool=None):
                return run_batch(
                    injector, workload.runner_factory(), 30, Random(5),
                    pool=pool,
                )

            if jobs == 1:
                return run()
            ctx = WorkerContext(
                injector=injector.worker_payload(),
                make_runner=functools.partial(build_runner, workload.name),
            )
            with ExperimentPool(jobs, {"cell": ctx}) as pool:
                return run(pool.cell("cell"))

        a, b = batch(1), batch(2)
        assert (a.sdc, a.benign, a.crash) == (b.sdc, b.benign, b.crash)
        assert a.crash_kinds == b.crash_kinds

    def test_cell_without_context_rejected(self, setup):
        """A pool cell keyed by neither a fork-time context nor an
        EngineSpec has no engine to run on: the campaign fails loudly."""
        workload, module = setup
        injector = FaultInjector(module)
        with ExperimentPool(2) as pool:
            with pytest.raises(KeyError, match="no worker context"):
                run_campaigns(
                    injector, workload.runner_factory(), _CONFIG, seed=7,
                    pool=pool.cell("unknown"),
                )

    def test_uncloned_injector_has_no_worker_payload(self, setup):
        workload, module = setup
        # clone=False instruments the given module in place (instrumented
        # engine only — the direct engine never mutates IR, so clone is
        # moot there); use a throwaway clone so the shared fixture module
        # stays pristine.
        from repro.ir.clone import clone_module

        injector = FaultInjector(
            clone_module(module), clone=False, engine="instrumented"
        )
        with pytest.raises(InjectionError, match="clone=True"):
            injector.worker_payload()


class TestWorkerEngine:
    """The per-worker execution state: build-once, decode-once, full
    replay.  Exercised in-process — the pool initializer and task runner
    below are exactly what forked workers execute."""

    def _context(self):
        from repro.experiments.common import campaign_worker_context

        workload = get_workload("vector_sum")
        injector = FaultInjector(
            workload.compile("avx"), category="all", step_limit=500_000
        )
        return injector, workload, campaign_worker_context(injector, workload)

    def _schedule(self, injector, workload, count, seed=21):
        from repro.core.parallel import draw_experiment, schedule_entry

        rng = Random(seed)
        runner = workload.build_runner({"n": 90, "seed": 55})
        return [
            schedule_entry(runner.params, *draw_experiment(injector, runner, rng))
            for _ in range(count)
        ]

    def test_worker_decodes_module_once(self):
        from repro.core import parallel
        from repro.vm.decode import DECODE_EVENTS

        injector, workload, context = self._context()
        tasks = self._schedule(injector, workload, 8)
        parallel._init_worker({"cell": context})
        parallel._run_task(("cell", tasks[0]))  # first run pays the lazy decode
        before = DECODE_EVENTS["functions"]
        for task in tasks[1:]:
            parallel._run_task(("cell", task))
        assert DECODE_EVENTS["functions"] == before

    def test_sweep_workers_build_every_cell_at_init(self):
        from repro.core import parallel

        _, _, context_a = self._context()
        _, _, context_b = self._context()
        parallel._init_worker({"a": context_a, "b": context_b})
        assert set(parallel._engines) == {"a", "b"}
        for engine in parallel._engines.values():
            assert engine.injector is not None  # built eagerly, not per task
        assert parallel._engines["a"] is not parallel._engines["b"]

    def test_spec_cells_build_on_first_task_and_stay_warm(self):
        from repro.core import parallel
        from repro.core.parallel import EngineSpec

        spec = EngineSpec("vector_sum", "avx", "all", step_limit=500_000)
        parent = spec.build()
        tasks = self._schedule(parent, get_workload("vector_sum"), 3)
        parallel._init_worker({})  # a service pool forks with no contexts
        parallel._run_task((spec, tasks[0]))
        engine = parallel._engines[spec]
        for task in tasks[1:]:
            parallel._run_task((spec, task))
        assert set(parallel._engines) == {spec}
        assert parallel._engines[spec] is engine  # built once, then reused

    def test_spec_builds_identical_engine_on_both_sides(self):
        """The parent's engine cache and every worker build a spec's engine
        through one recipe, so their site tables agree."""
        from repro.core.parallel import EngineSpec, _WorkerEngine

        spec = EngineSpec("vcopy", "sse", "control")
        parent = spec.build()
        worker = _WorkerEngine.build(spec).injector
        assert worker.engine_identity() == parent.engine_identity()
        assert [s.site_id for s in worker.sites] == [
            s.site_id for s in parent.sites
        ]

    def test_worker_results_match_parent_serial(self, monkeypatch):
        """Workers replay in full; the parent restores from a tape (forced
        on this short program through the policy cut-off) — same results."""
        import repro.core.injector as injector_mod

        monkeypatch.setattr(injector_mod, "MIN_TAPE_INSTRUCTIONS", 0)
        injector, workload, context = self._context()
        tasks = self._schedule(injector, workload, 10)
        from repro.core.parallel import _WorkerEngine

        engine = _WorkerEngine.build(context)
        worker_results = [engine.run_task(t) for t in tasks]
        assert engine.injector.checkpoint_stats["tapes_recorded"] == 0
        runner = workload.build_runner({"n": 90, "seed": 55})
        golden = injector.golden(runner, record_tape=True)
        assert golden.checkpoints is not None
        serial_results = [
            injector.faulty(runner, golden, t.k, bit=t.bit) for t in tasks
        ]
        assert injector.checkpoint_stats["restores"] > 0
        sig = lambda r: repr(
            (r.outcome, r.crash_kind, r.injection, r.dynamic_sites,
             r.faulty_dynamic_instructions)
        )
        assert [sig(r) for r in worker_results] == [sig(r) for r in serial_results]
