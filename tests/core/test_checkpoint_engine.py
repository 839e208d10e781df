"""Differential matrix: checkpoint restore vs full replay.

The snapshot/restore layer's contract is the direct engine's, one level
up: a faulty run that fast-forwards through a golden checkpoint must be
*bit-identical* to the full replay — same outcome stream, crash kinds,
injection records, dynamic-site totals, and faulty dynamic-instruction
counts.  Every test here runs the same pre-drawn schedule through a plain
injector and a checkpointing one and compares the complete observable
stream, across the registry workloads and the hard site categories
(masked AVX/SSE intrinsics, pointer sites, step-limit "hang" crashes).
"""

from random import Random

import pytest

from repro.core import FaultInjector, run_campaigns
from repro.core.campaign import CampaignConfig
from repro.errors import InjectionError
from repro.frontend import compile_source
from repro.workloads import all_workloads, get_workload, micro_workloads

from .test_direct_engine import FLOAT_KERNEL, INT_KERNEL, float_runner, int_runner

INTERVAL = 40


def result_signature(r):
    """Every observable of one experiment, nan-safe via repr."""
    return repr(
        (
            r.outcome,
            r.crash_kind,
            r.injection,
            r.dynamic_sites,
            r.target_index,
            sorted(r.site_categories),
            r.golden_dynamic_instructions,
            r.faulty_dynamic_instructions,
        )
    )


def sample_sites(n: int, limit: int) -> list[int]:
    """A stratified sample of dynamic-site indices: both edges plus evenly
    spaced interior sites (every site when ``n <= limit``)."""
    if n <= limit:
        return list(range(1, n + 1))
    step = n / limit
    ks = {1, n}
    ks.update(int(i * step) + 1 for i in range(limit))
    return sorted(k for k in ks if 1 <= k <= n)


def full_sweep_streams(
    module,
    runner,
    category="all",
    interval=INTERVAL,
    step_limit=500_000,
    convergence_exit=True,
    bits=None,
    site_limit=None,
):
    """Sweep dynamic sites through plain vs checkpointed injectors.

    Every site when the program is small, a stratified sample (edges plus
    evenly spaced interior, ``site_limit`` of them) otherwise — full
    sweeps over the big benchmarks would be quadratic in program length.
    Returns the two signature streams plus the checkpointing injector (for
    stats assertions).  ``bits`` (a ``{k: bit}`` map) defaults to a seeded
    per-site draw from the golden run's recorded widths.
    """
    plain = FaultInjector(module, category=category, step_limit=step_limit)
    ck = FaultInjector(
        module,
        category=category,
        step_limit=step_limit,
        checkpoint_interval=interval,
        convergence_exit=convergence_exit,
    )
    g_plain = plain.golden(runner)
    g_ck = ck.golden(runner)
    assert g_plain.dynamic_sites == g_ck.dynamic_sites
    assert g_plain.dynamic_instructions == g_ck.dynamic_instructions
    assert bytes(g_plain.site_widths) == bytes(g_ck.site_widths)

    n = g_plain.dynamic_sites
    ks = sample_sites(n, site_limit) if site_limit else list(range(1, n + 1))
    if bits is None:
        rng = Random(1234)
        bits = {k: rng.randrange(g_plain.site_widths[k - 1]) for k in ks}
    a = [
        result_signature(plain.faulty(runner, g_plain, k, bit=bits[k]))
        for k in ks
    ]
    b = [
        result_signature(ck.faulty(runner, g_ck, k, bit=bits[k]))
        for k in ks
    ]
    return a, b, ck


class TestRegistryMatrix:
    """Checkpoint restore over the whole workload registry."""

    @pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
    def test_every_registry_workload(self, workload):
        module = workload.compile("avx")
        runner = workload.build_runner(workload.sample_input(Random(5)))
        plain, ck, injector = full_sweep_streams(module, runner, site_limit=24)
        assert plain == ck
        assert injector.checkpoint_stats["restores"] > 0

    @pytest.mark.parametrize("workload", micro_workloads(), ids=lambda w: w.name)
    @pytest.mark.parametrize("category", ["pure-data", "control", "address"])
    def test_micro_per_category(self, workload, category):
        module = workload.compile("avx")
        runner = workload.build_runner(workload.sample_input(Random(2)))
        plain, ck, _ = full_sweep_streams(
            module, runner, category=category, site_limit=32
        )
        assert plain == ck


class TestMaskedAndPointerSites:
    def test_avx_sign_masked_float(self):
        module = compile_source(FLOAT_KERNEL, "avx")
        plain, ck, _ = full_sweep_streams(module, float_runner(), interval=8)
        assert plain == ck

    def test_avx_sign_masked_int(self):
        module = compile_source(INT_KERNEL, "avx")
        plain, ck, _ = full_sweep_streams(module, int_runner(), interval=8)
        assert plain == ck

    def test_sse_i1_masked(self):
        module = compile_source(INT_KERNEL, "sse")
        plain, ck, _ = full_sweep_streams(module, int_runner(), interval=8)
        assert plain == ck

    def test_pointer_sites(self):
        module = compile_source(INT_KERNEL, "avx")
        plain, ck, injector = full_sweep_streams(
            module, int_runner(n=40), category="address", interval=16
        )
        assert plain == ck
        # Address flips crash often; restores must have fired anyway.
        assert injector.checkpoint_stats["restores"] > 0


class TestStepLimitParity:
    """A hang (step-limit crash) must trip at the same instruction whether
    the prefix was replayed or restored."""

    def test_tight_budget_sweep(self):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        runner = workload.build_runner(workload.sample_input(Random(1)))
        probe = FaultInjector(module, category="control", step_limit=500_000)
        budget = probe.golden(runner).dynamic_instructions
        plain, ck, injector = full_sweep_streams(
            module,
            runner,
            category="control",
            interval=8,  # control sites are sparse; keep several checkpoints
            step_limit=budget,
            site_limit=48,
        )
        assert plain == ck
        assert injector.checkpoint_stats["restores"] > 0


class TestCheckpointBoundaries:
    """Target sites at and next to a checkpoint's dynamic count."""

    def _fixture(self):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        runner = workload.build_runner({"n": 150, "seed": 77})
        plain = FaultInjector(module, category="all", step_limit=500_000)
        ck = FaultInjector(
            module, category="all", step_limit=500_000, checkpoint_interval=INTERVAL
        )
        return runner, plain, plain.golden(runner), ck, ck.golden(runner)

    def test_k_at_checkpoint_count_is_not_skipped(self):
        runner, plain, g_plain, ck, g_ck = self._fixture()
        tape = g_ck.checkpoints
        assert len(tape) >= 2
        for cp in tape.checkpoints:
            k = cp.dynamic_count
            if k > g_ck.dynamic_sites:
                continue
            # A checkpoint at count==k already consumed site k; restoring it
            # would skip the injection.  best_for must pick an earlier one.
            best = tape.best_for(k)
            assert best is None or best.dynamic_count < k
            a = plain.faulty(runner, g_plain, k, bit=3)
            b = ck.faulty(runner, g_ck, k, bit=3)
            assert result_signature(a) == result_signature(b)
            assert b.injection is not None

    def test_k_just_after_checkpoint_restores_it(self):
        runner, plain, g_plain, ck, g_ck = self._fixture()
        tape = g_ck.checkpoints
        cp = tape.checkpoints[0]
        k = cp.dynamic_count + 1
        before = ck.checkpoint_stats["restores"]
        a = plain.faulty(runner, g_plain, k, bit=3)
        b = ck.faulty(runner, g_ck, k, bit=3)
        assert result_signature(a) == result_signature(b)
        assert ck.checkpoint_stats["restores"] == before + 1
        assert tape.best_for(k) is cp

    def test_early_k_replays_in_full(self):
        runner, plain, g_plain, ck, g_ck = self._fixture()
        before = dict(ck.checkpoint_stats)
        a = plain.faulty(runner, g_plain, 1, bit=3)
        b = ck.faulty(runner, g_ck, 1, bit=3)
        assert result_signature(a) == result_signature(b)
        assert ck.checkpoint_stats["restores"] == before["restores"]
        assert ck.checkpoint_stats["full_replays"] == before["full_replays"] + 1


class TestConvergenceExit:
    def test_exits_occur_and_stay_bit_identical(self):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        runner = workload.build_runner({"n": 200, "seed": 9})
        plain, ck, injector = full_sweep_streams(module, runner, interval=25)
        assert plain == ck
        # The registry sweep must actually exercise the early exit — a
        # masked benign flip re-converges with the golden trace quickly.
        assert injector.checkpoint_stats["convergence_exits"] > 0

    def test_disabling_convergence_changes_nothing_observable(self):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        runner = workload.build_runner({"n": 120, "seed": 4})
        _, with_exit, _ = full_sweep_streams(module, runner, interval=25)
        _, without, inj = full_sweep_streams(
            module, runner, interval=25, convergence_exit=False
        )
        assert with_exit == without
        assert inj.checkpoint_stats["convergence_exits"] == 0

    def test_converged_result_is_flagged(self):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        runner = workload.build_runner({"n": 200, "seed": 9})
        ck = FaultInjector(
            module, category="all", step_limit=500_000, checkpoint_interval=25
        )
        golden = ck.golden(runner)
        rng = Random(1234)
        for k in range(1, golden.dynamic_sites + 1):
            before = ck.checkpoint_stats["convergence_exits"]
            r = ck.faulty(
                runner, golden, k, bit=rng.randrange(golden.site_widths[k - 1])
            )
            if ck.checkpoint_stats["convergence_exits"] > before:
                assert r.notes.get("converged_early") is True
                assert r.is_benign
                assert r.faulty_dynamic_instructions == golden.dynamic_instructions
                return
        pytest.fail("sweep produced no convergence exit")


class TestCheckpointApi:
    def test_interval_validated(self):
        module = compile_source(INT_KERNEL, "avx")
        with pytest.raises(InjectionError, match="checkpoint_interval"):
            FaultInjector(module, checkpoint_interval=0)

    def test_worker_payload_round_trips_checkpoint_config(self):
        module = compile_source(INT_KERNEL, "avx")
        injector = FaultInjector(
            module, checkpoint_interval=64, convergence_exit=False
        )
        payload = injector.worker_payload()
        rebuilt = FaultInjector(**payload)
        assert rebuilt.checkpoint_interval == 64
        assert rebuilt.convergence_exit is False

    def test_golden_without_interval_has_no_tape(self):
        module = compile_source(INT_KERNEL, "avx")
        injector = FaultInjector(module)
        assert injector.golden(int_runner()).checkpoints is None

    def test_stale_tape_falls_back_to_full_replay(self):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        runner = workload.build_runner({"n": 150, "seed": 3})
        ck = FaultInjector(
            module, category="all", step_limit=500_000, checkpoint_interval=INTERVAL
        )
        golden = ck.golden(runner)
        assert len(golden.checkpoints) > 0
        golden.checkpoints.module_version -= 1  # simulate IR mutation
        plain = FaultInjector(module, category="all", step_limit=500_000)
        g_plain = plain.golden(runner)
        k = golden.dynamic_sites  # latest site: would normally restore
        before = ck.checkpoint_stats["restores"]
        r = ck.faulty(runner, golden, k, bit=2)
        assert ck.checkpoint_stats["restores"] == before
        assert result_signature(r) == result_signature(
            plain.faulty(runner, g_plain, k, bit=2)
        )


class TestCampaignIntegration:
    CONFIG = CampaignConfig(
        experiments_per_campaign=30,
        max_campaigns=2,
        min_campaigns=2,
        require_normality=False,
        margin_target=0.0,
    )

    def _summary(self, checkpoint_interval, jobs=1):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        injector = FaultInjector(
            module,
            category="all",
            step_limit=500_000,
            checkpoint_interval=checkpoint_interval,
        )
        if jobs == 1:
            return run_campaigns(
                injector, workload.runner_factory(), self.CONFIG, seed=11
            )
        from repro.core import ExperimentPool
        from repro.experiments.common import campaign_worker_context

        context = campaign_worker_context(injector, workload)
        with ExperimentPool(jobs, {"cell": context}) as pool:
            return run_campaigns(
                injector,
                workload.runner_factory(),
                self.CONFIG,
                seed=11,
                pool=pool.cell("cell"),
            )

    @staticmethod
    def _totals(s):
        return (s.totals.sdc, s.totals.benign, s.totals.crash)

    def test_serial_campaign_is_checkpoint_invariant(self):
        assert self._totals(self._summary(None)) == self._totals(
            self._summary(INTERVAL)
        )

    def test_parallel_campaign_matches_serial(self):
        serial = self._summary(INTERVAL)
        parallel = self._summary(INTERVAL, jobs=2)
        assert self._totals(serial) == self._totals(parallel)

    def test_summary_surfaces_cache_and_checkpoint_stats(self):
        summary = self._summary(INTERVAL)
        assert summary.golden_cache is not None
        assert set(summary.golden_cache) == {
            "size", "maxsize", "hits", "misses", "evictions",
        }
        assert summary.checkpoints is not None
        assert summary.checkpoints["tapes_recorded"] > 0
        assert summary.checkpoints["restores"] > 0
