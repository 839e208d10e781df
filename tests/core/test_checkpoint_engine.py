"""Differential matrix: checkpoint restore vs full replay, and its policy.

The snapshot/restore layer's contract is the direct engine's, one level
up: a faulty run that fast-forwards through a golden checkpoint must be
*bit-identical* to the full replay — same outcome stream, crash kinds,
injection records, dynamic-site totals, and faulty dynamic-instruction
counts.  Every differential test here runs the same pre-drawn schedule
through a tape-less golden and a taped one and compares the complete
observable stream, across the registry workloads and the hard site
categories (masked AVX/SSE intrinsics, pointer sites, step-limit "hang"
crashes).

The injector decides by itself when a golden records a tape (see
:data:`repro.core.injector.CHECKPOINTS_PER_RUN` and
``MIN_TAPE_INSTRUCTIONS``).  Most programs here are shorter than the
cut-off, so tests force tapes through one seam only: monkeypatching those
policy constants (the ``policy`` fixture).
"""

import json
from random import Random

import numpy as np
import pytest

import repro.core.injector as injector_mod
from repro.core import FaultInjector, run_campaigns
from repro.core.campaign import CampaignConfig
from repro.core.injector import DEFAULT_ENGINE
from repro.frontend import compile_source
from repro.store import CampaignStore, encode_result
from repro.vm.decode import decoded_program
from repro.workloads import all_workloads, get_workload, micro_workloads

from .test_direct_engine import FLOAT_KERNEL, INT_KERNEL, float_runner, int_runner

#: Target checkpoint spacing, in dynamic sites, of the forced tapes.
INTERVAL = 40


@pytest.fixture
def policy(monkeypatch):
    """Tapes for goldens of any length: the cut-off patched to zero."""
    monkeypatch.setattr(injector_mod, "MIN_TAPE_INSTRUCTIONS", 0)
    return monkeypatch


def taped_golden(injector, runner, policy, interval=INTERVAL):
    """A golden whose tape checkpoints about every ``interval`` sites.

    The injector's first golden only sizes the policy; the per-run
    checkpoint count is then patched so the interval lands near
    ``interval``, and the second golden records the tape.
    """
    sizing = injector.golden(runner, record_tape=True)
    assert sizing.checkpoints is None
    policy.setattr(
        injector_mod, "CHECKPOINTS_PER_RUN",
        max(1, sizing.dynamic_sites // interval),
    )
    golden = injector.golden(runner, record_tape=True)
    assert golden.checkpoints is not None
    return golden


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
    policy,
    category="all",
    interval=INTERVAL,
    step_limit=500_000,
    bits=None,
    site_limit=None,
):
    """Sweep dynamic sites through a tape-less vs a taped golden.

    Every site when the program is small, a stratified sample (edges plus
    evenly spaced interior, ``site_limit`` of them) otherwise — full
    sweeps over the big benchmarks would be quadratic in program length.
    Returns the two signature streams plus the taped injector (for stats
    assertions).  ``bits`` (a ``{k: bit}`` map) defaults to a seeded
    per-site draw from the golden run's recorded widths.
    """
    plain = FaultInjector(module, category=category, step_limit=step_limit)
    ck = FaultInjector(module, category=category, step_limit=step_limit)
    g_plain = plain.golden(runner)
    g_ck = taped_golden(ck, runner, policy, interval)
    assert g_plain.checkpoints is None
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
    def test_every_registry_workload(self, workload, policy):
        module = workload.compile("avx")
        runner = workload.build_runner(workload.sample_input(Random(5)))
        plain, ck, injector = full_sweep_streams(
            module, runner, policy, site_limit=24
        )
        assert plain == ck
        assert injector.checkpoint_stats["restores"] > 0

    @pytest.mark.parametrize("workload", micro_workloads(), ids=lambda w: w.name)
    @pytest.mark.parametrize("category", ["pure-data", "control", "address"])
    def test_micro_per_category(self, workload, category, policy):
        module = workload.compile("avx")
        runner = workload.build_runner(workload.sample_input(Random(2)))
        plain, ck, _ = full_sweep_streams(
            module, runner, policy, category=category, site_limit=32
        )
        assert plain == ck


class TestMaskedAndPointerSites:
    def test_avx_sign_masked_float(self, policy):
        module = compile_source(FLOAT_KERNEL, "avx")
        plain, ck, _ = full_sweep_streams(
            module, float_runner(), policy, interval=8
        )
        assert plain == ck

    def test_avx_sign_masked_int(self, policy):
        module = compile_source(INT_KERNEL, "avx")
        plain, ck, _ = full_sweep_streams(module, int_runner(), policy, interval=8)
        assert plain == ck

    def test_sse_i1_masked(self, policy):
        module = compile_source(INT_KERNEL, "sse")
        plain, ck, _ = full_sweep_streams(module, int_runner(), policy, interval=8)
        assert plain == ck

    def test_pointer_sites(self, policy):
        module = compile_source(INT_KERNEL, "avx")
        plain, ck, injector = full_sweep_streams(
            module, int_runner(n=40), policy, category="address", interval=16
        )
        assert plain == ck
        # Address flips crash often; restores must have fired anyway.
        assert injector.checkpoint_stats["restores"] > 0


class TestStepLimitParity:
    """A hang (step-limit crash) must trip at the same instruction whether
    the prefix was replayed or restored."""

    def test_tight_budget_sweep(self, policy):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        runner = workload.build_runner(workload.sample_input(Random(1)))
        probe = FaultInjector(module, category="control", step_limit=500_000)
        budget = probe.golden(runner).dynamic_instructions
        plain, ck, injector = full_sweep_streams(
            module,
            runner,
            policy,
            category="control",
            interval=8,  # control sites are sparse; keep several checkpoints
            step_limit=budget,
            site_limit=48,
        )
        assert plain == ck
        assert injector.checkpoint_stats["restores"] > 0


class TestCheckpointBoundaries:
    """Target sites at and next to a checkpoint's dynamic count."""

    @pytest.fixture
    def fixture(self, policy):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        runner = workload.build_runner({"n": 150, "seed": 77})
        plain = FaultInjector(module, category="all", step_limit=500_000)
        ck = FaultInjector(module, category="all", step_limit=500_000)
        return (
            runner, plain, plain.golden(runner), ck,
            taped_golden(ck, runner, policy),
        )

    def test_k_at_checkpoint_count_is_not_skipped(self, fixture):
        runner, plain, g_plain, ck, g_ck = fixture
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

    def test_k_just_after_checkpoint_restores_it(self, fixture):
        runner, plain, g_plain, ck, g_ck = fixture
        tape = g_ck.checkpoints
        cp = tape.checkpoints[0]
        k = cp.dynamic_count + 1
        before = ck.checkpoint_stats["restores"]
        a = plain.faulty(runner, g_plain, k, bit=3)
        b = ck.faulty(runner, g_ck, k, bit=3)
        assert result_signature(a) == result_signature(b)
        assert ck.checkpoint_stats["restores"] == before + 1
        assert tape.best_for(k) is cp

    def test_resume_into_a_decoded_block_unpacks_registers(self, fixture):
        """A chain may leave vectors packed in a checkpoint's register
        file.  A resume whose first block runs decoded (a block with no
        chain, like one that calls a defined function) must hand that
        block canonical lane lists and stay bit-identical to the full
        replay."""
        runner, plain, g_plain, ck, g_ck = fixture
        tape = g_ck.checkpoints
        packed = [
            cp
            for cp in tape.checkpoints
            if any(type(v) is np.ndarray for v in cp.frame.regs.values())
        ]
        assert packed, "no checkpoint holds a packed vector"
        program = decoded_program(ck.module, ck._plan)
        for cp in packed:
            fn = ck.module.get_function(cp.frame.function_name)
            block = program.function(fn).blocks[cp.frame.block]
            steps = block.decode_steps()
            first, isvec = steps[0]
            seen = []

            def spy(vm, regs):
                seen.append(any(type(v) is np.ndarray for v in regs.values()))
                first(vm, regs)

            k = cp.dynamic_count + 1
            assert tape.best_for(k) is cp
            chain, block.chain = block.chain, None
            block.steps = [(spy, isvec)] + steps[1:]
            try:
                b = ck.faulty(runner, g_ck, k, bit=3)
            finally:
                block.chain = chain
                block.steps = steps
            assert seen and not any(seen)
            a = plain.faulty(runner, g_plain, k, bit=3)
            assert result_signature(a) == result_signature(b)

    def test_early_k_replays_in_full(self, fixture):
        runner, plain, g_plain, ck, g_ck = fixture
        before = dict(ck.checkpoint_stats)
        a = plain.faulty(runner, g_plain, 1, bit=3)
        b = ck.faulty(runner, g_ck, 1, bit=3)
        assert result_signature(a) == result_signature(b)
        assert ck.checkpoint_stats["restores"] == before["restores"]
        assert ck.checkpoint_stats["full_replays"] == before["full_replays"] + 1


class TestConvergenceExit:
    def test_exits_occur_and_stay_bit_identical(self, policy):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        runner = workload.build_runner({"n": 200, "seed": 9})
        plain, ck, injector = full_sweep_streams(
            module, runner, policy, interval=25
        )
        assert plain == ck
        # The registry sweep must actually exercise the early exit — a
        # masked benign flip re-converges with the golden trace quickly.
        assert injector.checkpoint_stats["convergence_exits"] > 0

    def test_converged_record_equals_full_replay(self, policy):
        """A convergence exit journals the very bytes of the full replay:
        a record never shows which execution path produced it."""
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        runner = workload.build_runner({"n": 200, "seed": 9})
        plain = FaultInjector(module, category="all", step_limit=500_000)
        g_plain = plain.golden(runner)
        ck = FaultInjector(module, category="all", step_limit=500_000)
        golden = taped_golden(ck, runner, policy, interval=25)
        rng = Random(1234)
        for k in range(1, golden.dynamic_sites + 1):
            bit = rng.randrange(golden.site_widths[k - 1])
            before = ck.checkpoint_stats["convergence_exits"]
            r = ck.faulty(runner, golden, k, bit=bit)
            if ck.checkpoint_stats["convergence_exits"] > before:
                full = plain.faulty(runner, g_plain, k, bit=bit)
                assert r.is_benign
                assert json.dumps(encode_result(r), sort_keys=True) == json.dumps(
                    encode_result(full), sort_keys=True
                )
                return
        pytest.fail("sweep produced no convergence exit")


class TestCheckpointApi:
    def test_golden_without_interval_has_no_tape(self, policy):
        """No interval can be sized before an injector's first golden, and a
        golden nobody runs a faulty half against records none either."""
        module = compile_source(INT_KERNEL, "avx")
        injector = FaultInjector(module)
        assert injector.golden(int_runner(), record_tape=True).checkpoints is None
        assert injector.golden(int_runner()).checkpoints is None
        assert injector.golden(int_runner(), record_tape=True).checkpoints is not None

    def test_interval_validated(self, policy):
        """A sized interval never drops below one dynamic site, however few
        sites the previous golden had."""
        policy.setattr(injector_mod, "CHECKPOINTS_PER_RUN", 10**6)
        injector = FaultInjector(compile_source(INT_KERNEL, "avx"))
        injector.golden(int_runner(), record_tape=True)
        golden = injector.golden(int_runner(), record_tape=True)
        assert golden.dynamic_sites < 10**6
        assert golden.checkpoints.interval == 1

    def test_worker_payload_has_no_checkpoint_option(self):
        module = compile_source(INT_KERNEL, "avx")
        injector = FaultInjector(module)
        payload = injector.worker_payload()
        assert not [k for k in payload if "checkpoint" in k or "convergence" in k]
        assert FaultInjector(**payload).engine_identity() == injector.engine_identity()

    def test_stale_tape_falls_back_to_full_replay(self, policy):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        runner = workload.build_runner({"n": 150, "seed": 3})
        ck = FaultInjector(module, category="all", step_limit=500_000)
        golden = taped_golden(ck, runner, policy)
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


class TestPolicy:
    """The injector's own checkpoint decision: interval, cut-off, retention."""

    @staticmethod
    def _injector():
        module = get_workload("vector_sum").compile("avx")
        return FaultInjector(module, category="all", step_limit=500_000)

    @staticmethod
    def _runner(n, seed=1):
        return get_workload("vector_sum").build_runner({"n": n, "seed": seed})

    def test_interval_sized_from_previous_golden(self, policy):
        injector = self._injector()
        first = injector.golden(self._runner(120), record_tape=True)
        second = injector.golden(self._runner(180), record_tape=True)
        assert second.checkpoints.interval == (
            first.dynamic_sites // injector_mod.CHECKPOINTS_PER_RUN
        )

    def test_short_goldens_keep_the_interval_free_fast_path(self):
        injector = self._injector()
        runner = self._runner(67)
        sizing = injector.golden(runner, record_tape=True)
        assert sizing.dynamic_instructions < injector_mod.MIN_TAPE_INSTRUCTIONS
        assert injector.golden(runner, record_tape=True).checkpoints is None
        assert injector._count_runtime.tape_interval is None
        assert injector.checkpoint_stats["tapes_recorded"] == 0

    def test_long_goldens_record_tapes_unpatched(self):
        injector = self._injector()
        runner = self._runner(1024)
        sizing = injector.golden(runner, record_tape=True)
        assert sizing.dynamic_instructions >= injector_mod.MIN_TAPE_INSTRUCTIONS
        tape = injector.golden(runner, record_tape=True).checkpoints
        assert 0 < len(tape) <= injector_mod.CHECKPOINTS_PER_RUN

    def test_tapes_stay_out_of_the_golden_cache(self, policy):
        injector = self._injector()
        injector.cached_golden(self._runner(100), record_tape=True)
        runner = self._runner(150)
        golden = injector.cached_golden(runner, record_tape=True)
        assert golden.checkpoints is not None
        cached = injector.cached_golden(runner, record_tape=True)
        assert cached.checkpoints is None
        assert cached.dynamic_sites == golden.dynamic_sites

    def test_reset_perf_counters_clears_sizing(self, policy):
        injector = self._injector()
        runner = self._runner(100)
        injector.golden(runner, record_tape=True)
        injector.reset_perf_counters()
        assert injector.golden(runner, record_tape=True).checkpoints is None


class TestCampaignIntegration:
    CONFIG = CampaignConfig(
        experiments_per_campaign=30,
        max_campaigns=2,
        min_campaigns=2,
        require_normality=False,
        margin_target=0.0,
    )

    def _summary(self, jobs=1, recorder_store=None):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        injector = FaultInjector(module, category="all", step_limit=500_000)
        recorder = None
        if recorder_store is not None:
            recorder = recorder_store.recorder(
                experiment="checkpoint-test", cell={}, scale="test",
                injector=injector, seed=11, config={}, planned=60,
            )
        if jobs == 1:
            return run_campaigns(
                injector, workload.runner_factory(), self.CONFIG, seed=11,
                recorder=recorder,
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

    def test_serial_campaign_is_checkpoint_invariant(self, monkeypatch):
        monkeypatch.setattr(injector_mod, "MIN_TAPE_INSTRUCTIONS", 10**12)
        untaped = self._summary()
        monkeypatch.setattr(injector_mod, "MIN_TAPE_INSTRUCTIONS", 0)
        taped = self._summary()
        assert untaped.checkpoints["tapes_recorded"] == 0
        assert taped.checkpoints["restores"] > 0
        assert self._totals(untaped) == self._totals(taped)

    def test_parallel_campaign_matches_serial(self, policy):
        serial = self._summary()
        parallel = self._summary(jobs=2)
        assert self._totals(serial) == self._totals(parallel)
        # Pooled faulty runs execute in the workers: the parent tapes nothing.
        assert serial.checkpoints["tapes_recorded"] > 0
        assert parallel.checkpoints["tapes_recorded"] == 0

    def test_summary_surfaces_cache_and_checkpoint_stats(self, policy):
        summary = self._summary()
        assert summary.golden_cache is not None
        assert set(summary.golden_cache) == {
            "size", "maxsize", "hits", "misses", "evictions",
        }
        assert summary.checkpoints is not None
        assert summary.checkpoints["tapes_recorded"] > 0
        assert summary.checkpoints["restores"] > 0

    def test_stored_positions_record_no_tapes(self, policy, tmp_path):
        with CampaignStore(tmp_path / "store") as store:
            first = self._summary(recorder_store=store)
        with CampaignStore(tmp_path / "store") as store:
            again = self._summary(recorder_store=store)
        assert first.checkpoints["tapes_recorded"] > 0
        assert again.store["hits"] == again.totals.total
        assert again.checkpoints["tapes_recorded"] == 0
        assert self._totals(first) == self._totals(again)

    def test_quick_fig11_long_cell_restores_and_exits(self):
        """The unpatched policy on a storeless quick Fig-11 cell: a long
        golden records tapes, restores fire and convergence exits occur."""
        from repro.experiments.common import SCALES, cell_injector, cell_seed

        workload = get_workload("jacobi")
        injector = cell_injector(workload, "avx", "pure-data")
        assert injector.engine == DEFAULT_ENGINE
        summary = run_campaigns(
            injector, workload.runner_factory(), SCALES["quick"],
            seed=cell_seed("fig11", "jacobi", "avx", "pure-data"),
        )
        assert summary.checkpoints["restores"] > 0
        assert summary.checkpoints["convergence_exits"] > 0
