"""Campaign driver (paper §IV-D).

A *fault injection campaign* is a batch of independent experiments (100 in
the paper); the campaign's SDC rate is one statistical sample.  The driver
runs campaigns until the sample distribution is near normal and the t-based
margin of error at the requested confidence drops inside the target (the
paper reaches ±3 points at 95% within 20 campaigns per benchmark/category),
or until ``max_campaigns``.

Each experiment draws a program input at random from the workload's
predefined input space (§IV-B) via the caller-supplied ``runner_factory``.

Given a ``pool=`` (a cell of a :class:`~repro.core.parallel.ExperimentPool`),
the faulty runs fan out over its workers while the parent still draws the
schedule with the same ``Random(seed)`` stream — results are bit-identical
to serial execution at any job count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from random import Random
from typing import Callable

import queue

from ..analysis.stats import RateEstimate, estimate_rate, is_near_normal, margin_of_error
from .injector import BindingsFactory, FaultInjector, GoldenRun, Runner
from .outcomes import ExperimentResult, Outcome
from .parallel import draw_experiment, schedule_entry


@dataclass
class CampaignConfig:
    experiments_per_campaign: int = 100
    max_campaigns: int = 20
    min_campaigns: int = 3
    confidence: float = 0.95
    margin_target: float = 0.03
    require_normality: bool = True


def meets_stopping_rule(sdc_samples: list[float], config: CampaignConfig) -> bool:
    """The §IV-D stopping rule on the SDC-rate samples gathered so far.

    At least ``min_campaigns`` samples, a t-based margin of error within
    ``margin_target`` and, if required, a near-normal sample distribution.
    :func:`run_campaigns` applies it after each campaign and
    :func:`would_converge` to each prefix, so the rule lives only here.
    """
    return (
        len(sdc_samples) >= config.min_campaigns
        and margin_of_error(sdc_samples, config.confidence) <= config.margin_target
        and (not config.require_normality or is_near_normal(sdc_samples))
    )


def would_converge(sdc_samples: list[float], config: CampaignConfig) -> bool:
    """Would a convergence-gated run have stopped within these samples?

    Prefix-evaluates :func:`meets_stopping_rule`, exactly as
    :func:`run_campaigns` applies it after each campaign.  Shard runs disable
    the early exit — every shard must consume the identical full-budget
    schedule or the stripes would desynchronize — so the convergence flag
    is recomputed from the recorded samples instead: here at the end of a
    ``--shards 1`` baseline run, and in :func:`repro.store.merge.
    merge_shards` from the reassembled journal.  Both paths see the same
    samples, so the flag lands byte-identical in both manifests.
    """
    return any(
        meets_stopping_rule(sdc_samples[:n], config)
        for n in range(config.min_campaigns, len(sdc_samples) + 1)
    )


@dataclass
class CampaignStats:
    """Aggregated counts over any number of experiments."""

    sdc: int = 0
    benign: int = 0
    crash: int = 0
    detected_sdc: int = 0
    detected_total: int = 0
    crash_kinds: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return self.sdc + self.benign + self.crash

    def add(self, result: ExperimentResult) -> None:
        if result.outcome is Outcome.SDC:
            self.sdc += 1
            if result.detected:
                self.detected_sdc += 1
        elif result.outcome is Outcome.BENIGN:
            self.benign += 1
        else:
            self.crash += 1
            self.crash_kinds[result.crash_kind or "unknown"] += 1
        if result.detected:
            self.detected_total += 1

    def merge(self, other: "CampaignStats") -> "CampaignStats":
        """Fold another stats block into this one (returns self).

        This is how per-worker / per-campaign partial counts combine into
        totals without replaying results.
        """
        self.sdc += other.sdc
        self.benign += other.benign
        self.crash += other.crash
        self.detected_sdc += other.detected_sdc
        self.detected_total += other.detected_total
        self.crash_kinds.update(other.crash_kinds)
        return self

    def rate(self, what: str) -> float:
        if self.total == 0:
            return float("nan")
        return {"sdc": self.sdc, "benign": self.benign, "crash": self.crash}[
            what
        ] / self.total

    @property
    def sdc_detection_rate(self) -> float:
        """Fraction of SDC outcomes that the detectors flagged (Fig. 12)."""
        if self.sdc == 0:
            return 0.0
        return self.detected_sdc / self.sdc


@dataclass
class CampaignSummary:
    config: CampaignConfig
    campaigns: list[CampaignStats]
    totals: CampaignStats
    sdc_rate: RateEstimate
    benign_rate: RateEstimate
    crash_rate: RateEstimate
    converged: bool
    #: :meth:`GoldenCache.cache_info` of the parent's injector at summary
    #: time — hit/miss/eviction counters for campaign provenance.  ``None``
    #: only on hand-built summaries.
    golden_cache: dict | None = None
    #: The injector's ``checkpoint_stats`` (restores, sites skipped,
    #: convergence exits...) — parent-process counters only; pooled faulty
    #: runs replay in full and record no tapes.
    checkpoints: dict | None = None
    #: :meth:`~repro.store.CampaignRecorder.counters` when the run recorded
    #: to a campaign store: ``hits`` (experiments replayed from the store,
    #: faulty run skipped), ``misses`` (executed and recorded this run),
    #: ``recorded`` (the campaign's total stored records).  ``None`` on
    #: storeless runs — same shape and vocabulary as ``golden_cache``, so
    #: ``status`` and benchmark reports share one accounting path.
    store: dict | None = None

    @property
    def campaigns_run(self) -> int:
        return len(self.campaigns)


class _Storeless:
    """The recorder of a storeless run: nothing is stored, so nothing
    replays and every drawn experiment executes."""

    def will_execute(self, shard):
        return True

    def redraw(self, rng, params, shard=None):
        return None

    def claim(self, k, bit, params, shard=None):
        return None, None

    def replay(self, key):
        return None

    def record(self, key, seq, k, bit, params, result):
        pass


_STORELESS = _Storeless()


@dataclass
class _Draw:
    """One drawn schedule position, as the consumers see it."""

    runner: Runner
    golden: GoldenRun | None  # None for a position redrawn from its record
    k: int
    bit: int
    params: dict | None
    key: str | None
    seq: int | None
    stored: ExperimentResult | None


def _draw_schedule(
    injector, runner_factory, count, rng, bindings_factory, recorder, shard,
    inline,
):
    """Draw ``count`` experiments in serial RNG order — the one schedule.

    Every position is drawn, claimed and looked up in the store here, in
    the parent, whether its faulty run then executes inline or in a pool
    worker.  A position the store already holds is redrawn from its
    record, with no golden run; the recorder checks that the redraw
    reproduces the record and otherwise leaves the RNG stream untouched
    for the golden draw.  A shard run draws *every* position — the
    schedule is one RNG stream, so skipping a draw would shift every
    later shard's triples — but yields only the positions its stripe
    owns.  Drawing a position costs no input arrays (registry runners
    build them on their first call) and no key hash (the recorder claims
    only owned positions).  Only draws whose faulty run will execute
    ``inline`` may record a checkpoint tape.
    """
    for _ in range(count):
        runner = runner_factory(rng)
        params = getattr(runner, "params", None)
        held = recorder.redraw(rng, params, shard)
        if held is not None:
            key, seq, k, bit = held
            yield _Draw(runner, None, k, bit, params, key, seq, recorder.replay(key))
            continue
        record_tape = inline and recorder.will_execute(shard)
        golden, k, bit = draw_experiment(
            injector, runner, rng, bindings_factory, record_tape
        )
        claimed = recorder.claim(k, bit, params, shard)
        if claimed is None:  # another stripe's position
            continue
        key, seq = claimed
        yield _Draw(runner, golden, k, bit, params, key, seq, recorder.replay(key))


def _run_inline(injector, draws, bindings_factory, recorder):
    for d in draws:
        if d.stored is not None:
            yield d.stored
            continue
        result = injector.faulty(
            d.runner, d.golden, d.k, bit=d.bit, bindings_factory=bindings_factory
        )
        recorder.record(d.key, d.seq, d.k, d.bit, d.params, result)
        yield result


def _run_pooled(pool, draws, recorder):
    # The pool's task-handler thread consumes the schedule generator, so
    # each draw is relayed to this (consuming) side through an in-order
    # queue: stored draws never reach the workers, the rest are executed
    # and recorded as their results stream back — still in schedule order,
    # still bit-identical.
    plan: queue.SimpleQueue = queue.SimpleQueue()

    def schedule():
        try:
            for d in draws:
                if d.stored is not None:
                    plan.put(d)
                    continue
                entry = schedule_entry(d.params, d.golden, d.k, d.bit)
                plan.put(d)
                yield entry
        except BaseException as exc:
            # The pool would surface this through next(results) eventually,
            # but the consumer may be blocked on the plan queue first.
            plan.put(exc)
            raise
        plan.put(None)

    results = pool.imap(schedule())
    while (d := plan.get()) is not None:
        if isinstance(d, BaseException):
            raise d
        if d.stored is not None:
            yield d.stored
            continue
        result = next(results)
        recorder.record(d.key, d.seq, d.k, d.bit, d.params, result)
        yield result


def _results(
    injector, runner_factory, count, rng, bindings_factory, pool, recorder, shard
):
    """One block of ``count`` experiments' results, in schedule order."""
    recorder = recorder if recorder is not None else _STORELESS
    draws = _draw_schedule(
        injector, runner_factory, count, rng, bindings_factory, recorder,
        shard, inline=pool is None,
    )
    if pool is None:
        return _run_inline(injector, draws, bindings_factory, recorder)
    return _run_pooled(pool, draws, recorder)


def run_batch(
    injector: FaultInjector,
    runner_factory: Callable[[Random], Runner],
    count: int,
    rng: Random,
    bindings_factory: BindingsFactory | None = None,
    pool=None,
    recorder=None,
    shard=None,
) -> CampaignStats:
    """Run ``count`` experiments into one :class:`CampaignStats` block.

    The flat (no convergence loop) driver used by the Fig. 12 detector
    study; takes the same ``pool``/``recorder``/``shard`` as
    :func:`run_campaigns`.
    """
    if shard is not None and recorder is None:
        raise ValueError("run_batch(shard=...) requires a recorder")
    stats = CampaignStats()
    try:
        for result in _results(
            injector, runner_factory, count, rng, bindings_factory, pool,
            recorder, shard,
        ):
            stats.add(result)
    finally:
        if recorder is not None:
            recorder.store.flush()
    if recorder is not None:
        recorder.finish(executed_total=stats.total)
    return stats


def run_campaigns(
    injector: FaultInjector,
    runner_factory: Callable[[Random], Runner],
    config: CampaignConfig | None = None,
    seed: int = 0,
    bindings_factory: BindingsFactory | None = None,
    pool=None,
    recorder=None,
    shard=None,
) -> CampaignSummary:
    """Run fault-injection campaigns to statistical convergence.

    ``runner_factory(rng)`` must return a *deterministic* runner for a
    randomly drawn input (the rng is only used for the draw).  A ``pool``
    (an :meth:`ExperimentPool.cell <repro.core.parallel.ExperimentPool.cell>`
    view) runs the faulty halves in its workers; the summary is then
    bit-identical to a serial run with the same seed.  The caller owns the
    pool, so a sweep shares one across all its cells.

    A ``recorder`` (built by :meth:`repro.store.CampaignStore.recorder`)
    journals every experiment to a durable store as it completes and
    replays already-stored experiments without executing their faulty
    runs; an interrupted campaign resumed this way converges to the same
    summary, record for record, as an uninterrupted one.

    A ``shard`` (:class:`~repro.store.ShardSpec`; recorder required) runs
    one stripe of a distributed sweep: the full schedule is drawn (same RNG
    stream as serial) but only owned positions execute, and the convergence
    early-exit is disabled — every shard must cover the identical
    ``max_campaigns`` budget or the stripes could not be merged.  The
    convergence flag is instead recomputed from the samples via
    :func:`would_converge` (complete samples only: a ``1``-shard baseline
    here, the merged journal in ``store merge``).
    """
    if shard is not None and recorder is None:
        raise ValueError("run_campaigns(shard=...) requires a recorder")
    config = config or CampaignConfig()
    rng = Random(seed)
    campaigns: list[CampaignStats] = []
    totals = CampaignStats()
    sdc_samples: list[float] = []
    converged = False

    try:
        while len(campaigns) < config.max_campaigns:
            stats = CampaignStats()
            for result in _results(
                injector, runner_factory, config.experiments_per_campaign,
                rng, bindings_factory, pool, recorder, shard,
            ):
                stats.add(result)
            totals.merge(stats)
            campaigns.append(stats)
            sdc_samples.append(stats.rate("sdc"))

            if shard is None and meets_stopping_rule(sdc_samples, config):
                converged = True
                break
    finally:
        if recorder is not None:
            # Whatever happened — convergence, a crash, a deliberate abort —
            # land every journaled record before control leaves.
            recorder.store.flush()

    if shard is not None and shard.count == 1:
        # Full-budget baseline with complete samples: recompute the flag a
        # convergence-gated run would have produced, so the manifest matches
        # what `store merge` derives from a merged multi-shard journal.
        converged = would_converge(sdc_samples, config)

    if recorder is not None:
        # A >1-shard stripe sees only its share of each campaign, so its
        # samples cannot answer the convergence question; merge recomputes
        # the flag from the reassembled journal instead.
        finish_converged = (
            None if shard is not None and shard.count > 1 else converged
        )
        recorder.finish(executed_total=totals.total, converged=finish_converged)

    benign_samples = [c.rate("benign") for c in campaigns]
    crash_samples = [c.rate("crash") for c in campaigns]
    return CampaignSummary(
        config=config,
        campaigns=campaigns,
        totals=totals,
        sdc_rate=estimate_rate(sdc_samples, config.confidence),
        benign_rate=estimate_rate(benign_samples, config.confidence),
        crash_rate=estimate_rate(crash_samples, config.confidence),
        converged=converged,
        golden_cache=injector.golden_cache.cache_info(),
        checkpoints=dict(injector.checkpoint_stats),
        store=recorder.counters() if recorder is not None else None,
    )
