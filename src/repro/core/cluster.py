"""Simulated cluster: run N schedule stripes in N processes, then merge.

Each shard run is a *real* distributed worker in miniature: its own
process, its own store directory (``<parent>/shard-<i>/``), its own
worker pool if the driver asks for one — nothing shared with its siblings
but the read-only campaign definition.  The orchestrator forks them
(non-daemonic, so a shard may spawn its own :class:`~repro.core.parallel.
ExperimentPool`), collects per-shard wall times and counters over a pipe,
merges the shard journals with :func:`repro.store.merge.merge_shards`,
and rebuilds results from the merged journal alone — exactly the workflow
N independent hosts would follow with a shared filesystem, minus the
hosts.

``sequential=True`` runs the same forked shard processes one at a time.
That is the honest benchmarking mode on a small machine: each shard's
wall time is measured with the whole machine to itself, so
``max(shard_seconds) + merge_seconds`` is what N single-core hosts would
deliver.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..errors import ReproError


@dataclass
class ShardOutcome:
    """One shard process's run, as reported back over the result pipe."""

    index: int
    seconds: float
    counters: dict = field(default_factory=dict)
    error: str | None = None


@dataclass
class ClusterResult:
    parent: Path
    count: int
    shards: list[ShardOutcome]
    merge: "object"  # repro.store.merge.MergeReport
    merge_seconds: float
    sequential: bool

    @property
    def merged_store(self) -> Path:
        return self.merge.out

    @property
    def shard_seconds(self) -> list[float]:
        return [s.seconds for s in self.shards]


def _shard_main(parent, index, count, worker, conn) -> None:
    """Child-process entry: open the shard store, run the stripe, report."""
    from ..store import CampaignStore, ShardSpec
    from ..store.shard import shard_dir

    start = time.perf_counter()
    gc.freeze()
    try:
        spec = ShardSpec(index, count)
        store = CampaignStore(shard_dir(parent, index))
        store.set_shard(spec)
        try:
            counters = worker(store, spec)
        finally:
            store.flush()
            store.save_shard_state()
            store.close()
        conn.send(
            ShardOutcome(
                index=index,
                seconds=time.perf_counter() - start,
                counters=dict(counters or {}),
            )
        )
    except BaseException:
        conn.send(
            ShardOutcome(
                index=index,
                seconds=time.perf_counter() - start,
                error=traceback.format_exc(),
            )
        )
        raise
    finally:
        conn.close()


def run_sharded(
    parent: str | Path,
    count: int,
    worker: Callable,
    *,
    sequential: bool = False,
    out: str | Path | None = None,
) -> ClusterResult:
    """Fork ``count`` shard runs of ``worker`` under ``parent`` and merge.

    ``worker(store, shard)`` runs inside each child with that shard's
    opened :class:`~repro.store.CampaignStore` (already pinned to its
    stripe) and must drive the sweep with ``shard=shard`` so only owned
    schedule positions execute.  Whatever picklable counter dict it
    returns rides back for aggregation.  The fork start method is
    required: workers are usually closures over injectors and configs,
    which only inheritance (not pickling) can ship.
    """
    from ..store.merge import merge_shards

    if count < 1:
        raise ReproError(f"cluster needs >= 1 shard, got {count}")
    parent = Path(parent)
    parent.mkdir(parents=True, exist_ok=True)
    ctx = multiprocessing.get_context("fork")
    # Every shard draws its inputs through numpy.random (imported lazily by
    # numpy): import it once here, so the forked shards inherit it instead
    # of each paying the import.
    import numpy.random  # noqa: F401

    outcomes: dict[int, ShardOutcome] = {}

    def launch(index: int):
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_shard_main,
            args=(parent, index, count, worker, send),
            name=f"shard-{index}",
        )
        proc.start()
        send.close()
        return proc, recv

    def collect(index: int, proc, recv) -> None:
        outcome = None
        try:
            if recv.poll(timeout=None):
                outcome = recv.recv()
        except EOFError:
            outcome = None
        finally:
            recv.close()
        proc.join()
        if outcome is None:
            outcome = ShardOutcome(
                index=index,
                seconds=0.0,
                error=f"shard {index} died (exit {proc.exitcode}) before "
                f"reporting",
            )
        outcomes[index] = outcome

    if sequential:
        for index in range(count):
            proc, recv = launch(index)
            collect(index, proc, recv)
    else:
        procs = [launch(index) for index in range(count)]
        for index, (proc, recv) in enumerate(procs):
            collect(index, proc, recv)

    failed = [o for o in outcomes.values() if o.error]
    if failed:
        details = "\n\n".join(
            f"shard {o.index}:\n{o.error}" for o in failed
        )
        raise ReproError(
            f"{len(failed)} of {count} shard run(s) failed; fix and re-run "
            f"them (each resumes from its own store), then merge.\n{details}"
        )

    shards = [outcomes[i] for i in sorted(outcomes)]
    merge_start = time.perf_counter()
    report = merge_shards(
        parent, out=out, durations={o.index: o.seconds for o in shards}
    )
    merge_seconds = time.perf_counter() - merge_start
    return ClusterResult(
        parent=parent,
        count=count,
        shards=shards,
        merge=report,
        merge_seconds=merge_seconds,
        sequential=sequential,
    )


# -- single-cell API sugar (tests / benchmarks) --------------------------------


def run_cell_sharded(
    parent: str | Path,
    count: int,
    cell,
    *,
    sequential: bool = False,
    out: str | Path | None = None,
):
    """Shard one campaign cell across ``count`` processes and merge.

    ``cell(store, shard)`` must run the cell's campaigns into ``store``
    with ``shard=shard`` (e.g. via :func:`~repro.core.campaign.
    run_campaigns`) and return its :class:`~repro.core.campaign.
    CampaignSummary`; the cluster result's counters then carry each
    shard's ``golden_cache``/``store`` accounting for :func:`merged_cell_
    summary` to aggregate.
    """

    def worker(store, shard):
        summary = cell(store, shard)
        return {
            "golden_cache": summary.golden_cache,
            "checkpoints": summary.checkpoints,
            "store": summary.store,
        }

    result = run_sharded(parent, count, worker, sequential=sequential, out=out)
    return result


def _sum_counters(dicts) -> dict | None:
    """Key-wise sum of numeric counter dicts; ``None`` if none present."""
    total: dict = {}
    seen = False
    for counters in dicts:
        if not counters:
            continue
        seen = True
        for key, value in counters.items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
            else:
                total.setdefault(key, value)
    return total if seen else None


def merged_cell_summary(store_root: str | Path, cluster: ClusterResult):
    """Rebuild one cell's :class:`CampaignSummary` from a merged store.

    The campaign structure (per-campaign stats, rates, convergence) comes
    from the merged journal alone — the same records a serial run would
    hold — while the cache/recorder accounting is the *sum across shards*
    of what each shard process observed: the distributed run's golden-run
    cache work and store hit/miss traffic, which no single store records.
    """
    from ..store import CampaignStore
    from ..store.records import decode_result
    from .campaign import (
        CampaignConfig,
        CampaignStats,
        CampaignSummary,
        would_converge,
    )
    from ..analysis.stats import estimate_rate

    with CampaignStore(store_root) as store:
        manifests = store.manifests()
        if len(manifests) != 1:
            raise ReproError(
                f"{store_root} holds {len(manifests)} campaign(s); "
                f"merged_cell_summary wants exactly one cell"
            )
        manifest = manifests[0]
        records = store.experiments_for(manifest["campaign_key"])
    config = CampaignConfig(**manifest["config"])
    per = config.experiments_per_campaign
    campaigns: list[CampaignStats] = []
    totals = CampaignStats()
    for start in range(0, len(records), per):
        stats = CampaignStats()
        for record in records[start : start + per]:
            stats.add(decode_result(record["result"]))
        campaigns.append(stats)
        totals.merge(stats)
    sdc_samples = [c.rate("sdc") for c in campaigns]
    store_counters = _sum_counters(
        o.counters.get("store") for o in cluster.shards
    )
    if store_counters is not None:
        # `recorded` is a per-store gauge, not a flow: the merged journal's
        # record count is the cluster-wide figure.
        store_counters["recorded"] = len(records)
    return CampaignSummary(
        config=config,
        campaigns=campaigns,
        totals=totals,
        sdc_rate=estimate_rate(sdc_samples, config.confidence),
        benign_rate=estimate_rate(
            [c.rate("benign") for c in campaigns], config.confidence
        ),
        crash_rate=estimate_rate(
            [c.rate("crash") for c in campaigns], config.confidence
        ),
        converged=would_converge(sdc_samples, config),
        golden_cache=_sum_counters(
            o.counters.get("golden_cache") for o in cluster.shards
        ),
        checkpoints=_sum_counters(
            o.counters.get("checkpoints") for o in cluster.shards
        ),
        store=store_counters,
    )
