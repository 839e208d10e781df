"""The distributed-campaign invariant: a sweep striped across N shard
processes and merged is **byte-identical** to the single-host serial run —
journal and manifests alike, across both engines — and a torn shard
resumed mid-sweep still merges to the same bytes."""

from dataclasses import asdict

import pytest

from repro.core import CampaignConfig, ENGINES, FaultInjector, run_campaigns
from repro.core.cluster import merged_cell_summary, run_cell_sharded, run_sharded
from repro.errors import ReproError
from repro.store import (
    CampaignStore,
    ShardSpec,
    StoreError,
    TornTailWarning,
    merge_shards,
    shard_dir,
)
from repro.workloads import get_workload

_CONFIG = CampaignConfig(
    experiments_per_campaign=6,
    max_campaigns=2,
    min_campaigns=2,
    require_normality=False,
    margin_target=0.0,
)
_SEED = 1234


def _cell(engine):
    def run(store, shard):
        w = get_workload("vcopy")
        injector = FaultInjector(
            w.compile("avx"), category="pure-data", engine=engine
        )
        recorder = store.recorder(
            experiment="test",
            cell={"benchmark": "vcopy"},
            scale="custom",
            injector=injector,
            seed=_SEED,
            # CampaignConfig-shaped so the merge can recompute the
            # convergence flag the serial run manifests.
            config=asdict(_CONFIG),
            planned=12,
        )
        return run_campaigns(
            injector, w.runner_factory(), _CONFIG, seed=_SEED,
            recorder=recorder, shard=shard,
        )

    return run


def _serial_baseline(root, engine):
    """The ``--shards 1`` run every merge must reproduce byte-for-byte."""
    store = CampaignStore(root)
    store.set_shard(ShardSpec(0, 1))
    summary = _cell(engine)(store, ShardSpec(0, 1))
    store.save_shard_state()
    store.close()
    return summary


def _bytes(root):
    return (
        (root / "journal.jsonl").read_bytes(),
        (root / "manifests.jsonl").read_bytes(),
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_four_way_merge_is_byte_identical(tmp_path, engine):
    baseline = _serial_baseline(tmp_path / "serial", engine)

    result = run_cell_sharded(tmp_path / "cluster", 4, _cell(engine))
    assert result.merge.verify.ok
    assert len(result.shards) == 4
    assert _bytes(result.merged_store) == _bytes(tmp_path / "serial")

    # The report rebuilt from the merged journal alone matches the serial
    # summary: outcome totals, convergence flag, and record accounting.
    merged = merged_cell_summary(result.merged_store, result)
    assert merged.totals == baseline.totals
    assert merged.converged == baseline.converged
    assert merged.store["recorded"] == baseline.store["recorded"] == 12


def test_merged_summary_aggregates_shard_counters(tmp_path):
    result = run_cell_sharded(tmp_path / "cluster", 4, _cell("direct"))
    merged = merged_cell_summary(result.merged_store, result)

    # Each shard executes its own 3-experiment stripe...
    stores = [o.counters["store"] for o in result.shards]
    assert [c["misses"] for c in stores] == [3, 3, 3, 3]
    assert merged.store["misses"] == 12
    assert merged.store["hits"] == 0
    # ...and the per-shard golden-cache counters sum in the merged summary.
    caches = [o.counters["golden_cache"] for o in result.shards]
    assert merged.golden_cache["misses"] == sum(c["misses"] for c in caches)
    # Per-shard outcome attribution covers the whole sweep.
    by_shard = [row.outcomes for row in result.merge.shards]
    combined = {}
    for outcomes in by_shard:
        for outcome, n in outcomes.items():
            combined[outcome] = combined.get(outcome, 0) + n
    assert combined == dict(result.merge.outcomes)
    assert sum(combined.values()) == 12


def test_torn_shard_resumed_then_merged_is_byte_identical(tmp_path):
    serial = tmp_path / "serial"
    _serial_baseline(serial, "direct")
    result = run_cell_sharded(tmp_path / "cluster", 4, _cell("direct"))
    assert _bytes(result.merged_store) == _bytes(serial)

    # Tear shard-2's journal tail (crash mid-append): merge now refuses.
    torn = shard_dir(tmp_path / "cluster", 2) / "journal.jsonl"
    torn.write_bytes(torn.read_bytes()[:-9])
    with pytest.raises(StoreError, match="shard 2/4"):
        merge_shards(tmp_path / "cluster")

    # Resuming the shard repairs the tail and re-executes the lost record.
    with pytest.warns(TornTailWarning):
        store = CampaignStore(shard_dir(tmp_path / "cluster", 2))
    resumed = _cell("direct")(store, ShardSpec(2, 4))
    assert resumed.store == {"hits": 2, "misses": 1, "recorded": 3}
    store.save_shard_state()
    store.close()

    report = merge_shards(tmp_path / "cluster")
    assert report.verify.ok
    assert _bytes(tmp_path / "cluster" / "merged") == _bytes(serial)


def test_failed_shard_reports_and_leaves_store_resumable(tmp_path):
    def worker(store, shard):
        if shard.index == 1:
            raise RuntimeError("simulated shard crash")
        return _cell("direct")(store, shard).store

    with pytest.raises(ReproError, match="1 of 2 shard run\\(s\\) failed"):
        run_sharded(tmp_path / "cluster", 2, worker)

    # The surviving shard's store is intact; the failed one is resumable.
    store = CampaignStore(shard_dir(tmp_path / "cluster", 1))
    assert store.shard_spec() == ShardSpec(1, 2)
    resumed = _cell("direct")(store, ShardSpec(1, 2))
    assert resumed.store["recorded"] == 6
    store.save_shard_state()
    store.close()
    assert merge_shards(tmp_path / "cluster").verify.ok
