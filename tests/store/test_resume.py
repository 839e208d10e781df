"""The resume invariant: a campaign killed partway and resumed is
byte-identical to one that never crashed — across both engines,
serial and ``--jobs 2``, and the rebuilt report never executes anything."""

import json
import shutil
from collections import Counter

import pytest

from repro.core import (
    CampaignConfig,
    ENGINES,
    ExperimentPool,
    FaultInjector,
    run_campaigns,
)
from repro.experiments.common import campaign_worker_context
from repro.store import CampaignAborted, CampaignStore, ShardSpec, TornTailWarning
from repro.store.journal import frame, parse_frame
from repro.workloads import get_workload

#: 2 campaigns x 6 experiments, no early convergence.
_CONFIG = CampaignConfig(
    experiments_per_campaign=6,
    max_campaigns=2,
    min_campaigns=2,
    require_normality=False,
    margin_target=0.0,
)
_SEED = 1234


def _injector(engine: str) -> FaultInjector:
    return FaultInjector(
        get_workload("vcopy").compile("avx"), category="pure-data", engine=engine
    )


def _recorder(store, injector, **kwargs):
    return store.recorder(
        experiment="test",
        cell={"benchmark": "vcopy"},
        scale="custom",
        injector=injector,
        seed=_SEED,
        config={"experiments": 12},
        planned=12,
        **kwargs,
    )


def _run(store, engine, jobs=1, abort_after=None, shard=None):
    w = get_workload("vcopy")
    injector = _injector(engine)
    recorder = _recorder(store, injector, abort_after=abort_after)

    def run(pool=None):
        return run_campaigns(
            injector, w.runner_factory(), _CONFIG, seed=_SEED, pool=pool,
            recorder=recorder, shard=shard,
        )

    if jobs == 1:
        return run()
    context = campaign_worker_context(injector, w)
    with ExperimentPool(jobs, {"cell": context}) as pool:
        return run(pool.cell("cell"))


@pytest.fixture
def goldens(monkeypatch):
    """Counts this process's schedule draws that took a golden run
    (``"drawn"``: cache hits included) and the goldens actually executed
    (``"run"``)."""
    calls = Counter()
    cached_golden = FaultInjector.cached_golden
    golden = FaultInjector.golden

    def counted_cached(self, *args, **kwargs):
        calls["drawn"] += 1
        return cached_golden(self, *args, **kwargs)

    def counted_golden(self, *args, **kwargs):
        calls["run"] += 1
        return golden(self, *args, **kwargs)

    monkeypatch.setattr(FaultInjector, "cached_golden", counted_cached)
    monkeypatch.setattr(FaultInjector, "golden", counted_golden)
    return calls


def _store_bytes(root):
    return {
        name: (root / name).read_bytes()
        for name in ("journal.jsonl", "manifests.jsonl")
    }


def _journal_records(store):
    """The store's experiment records exactly as journaled (framed dicts)."""
    key = store.manifests("test")[0]["campaign_key"]
    return store.experiments_for(key)


@pytest.mark.parametrize("engine", ENGINES)
def test_interrupted_resume_is_byte_identical(tmp_path, engine):
    clean = CampaignStore(tmp_path / "clean")
    baseline = _run(clean, engine)
    assert baseline.store == {"hits": 0, "misses": 12, "recorded": 12}

    # Kill the campaign after 5 experiments...
    crashed = CampaignStore(tmp_path / "crashed")
    with pytest.raises(CampaignAborted):
        _run(crashed, engine, abort_after=5)
    crashed.close()

    # ...reopen the store and finish the run under a parallel pool.
    resumed_store = CampaignStore(tmp_path / "crashed")
    resumed = _run(resumed_store, engine, jobs=2)
    assert resumed.store == {"hits": 5, "misses": 7, "recorded": 12}

    # Outcome totals, per-campaign stats, and rate estimates all agree.
    assert resumed.totals == baseline.totals
    assert resumed.campaigns == baseline.campaigns
    assert resumed.sdc_rate == baseline.sdc_rate
    assert resumed.converged == baseline.converged

    # And the stored records agree byte for byte: same keys, same order,
    # same injection values, same dynamic-instruction counts.
    assert _journal_records(resumed_store) == _journal_records(clean)
    assert (
        (tmp_path / "crashed" / "journal.jsonl").read_bytes()
        == (tmp_path / "clean" / "journal.jsonl").read_bytes()
    )
    clean.close()
    resumed_store.close()


def test_engines_share_distinct_campaign_keys(tmp_path):
    """Engine is part of the identity: a store never splices engines."""
    store = CampaignStore(tmp_path / "s")
    keys = {
        _recorder(store, _injector(engine)).campaign_key for engine in ENGINES
    }
    assert len(keys) == len(ENGINES)
    store.close()


def test_torn_tail_re_executes_the_lost_record(tmp_path):
    clean = CampaignStore(tmp_path / "clean")
    _run(clean, "direct")
    clean.close()

    crashed = CampaignStore(tmp_path / "crashed")
    with pytest.raises(CampaignAborted):
        _run(crashed, "direct", abort_after=5)
    crashed.close()
    # Tear the final journal record: a crash mid-append.
    journal = tmp_path / "crashed" / "journal.jsonl"
    journal.write_bytes(journal.read_bytes()[:-9])

    with pytest.warns(TornTailWarning):
        store = CampaignStore(tmp_path / "crashed")
    resumed = _run(store, "direct")
    # One record was lost to the tear, so resume re-executes it (8 = 12 - 4).
    assert resumed.store == {"hits": 4, "misses": 8, "recorded": 12}
    assert journal.read_bytes() == (tmp_path / "clean" / "journal.jsonl").read_bytes()
    store.close()


def test_rebuild_report_never_executes(tmp_path, monkeypatch):
    from repro.analysis.report import rebuild_report
    from repro.experiments import fig12

    store = CampaignStore(tmp_path / "store")
    live = fig12.run(scale="smoke", store=store)

    # From here on, compiling a workload or building an injector is a bug.
    monkeypatch.setattr(
        "repro.workloads.registry.Workload.compile",
        lambda *a, **k: pytest.fail("rebuild compiled a workload"),
    )
    monkeypatch.setattr(
        "repro.core.injector.FaultInjector.__init__",
        lambda *a, **k: pytest.fail("rebuild built an injector"),
    )
    rebuilt = rebuild_report(store, "fig12")
    assert rebuilt.rows == live.rows
    assert rebuilt.headers == live.headers
    assert json.dumps(rebuilt.rows) == json.dumps(live.rows)
    store.close()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("engine", ENGINES)
def test_noop_resume_runs_no_golden(tmp_path, engine, jobs, goldens):
    """Every position of a complete store is redrawn from its record."""
    with CampaignStore(tmp_path / "s") as store:
        baseline = _run(store, engine)
    before = _store_bytes(tmp_path / "s")
    goldens.clear()

    with CampaignStore(tmp_path / "s") as store:
        resumed = _run(store, engine, jobs=jobs)
    assert goldens == {}
    assert resumed.store == {"hits": 12, "misses": 0, "recorded": 12}
    assert resumed.campaigns == baseline.campaigns
    assert _store_bytes(tmp_path / "s") == before


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("engine", ENGINES)
def test_aborted_resume_draws_goldens_only_for_missing_positions(
    tmp_path, engine, jobs, goldens
):
    with CampaignStore(tmp_path / "clean") as clean:
        _run(clean, engine)
    crashed = CampaignStore(tmp_path / "crashed")
    with pytest.raises(CampaignAborted):
        _run(crashed, engine, abort_after=5)
    crashed.close()
    goldens.clear()

    with CampaignStore(tmp_path / "crashed") as store:
        resumed = _run(store, engine, jobs=jobs)
    # Positions 0-4 are held; only the 7 the crash lost draw a golden.
    assert goldens["drawn"] == 7
    assert resumed.store == {"hits": 5, "misses": 7, "recorded": 12}
    assert _store_bytes(tmp_path / "crashed") == _store_bytes(tmp_path / "clean")


def test_stripe_resume_draws_goldens_only_for_unowned_positions(
    tmp_path, goldens
):
    """A stripe store holds only its own positions, so a no-op resume
    still draws every other stripe's position through a golden run."""
    shard = ShardSpec(0, 2)
    with CampaignStore(tmp_path / "s") as store:
        store.set_shard(shard)
        _run(store, "direct", shard=shard)
    before = _store_bytes(tmp_path / "s")
    goldens.clear()

    with CampaignStore(tmp_path / "s") as store:
        resumed = _run(store, "direct", shard=shard)
    assert goldens["drawn"] == 6
    assert resumed.store == {"hits": 6, "misses": 0, "recorded": 6}
    assert _store_bytes(tmp_path / "s") == before


def test_record_that_disagrees_with_its_redraw_takes_the_golden_path(
    tmp_path, goldens
):
    """An edited N redraws a different k: the position rewinds the RNG
    and draws with a golden, whose key still finds the (edited) record —
    so it replays, and every later position still redraws."""
    with CampaignStore(tmp_path / "clean") as store:
        baseline = _run(store, "direct")
    shutil.copytree(tmp_path / "clean", tmp_path / "edited")
    journal = tmp_path / "edited" / "journal.jsonl"
    records = [parse_frame(line) for line in journal.read_bytes().splitlines()]
    seq = next(r["seq"] for r in records if r["k"] > 1)
    # randint(1, k - 1) can never redraw k.
    records[seq]["result"]["dynamic_sites"] = records[seq]["k"] - 1
    journal.write_bytes(b"".join(frame(r) for r in records))
    edited = _store_bytes(tmp_path / "edited")
    goldens.clear()

    with CampaignStore(tmp_path / "edited") as store:
        resumed = _run(store, "direct")
    assert goldens["drawn"] == 1
    assert resumed.store == {"hits": 12, "misses": 0, "recorded": 12}
    assert resumed.campaigns == baseline.campaigns
    assert _store_bytes(tmp_path / "edited") == edited


def test_service_resume_counts_held_positions_as_hits(tmp_path, goldens):
    """A service campaign over a store holding its first positions redraws
    them through ``StreamingRecorder`` and reports them as hits."""
    from repro.service.protocol import normalize_submission
    from repro.service.workers import EngineCache, execute_submission

    sub = normalize_submission(
        {"workload": "vcopy", "category": "pure-data", "scale": "smoke"}
    )
    with CampaignStore(tmp_path / "clean") as store:
        execute_submission(store, sub, None, EngineCache(), lambda event: None)
    clean = _store_bytes(tmp_path / "clean")
    total = len(clean["journal.jsonl"].splitlines())

    # What a crash after five experiments leaves: the accept-time manifest
    # and the first five records.
    held = 5
    partial = tmp_path / "partial"
    partial.mkdir()
    (partial / "STORE").write_bytes((tmp_path / "clean" / "STORE").read_bytes())
    (partial / "journal.jsonl").write_bytes(
        b"".join(clean["journal.jsonl"].splitlines(True)[:held])
    )
    (partial / "manifests.jsonl").write_bytes(
        clean["manifests.jsonl"].splitlines(True)[0]
    )
    goldens.clear()

    events = []
    with CampaignStore(partial) as store:
        execute_submission(store, sub, None, EngineCache(), events.append)
    assert goldens["drawn"] == total - held
    final = events[-1]
    assert final["event"] == "complete"
    assert (final["hits"], final["misses"], final["done"]) == (
        held, total - held, total
    )
    assert _store_bytes(partial) == clean
