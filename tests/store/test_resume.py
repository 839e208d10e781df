"""The resume invariant: a campaign killed partway and resumed is
byte-identical to one that never crashed — across all three engines,
serial and ``--jobs 2``, and the rebuilt report never executes anything."""

import json

import pytest

from repro.core import (
    CampaignConfig,
    ENGINES,
    ExperimentPool,
    FaultInjector,
    run_campaigns,
)
from repro.experiments.common import campaign_worker_context
from repro.store import CampaignAborted, CampaignStore, TornTailWarning
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


def _run(store, engine, jobs=1, abort_after=None):
    w = get_workload("vcopy")
    injector = _injector(engine)
    recorder = _recorder(store, injector, abort_after=abort_after)

    def run(pool=None):
        return run_campaigns(
            injector, w.runner_factory(), _CONFIG, seed=_SEED, pool=pool,
            recorder=recorder,
        )

    if jobs == 1:
        return run()
    context = campaign_worker_context(injector, w)
    with ExperimentPool(jobs, {"cell": context}) as pool:
        return run(pool.cell("cell"))


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
