"""Submission validation and key soundness: the service's store contract."""

import pytest

from repro.core.injector import FaultInjector
from repro.experiments.common import cell_seed
from repro.service import (
    BadSubmission,
    build_manifest,
    campaign_key_for,
    campaign_row,
    normalize_submission,
    submission_from_manifest,
)
from repro.service.protocol import STEP_LIMIT, status_payload
from repro.store import CampaignStore
from repro.workloads.registry import get_workload


def _submission(**overrides):
    payload = {"workload": "vcopy", "category": "pure-data", "scale": "smoke"}
    payload.update(overrides)
    return normalize_submission(payload)


def test_defaults_fill_in():
    sub = _submission()
    assert sub.target == "avx"
    assert sub.engine == "direct"
    assert sub.tenant == "anonymous"
    assert sub.priority == 1
    assert sub.seed == cell_seed("fig11", "vcopy", "avx", "pure-data")
    assert sub.config["max_campaigns"] >= 1


@pytest.mark.parametrize(
    "bad",
    [
        {"workload": "no_such_workload"},
        {"workload": "vcopy", "target": "arm"},
        {"workload": "vcopy", "category": "quantum"},
        {"workload": "vcopy", "engine": "psychic"},
        {"workload": "vcopy", "scale": "galactic"},
        {"workload": "vcopy", "seed": "forty-two"},
        {"workload": "vcopy", "seed": True},
        {"workload": "vcopy", "priority": 0},
        {"workload": "vcopy", "priority": 17},
        {"workload": "vcopy", "tenant": ""},
        {"workload": "vcopy", "surprise": 1},
        "not-a-dict",
        # The compiled chains are the direct engine now, not a choice.
        {"workload": "vcopy", "engine": "compiled"},
    ],
)
def test_rejects_bad_payloads(bad):
    with pytest.raises(BadSubmission):
        normalize_submission(bad)


def test_benchmark_is_a_workload_alias():
    assert _submission != normalize_submission  # sanity: helper vs fn
    sub = normalize_submission(
        {"benchmark": "vcopy", "category": "pure-data", "scale": "smoke"}
    )
    assert sub.workload == "vcopy"


def test_campaign_key_matches_store_recorder(tmp_path):
    """The accept-time key equals the key the executing recorder derives
    from the real injector — the soundness of cross-tenant memoization."""
    sub = _submission()
    key = campaign_key_for(sub)

    module = get_workload("vcopy").compile("avx")
    injector = FaultInjector(
        module, category="pure-data", step_limit=STEP_LIMIT, engine="direct"
    )
    store = CampaignStore(tmp_path / "store")
    recorder = store.recorder(
        experiment="fig11",
        cell=sub.cell,
        scale=sub.scale,
        injector=injector,
        seed=sub.seed,
        config=sub.config,
        planned=8,
    )
    assert recorder.campaign_key == key
    store.close()


def test_accept_time_manifest_merges_with_recorder(tmp_path):
    """Manifesting at accept then opening the recorder at execution must
    converge on one manifest (same key, merged extras), not two."""
    sub = _submission(tenant="alice", priority=3)
    key = campaign_key_for(sub)
    store = CampaignStore(tmp_path / "store")
    store.add_manifest(build_manifest(sub, key))
    assert len(store.manifests()) == 1

    module = get_workload("vcopy").compile("avx")
    injector = FaultInjector(
        module, category="pure-data", step_limit=STEP_LIMIT, engine="direct"
    )
    store.recorder(
        experiment="fig11",
        cell=sub.cell,
        scale=sub.scale,
        injector=injector,
        seed=sub.seed,
        config=sub.config,
        planned=build_manifest(sub, key)["planned"],
        extras={"static_sites": len(injector.sites)},
    )
    manifests = store.manifests()
    assert len(manifests) == 1
    extras = manifests[0]["extras"]
    assert extras["tenant"] == "alice"
    assert extras["priority"] == 3
    assert extras["static_sites"] == len(injector.sites)
    store.close()


def test_submission_round_trips_through_manifest():
    sub = _submission(tenant="bob", priority=5, seed=1234)
    manifest = build_manifest(sub, campaign_key_for(sub))
    assert submission_from_manifest(manifest) == sub


def test_submission_from_foreign_manifest_is_none():
    assert submission_from_manifest({"experiment": "table1"}) is None
    assert (
        submission_from_manifest({"experiment": "fig11", "cell": {"x": 1}})
        is None
    )


def test_status_rows_reflect_store_state(tmp_path):
    sub = _submission(tenant="carol")
    key = campaign_key_for(sub)
    store = CampaignStore(tmp_path / "store")
    store.add_manifest(build_manifest(sub, key))

    payload = status_payload(store)
    (row,) = payload["campaigns"]
    assert row["state"] == "pending"
    assert row["tenant"] == "carol"
    assert row["done"] == 0
    assert row["totals"]["total"] == 0

    # A live overlay (the daemon's in-flight view) wins over store fields.
    live = {key: {"state": "running", "done": 3}}
    row = status_payload(store, live)["campaigns"][0]
    assert row["state"] == "running"
    assert row["done"] == 3

    manifest = store.manifests()[0]
    row = campaign_row(store, {**manifest, "completed": True, "executed": 8})
    assert row["state"] == "complete"
    store.close()
