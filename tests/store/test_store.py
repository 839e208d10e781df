"""CampaignStore lifecycle: markers, manifests, records, cells, status."""

import json
import math
import struct

import pytest

from repro.core import FaultInjector
from repro.core.outcomes import ExperimentResult, Outcome
from repro.core.runtime import InjectionRecord
from repro.experiments.common import ExperimentReport
from repro.store import (
    FORMAT,
    CampaignStore,
    StoreError,
    decode_result,
    encode_result,
)
from repro.workloads import get_workload


def _make_store(tmp_path, name="store"):
    return CampaignStore(tmp_path / name)


def _injector():
    return FaultInjector(get_workload("vcopy").compile("avx"), category="pure-data")


def _recorder(store, injector, **kwargs):
    defaults = dict(
        experiment="test",
        cell={"benchmark": "vcopy"},
        scale="custom",
        injector=injector,
        seed=7,
        config={"experiments": 4},
        planned=4,
    )
    defaults.update(kwargs)
    return store.recorder(**defaults)


def _result(outcome=Outcome.SDC, original=1.5, corrupted=-1.5):
    return ExperimentResult(
        outcome=outcome,
        detected=False,
        injection=InjectionRecord(
            site_id=3,
            dynamic_index=2,
            bit=17,
            type_name="f32",
            original=original,
            corrupted=corrupted,
        ),
        dynamic_sites=9,
        target_index=2,
        site_categories=frozenset({"pure-data"}),
        golden_dynamic_instructions=100,
        faulty_dynamic_instructions=101,
    )


def test_create_and_reopen(tmp_path):
    store = _make_store(tmp_path)
    assert (store.root / "STORE").read_text().strip() == FORMAT
    store.close()
    CampaignStore(store.root).close()  # reopen is fine


def test_refuses_foreign_directory(tmp_path):
    (tmp_path / "stuff.txt").write_text("not a store")
    with pytest.raises(StoreError, match="refusing to adopt"):
        CampaignStore(tmp_path)


def test_refuses_unknown_format(tmp_path):
    root = tmp_path / "old"
    root.mkdir()
    (root / "STORE").write_text("repro-campaign-store-v999\n")
    with pytest.raises(StoreError, match="v999"):
        CampaignStore(root)


def test_result_round_trip_is_bit_exact():
    # A NaN with a nonstandard payload: plain JSON could never carry this.
    payload_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0]
    result = _result(original=payload_nan, corrupted=math.inf)
    decoded = decode_result(json.loads(json.dumps(encode_result(result))))
    assert struct.pack("<d", decoded.injection.original) == struct.pack(
        "<d", payload_nan
    )
    assert decoded.injection.corrupted == math.inf
    # NaN defeats ==; the encoded forms must still agree byte for byte.
    assert encode_result(decoded) == encode_result(result)
    plain = decode_result(json.loads(json.dumps(encode_result(_result()))))
    assert plain == _result()


def test_record_and_lookup_survive_reopen(tmp_path):
    store = _make_store(tmp_path)
    recorder = _recorder(store, _injector())
    key, seq = recorder.claim(k=5, bit=3, params={"n": 8})
    assert recorder.replay(key) is None
    recorder.record(key, seq, 5, 3, {"n": 8}, _result())
    recorder.finish(executed_total=1, converged=True)
    store.close()

    reopened = CampaignStore(store.root)
    recorder2 = _recorder(reopened, _injector())
    key2, _ = recorder2.claim(k=5, bit=3, params={"n": 8})
    assert key2 == key  # deterministic content addressing
    assert recorder2.replay(key2) == _result()
    assert recorder2.counters() == {"hits": 1, "misses": 0, "recorded": 1}
    manifest = reopened.manifests("test")[0]
    assert manifest["completed"] and manifest["converged"]
    assert manifest["executed"] == 1
    reopened.close()


def test_claim_hashes_only_the_stripes_own_positions(tmp_path):
    from repro.store import ShardSpec

    store = _make_store(tmp_path)
    recorder = _recorder(store, _injector())
    shard = ShardSpec(1, 2)
    assert recorder.claim(k=5, bit=3, params={"n": 8}, shard=shard) is None
    key, seq = recorder.claim(k=5, bit=3, params={"n": 8}, shard=shard)
    assert seq == 1
    serial = _recorder(CampaignStore(tmp_path / "serial"), _injector())
    serial.claim(k=5, bit=3, params={"n": 8})
    assert serial.claim(k=5, bit=3, params={"n": 8}) == (key, 1)
    store.close()
    serial.store.close()


def test_registry_change_refuses_resume(tmp_path, monkeypatch):
    store = _make_store(tmp_path)
    _recorder(store, _injector())
    monkeypatch.setattr(
        "repro.workloads.registry.registry_fingerprint", lambda: "different"
    )
    with pytest.raises(StoreError, match="registry changed"):
        _recorder(store, _injector())
    store.close()


def test_status_and_resume_plans(tmp_path):
    store = _make_store(tmp_path)
    recorder = _recorder(store, _injector(), scale="smoke")
    (row,) = store.status_rows()
    assert (row["state"], row["done"]) == ("pending", 0)
    key, seq = recorder.claim(k=1, bit=0, params={"n": 8})
    recorder.record(key, seq, 1, 0, {"n": 8}, _result())
    (row,) = store.status_rows()
    assert (row["state"], row["done"]) == ("partial", 1)
    assert "incomplete" in store.render_status()
    (plan,) = store.resume_plans()
    assert plan == {
        "experiment": "test",
        "scale": "smoke",
        "engine": "direct",
        "benchmarks": ["vcopy"],
    }
    recorder.finish(executed_total=1)
    (row,) = store.status_rows()
    assert row["state"] == "complete"
    assert "all cells complete" in store.render_status()
    store.close()


def test_custom_scale_has_no_cli_resume_plan(tmp_path):
    store = _make_store(tmp_path)
    _recorder(store, _injector(), scale="custom")
    assert store.resume_plans() == []
    store.close()


def test_cell_memoization_round_trips_nan(tmp_path):
    store = _make_store(tmp_path)
    rows = [{"name": "x", "frac": math.nan, "count": 3, "note": None}]
    store.record_cell("k1", "fig10", "smoke", {"benchmark": "x"}, rows)
    cached = store.lookup_cell("k1")["rows"]
    assert cached[0]["count"] == 3 and cached[0]["note"] is None
    assert math.isnan(cached[0]["frac"])
    store.close()
    reopened = CampaignStore(store.root)
    again = reopened.lookup_cell("k1")["rows"]
    assert math.isnan(again[0]["frac"]) and again[0]["name"] == "x"
    assert reopened.cells("fig10")[0]["key"] == "k1"
    reopened.close()


def test_experiment_report_save_is_atomic(tmp_path, monkeypatch):
    report = ExperimentReport(name="t", scale="smoke", headers=["a"], rows=[{"a": 1}])
    target = tmp_path / "t.json"
    report.save(target)
    before = target.read_text()
    assert json.loads(before)["rows"] == [{"a": 1}]

    # A crash mid-write must leave the previous contents untouched and no
    # temp litter behind.
    report.rows.append({"a": 2})
    monkeypatch.setattr(ExperimentReport, "to_json", lambda self: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        report.save(target)
    assert target.read_text() == before
    assert list(tmp_path.iterdir()) == [target]
