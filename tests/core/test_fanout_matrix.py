"""One fan-out path, one byte-identity matrix.

Every way of running a campaign — inline, or through an
:class:`~repro.core.parallel.ExperimentPool` cell keyed by a fork-time
context or by an :class:`~repro.core.parallel.EngineSpec` — crossed with
every way of storing it — not at all, one store, or two shard stores merged —
must give the same summary and the same journal bytes.
"""

import threading
from dataclasses import asdict

import pytest

from repro.core import CampaignConfig, ExperimentPool, run_campaigns
from repro.core.parallel import EngineSpec
from repro.experiments.common import campaign_worker_context
from repro.store import CampaignStore, ShardSpec, merge_shards, shard_dir
from repro.workloads import get_workload

#: 2 campaigns x 8 experiments, no early convergence.
_CONFIG = CampaignConfig(
    experiments_per_campaign=8,
    max_campaigns=2,
    min_campaigns=2,
    require_normality=False,
    margin_target=0.0,
)
_SEED = 6
_SPEC = EngineSpec("vector_sum", "avx", "control", step_limit=500_000)
_WORKLOAD = get_workload(_SPEC.workload)


@pytest.fixture(scope="module")
def pool():
    """One pool serving a fork-time context cell and a spec cell."""
    context = campaign_worker_context(_SPEC.build(), _WORKLOAD)
    with ExperimentPool(2, {"context": context}) as pool:
        yield pool


def _cell(pool, fanout):
    return {
        "serial": None,
        "pool-context": lambda: pool.cell("context"),
        "pool-spec": lambda: pool.cell(_SPEC),
    }[fanout]


def _campaign(cell, store=None, shard=None):
    injector = _SPEC.build()
    recorder = None
    if store is not None:
        recorder = store.recorder(
            experiment="test",
            cell={"benchmark": _SPEC.workload},
            scale="custom",
            injector=injector,
            seed=_SEED,
            config=asdict(_CONFIG),
            planned=_CONFIG.max_campaigns * _CONFIG.experiments_per_campaign,
        )
    return run_campaigns(
        injector, _WORKLOAD.runner_factory(), _CONFIG, seed=_SEED,
        pool=cell() if cell is not None else None,
        recorder=recorder, shard=shard,
    )


def _fingerprint(summary):
    return (
        [
            (c.sdc, c.benign, c.crash, dict(c.crash_kinds))
            for c in summary.campaigns
        ],
        summary.converged,
    )


def _run(tmp_path, cell, store_mode):
    """Run one matrix entry; returns (fingerprint or None, journal bytes)."""
    if store_mode == "none":
        return _fingerprint(_campaign(cell)), None
    if store_mode == "store":
        with CampaignStore(tmp_path / "store") as store:
            summary = _campaign(cell, store)
        journal = (tmp_path / "store" / "journal.jsonl").read_bytes()
        return _fingerprint(summary), journal
    parent = tmp_path / "sweep"
    for i in range(2):
        with CampaignStore(shard_dir(parent, i)) as store:
            spec = ShardSpec(i, 2)
            store.set_shard(spec)
            _campaign(cell, store, shard=spec)
            store.save_shard_state()
    report = merge_shards(parent)
    return None, (report.out / "journal.jsonl").read_bytes()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The serial storeless summary and the serial store's journal."""
    summary = _campaign(None)
    # Meaningful only if every outcome class shows up.
    assert summary.totals.sdc and summary.totals.benign and summary.totals.crash
    _, journal = _run(tmp_path_factory.mktemp("reference"), None, "store")
    return _fingerprint(summary), journal


@pytest.mark.parametrize("store_mode", ["none", "store", "shards"])
@pytest.mark.parametrize("fanout", ["serial", "pool-context", "pool-spec"])
def test_fanout_is_byte_identical(tmp_path, pool, reference, fanout, store_mode):
    fingerprint, journal = _run(tmp_path, _cell(pool, fanout), store_mode)
    if fingerprint is not None:
        assert fingerprint == reference[0]
    if journal is not None:
        assert journal == reference[1]


def test_context_and_spec_cells_run_side_by_side(pool, reference):
    """Two campaigns on one pool at once — one per kind of cell key, as
    concurrent service campaigns do — each still get serial's results."""
    out = {}

    def run(name):
        out[name] = _fingerprint(_campaign(_cell(pool, name)))

    threads = [
        threading.Thread(target=run, args=(name,))
        for name in ("pool-context", "pool-spec")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert out == {"pool-context": reference[0], "pool-spec": reference[0]}
