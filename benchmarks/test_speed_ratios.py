"""Engine and harness speed ratios, each measured within one run.

Every assert compares two timings taken back to back in the same process
(or the same test), so the floors hold on any host, fast or slow.  No
floor is pinned to a number measured on some other machine.  Throughput
in absolute terms, end to end and layer by layer, is ``perfbench/run.py``'s
job; bit-identity is tier-1's (the mini-campaign totals these timings run
are frozen in ``tests/core/test_frozen_totals.py``).

Marked ``slow`` and excluded from tier-1 (``testpaths = ["tests"]``); run
from the repository root with::

    PYTHONPATH=src python -m pytest benchmarks/test_speed_ratios.py -m slow
"""

import gc
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path
from random import Random

import pytest

from repro.core import FaultInjector, run_campaigns
from repro.core.cluster import run_cell_sharded
from repro.core.injector import ENGINES
from repro.workloads import get_workload
from tests.core.test_frozen_totals import (
    EXPECTED_TOTALS,
    MINI_CONFIG,
    SEED,
    mini_campaign,
    mini_injector,
)

pytestmark = pytest.mark.slow

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _module():
    return get_workload("vector_sum").compile("avx")


def _runner(n: int, seed: int):
    return get_workload("vector_sum").build_runner({"n": n, "seed": seed})


def _signature(r):
    return (
        r.outcome.value,
        r.crash_kind,
        repr(r.injection),
        r.dynamic_sites,
        r.faulty_dynamic_instructions,
    )


def _schedule(golden, count: int, lo: int = 1) -> list[tuple[int, int]]:
    """``count`` seeded (site, bit) draws with sites in ``[lo, n]``."""
    rng = Random(SEED)
    out = []
    for _ in range(count):
        k = rng.randint(lo, golden.dynamic_sites)
        out.append((k, rng.randrange(golden.site_widths[k - 1])))
    return out


def _sweep(injector, runner, golden, schedule):
    """Time the faulty runs of a pre-drawn schedule; returns (s, results)."""
    gc.collect()
    t0 = time.perf_counter()
    results = [injector.faulty(runner, golden, k, bit=bit) for k, bit in schedule]
    return time.perf_counter() - t0, results


def _timed_mini_campaign(engine: str, regime: str) -> dict:
    """Wall and faulty-run-only seconds of the frozen-totals mini-campaign."""
    injector = mini_injector(engine)
    injector.warm()
    inner = injector.faulty
    faulty = [0.0]

    def timed_faulty(*args, **kwargs):
        t = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            faulty[0] += time.perf_counter() - t

    injector.faulty = timed_faulty
    gc.collect()
    t0 = time.perf_counter()
    totals = mini_campaign(injector, regime).totals
    seconds = time.perf_counter() - t0
    assert (totals.sdc, totals.benign, totals.crash) == EXPECTED_TOTALS[regime]
    return {"seconds": seconds, "faulty_seconds": faulty[0]}


@pytest.mark.parametrize("regime", sorted(EXPECTED_TOTALS))
def test_direct_mini_campaign_beats_instrumented(regime):
    """Direct injection pays for itself on a whole campaign (>= 2x) and on
    its faulty runs alone (>= 2x): folding sites into the decoder is the
    point of the engine.  Each engine keeps its fastest of three
    interleaved runs, so a slow stretch of the host cannot decide it."""
    runs = {"direct": [], "instrumented": []}
    for _ in range(3):
        for engine, timings in runs.items():
            timings.append(_timed_mini_campaign(engine, regime))
    direct, instrumented = (
        {key: min(t[key] for t in runs[e]) for key in ("seconds", "faulty_seconds")}
        for e in ("direct", "instrumented")
    )
    overall = instrumented["seconds"] / direct["seconds"]
    faulty = instrumented["faulty_seconds"] / direct["faulty_seconds"]
    print(f"{regime}: direct {overall:.2f}x overall, {faulty:.2f}x faulty-only")
    assert overall >= 2.0, f"{regime}: direct only {overall:.2f}x instrumented"
    assert faulty >= 2.0, f"{regime}: direct faulty runs only {faulty:.2f}x"


def test_compiled_faulty_sweep_beats_direct():
    """On full replays (checkpoints off), compiled faulty runs are
    >= 1.5x faster than direct ones, experiment for experiment identical."""
    module = _module()
    runner = _runner(768, 4321)
    runs = {}
    for engine in ("direct", "compiled"):
        injector = FaultInjector(
            module, category="all", step_limit=2_000_000, engine=engine
        )
        injector.warm()
        runs[engine] = (injector, injector.golden(runner))
    schedule = _schedule(runs["direct"][1], 120)
    direct_s, direct_r = _sweep(runs["direct"][0], runner, runs["direct"][1], schedule)
    compiled_s, compiled_r = _sweep(
        runs["compiled"][0], runner, runs["compiled"][1], schedule
    )
    assert list(map(_signature, compiled_r)) == list(map(_signature, direct_r))
    ratio = direct_s / compiled_s
    print(f"compiled faulty sweep: {ratio:.2f}x direct")
    assert ratio >= 1.5, f"compiled faulty runs only {ratio:.2f}x direct"


def test_dispatch_rate_ordering():
    """Raw dispatch (golden runs, warm caches, best of five series):
    compiled > direct > instrumented, with compiled >= 3x direct, and every
    engine counts the same dynamic instructions."""
    module = _module()
    runner = _runner(512, 42)
    rates, counts = {}, set()
    for engine in ENGINES:
        injector = FaultInjector(
            module, category="all", step_limit=2_000_000, engine=engine
        )
        injector.warm()
        golden = injector.golden(runner)
        counts.add(golden.dynamic_instructions)
        gc.collect()
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(25):
                injector.golden(runner)
            best = min(best, time.perf_counter() - t0)
        rates[engine] = golden.dynamic_instructions * 25 / best
    print({e: f"{r / 1e6:.2f}M insn/s" for e, r in rates.items()})
    assert len(counts) == 1, f"engines disagree on dynamic instructions: {counts}"
    assert rates["compiled"] > rates["direct"] > rates["instrumented"], rates
    ratio = rates["compiled"] / rates["direct"]
    assert ratio >= 3.0, f"compiled dispatch only {ratio:.2f}x direct"


def test_checkpoint_restore_beats_full_replay():
    """Late faults (last 10% of sites): restoring the nearest checkpoint is
    >= 1.5x faster than full replay and bit-identical to it."""
    module = _module()
    runner = _runner(1024, 1234)
    plain = FaultInjector(module, category="all", step_limit=2_000_000)
    golden = plain.golden(runner)
    n = golden.dynamic_sites
    ck = FaultInjector(
        module, category="all", step_limit=2_000_000,
        checkpoint_interval=max(1, n // 64),
    )
    golden_ck = ck.golden(runner)
    schedule = _schedule(golden, 150, lo=int(n * 0.9) + 1)
    plain_s, plain_r = _sweep(plain, runner, golden, schedule)
    ck_s, ck_r = _sweep(ck, runner, golden_ck, schedule)
    assert list(map(_signature, ck_r)) == list(map(_signature, plain_r))
    assert ck.checkpoint_stats["restores"] > 0
    ratio = plain_s / ck_s
    print(f"checkpoint restore: {ratio:.2f}x full replay")
    assert ratio >= 1.5, f"checkpoint restore only {ratio:.2f}x full replay"


def test_shard_scaling():
    """Shards run one at a time, each timed alone; a cluster of N hosts
    would take the slowest shard plus the merge.  At 4 shards that wall
    delivers >= 2.5x the experiments/s of 1 shard, and every count's
    merged journal and totals equal the 1-shard run's.  Each count keeps
    its fastest of five sweeps."""
    workload = get_workload("vector_sum")
    module = workload.compile("avx")
    shard_input = {"n": 2048, "seed": 777}
    planned = MINI_CONFIG.experiments_per_campaign * MINI_CONFIG.max_campaigns

    def cell(store, shard):
        injector = FaultInjector(
            module, category="all", step_limit=2_000_000, engine="direct"
        )
        recorder = store.recorder(
            experiment="speed-shard",
            cell={"benchmark": workload.name, "input": shard_input},
            scale="bench", injector=injector, seed=SEED,
            config=asdict(MINI_CONFIG), planned=planned,
        )
        return run_campaigns(
            injector, lambda rng: workload.build_runner(dict(shard_input)),
            MINI_CONFIG, seed=SEED, recorder=recorder, shard=shard,
        )

    rates, journals, totals = {}, {}, {}
    with tempfile.TemporaryDirectory(prefix="speed_shards.") as tmp:
        for sweep in range(5):
            for count in (1, 2, 4, 8):
                result = run_cell_sharded(
                    Path(tmp) / f"x{count}.{sweep}", count, cell, sequential=True
                )
                wall = max(result.shard_seconds) + result.merge_seconds
                rates[count] = max(rates.get(count, 0.0), planned / wall)
                journals[count] = (result.merged_store / "journal.jsonl").read_bytes()
                totals[count] = dict(result.merge.outcomes)
    for count in rates:
        assert journals[count] == journals[1], f"x{count} journal diverged"
        assert totals[count] == totals[1], f"x{count} totals moved"
    scaling = rates[4] / rates[1]
    print({c: f"{r / rates[1]:.2f}x" for c, r in rates.items()})
    assert scaling >= 2.5, f"4 shards only {scaling:.2f}x 1 shard"


def _service_submissions(count: int) -> list[dict]:
    """Distinct micro-workload campaigns (unique seeds: no cache hits)."""
    names = ("vcopy", "dot_product", "vector_sum")
    return [
        {"workload": names[i % 3], "category": "pure-data", "scale": "smoke",
         "seed": 77_000 + i}
        for i in range(count)
    ]


def _cold_run(store: Path, sub: dict) -> float:
    """One campaign the pre-service way: a fresh CLI process and store.
    Returns its wall seconds."""
    t0 = time.monotonic()
    subprocess.run(
        [
            sys.executable, "-m", "repro.experiments", "submit", "--local",
            "--workload", sub["workload"], "--category", sub["category"],
            "--seed", str(sub["seed"]), "--scale", sub["scale"],
            "--store", str(store),
        ],
        check=True, capture_output=True,
        env={"PYTHONPATH": _SRC, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    return time.monotonic() - t0


def test_service_warm_daemon_beats_cold_cli():
    """8 clients x 4 distinct campaigns through one warm daemon complete
    >= 3x the campaigns/s of cold per-campaign CLI processes at the same
    concurrency; the daemon's p99 submission-to-first-result is at most a
    quarter of a cold campaign's mean wall; and warm engines are reused
    more often than built."""
    from repro.service import CampaignService, ServiceClient

    clients, per_client = 8, 4
    subs = _service_submissions(clients * per_client)
    with tempfile.TemporaryDirectory(prefix="speed_service.") as tmp:
        root = Path(tmp)
        cold = subs[:clients]
        t0 = time.monotonic()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            cold_walls = list(pool.map(
                lambda i: _cold_run(root / f"cold{i}", cold[i]), range(clients)
            ))
        cold_rate = len(cold) / (time.monotonic() - t0)
        cold_mean = sum(cold_walls) / len(cold_walls)

        service = CampaignService(
            root / "store", port=0, max_concurrent=clients,
            max_pending=256, durable=True,
        )
        thread = threading.Thread(
            target=service.serve_forever, kwargs={"quiet": True}, daemon=True
        )
        thread.start()
        assert service.ready.wait(timeout=30), "campaign service failed to start"
        try:
            # Untimed warm-up: one campaign per client slot builds the
            # engines the timed phase's concurrent campaigns reuse.
            warmup = ServiceClient(port=service.port, tenant="warmup", timeout=120)
            warmup.wait_ready()
            with ThreadPoolExecutor(max_workers=clients) as pool:
                list(pool.map(
                    lambda i: warmup.run(**{**subs[i], "seed": 76_000 + i}),
                    range(clients),
                ))

            def client_run(index: int) -> list[float]:
                client = ServiceClient(
                    port=service.port, tenant=f"client{index}", timeout=120
                )
                mine = subs[index * per_client:(index + 1) * per_client]
                return [client.run(**sub)["first_result_latency"] for sub in mine]

            t0 = time.monotonic()
            with ThreadPoolExecutor(max_workers=clients) as pool:
                latencies = [x for lat in pool.map(client_run, range(clients))
                             for x in lat]
            warm_rate = len(latencies) / (time.monotonic() - t0)
            engines = service.engines.stats()
        finally:
            service.request_stop()
            thread.join(timeout=30)
    assert not thread.is_alive(), "campaign service did not stop"

    p99 = sorted(latencies)[round(0.99 * (len(latencies) - 1))]
    ratio = warm_rate / cold_rate
    responsiveness = cold_mean / p99
    print(f"service: warm {ratio:.2f}x cold; p99 first result {p99 * 1e3:.0f}ms, "
          f"{responsiveness:.2f}x under the {cold_mean * 1e3:.0f}ms cold mean")
    assert len(latencies) == clients * per_client
    assert ratio >= 3.0, f"warm daemon only {ratio:.2f}x cold CLI processes"
    assert responsiveness >= 4.0, (
        f"p99 submission-to-first-result {p99 * 1e3:.0f}ms is over a quarter "
        f"of the {cold_mean * 1e3:.0f}ms cold campaign"
    )
    assert engines["reuses"] > engines["builds"], engines
