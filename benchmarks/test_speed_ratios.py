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
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from pathlib import Path
from random import Random

import pytest

import repro.core.injector as injector_mod
from repro.core import FaultInjector, run_campaigns
from repro.core.cluster import run_cell_sharded
from repro.vm import COMPILE_EVENTS
from repro.vm.decode import decoded_program
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


@contextmanager
def _decoded_tier(injector):
    """Run the direct engine's plan on its decoded tier: the planned
    closures its chains fall back to.  Clears the ``chain`` slots of the
    injector's planned program, restores them on exit, and checks that no
    chain compiled meanwhile, so a floor never times chains against
    chains."""
    module = injector.module
    program = decoded_program(module, injector._plan)
    blocks = [
        block
        for fn in module.defined_functions()
        for block in program.function(fn).blocks.values()
    ]
    saved = [block.chain for block in blocks]
    assert any(chain is not None for chain in saved), "no chains to clear"
    chains = COMPILE_EVENTS["chains"]
    for block in blocks:
        block.chain = None
    try:
        yield
    finally:
        for block, chain in zip(blocks, saved):
            block.chain = chain
    assert COMPILE_EVENTS["chains"] == chains, "a chain compiled on the decoded tier"


def test_chain_faulty_sweep_beats_decoded_tier():
    """On full replays (checkpoints off), the direct engine's compiled
    chains run faulty runs >= 1.5x faster than the same plan on its
    decoded tier, experiment for experiment identical."""
    module = _module()
    runner = _runner(768, 4321)
    injector = FaultInjector(module, category="all", step_limit=2_000_000)
    golden = injector.golden(runner)
    schedule = _schedule(golden, 120)
    # Each tier's first pass is untimed: it compiles every chain (or
    # decodes every block) the schedule reaches.
    _sweep(injector, runner, golden, schedule)
    chains_s, chains_r = _sweep(injector, runner, golden, schedule)
    with _decoded_tier(injector):
        _sweep(injector, runner, golden, schedule)
        decoded_s, decoded_r = _sweep(injector, runner, golden, schedule)
    assert list(map(_signature, chains_r)) == list(map(_signature, decoded_r))
    ratio = decoded_s / chains_s
    print(f"chain faulty sweep: {ratio:.2f}x the decoded tier")
    assert ratio >= 1.5, f"chain faulty runs only {ratio:.2f}x the decoded tier"


def test_dispatch_rate_ordering():
    """Raw dispatch (golden runs, warm caches, best of five series):
    direct chains > direct decoded tier > instrumented, with the chains
    >= 3x the decoded tier, and every tier counts the same dynamic
    instructions."""
    module = _module()
    runner = _runner(512, 42)
    rates, counts = {}, set()
    tiers = (
        ("direct", "direct", nullcontext),
        ("decoded", "direct", _decoded_tier),
        ("instrumented", "instrumented", nullcontext),
    )
    for tier, engine, context in tiers:
        injector = FaultInjector(
            module, category="all", step_limit=2_000_000, engine=engine
        )
        with context(injector):
            golden = injector.golden(runner)
            counts.add(golden.dynamic_instructions)
            gc.collect()
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(25):
                    injector.golden(runner)
                best = min(best, time.perf_counter() - t0)
        rates[tier] = golden.dynamic_instructions * 25 / best
    print({t: f"{r / 1e6:.2f}M insn/s" for t, r in rates.items()})
    assert len(counts) == 1, f"tiers disagree on dynamic instructions: {counts}"
    assert rates["direct"] > rates["decoded"] > rates["instrumented"], rates
    ratio = rates["direct"] / rates["decoded"]
    assert ratio >= 3.0, f"chain dispatch only {ratio:.2f}x the decoded tier"


def test_checkpoint_restore_beats_full_replay(monkeypatch):
    """Late faults (last 10% of sites): restoring the nearest checkpoint is
    >= 1.5x faster than full replay and bit-identical to it.  The golden
    is long enough for the injector's own policy to tape it, and long
    enough (about 34,000 instructions) that replay work, not per-run fixed
    cost, sets the ratio; only the checkpoint count is patched, to 64 per
    run.  Each side keeps its fastest of three sweeps."""
    monkeypatch.setattr(injector_mod, "CHECKPOINTS_PER_RUN", 64)
    module = _module()
    runner = _runner(4096, 1234)
    plain = FaultInjector(module, category="all", step_limit=2_000_000)
    golden = plain.golden(runner)
    n = golden.dynamic_sites
    ck = FaultInjector(module, category="all", step_limit=2_000_000)
    ck.golden(runner, record_tape=True)  # sizes the next tape
    golden_ck = ck.golden(runner, record_tape=True)
    assert golden_ck.checkpoints is not None
    schedule = _schedule(golden, 150, lo=int(n * 0.9) + 1)
    plain_s, plain_r = _sweep(plain, runner, golden, schedule)
    ck_s, ck_r = _sweep(ck, runner, golden_ck, schedule)
    assert list(map(_signature, ck_r)) == list(map(_signature, plain_r))
    for _ in range(2):
        plain_s = min(plain_s, _sweep(plain, runner, golden, schedule)[0])
        ck_s = min(ck_s, _sweep(ck, runner, golden_ck, schedule)[0])
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


def test_noop_resume_beats_recording():
    """Resuming a complete 200-experiment fig12 micro cell is >= 5x faster
    than recording it: each stored position is redrawn from its journal
    record, with neither a golden nor a faulty run.  Each side runs on a
    fresh warmed injector, as a new process would, and keeps its fastest
    of three; every resume replays all 200 records and leaves the journal
    as it was."""
    from repro.experiments import fig12
    from repro.store import CampaignStore

    workload = get_workload("vector_sum")
    experiments = 200

    def timed_cell(store):
        injector = fig12.cell_injector(workload, "control")
        injector.warm()
        recorder = fig12.cell_recorder(
            store, workload, "control", experiments, "bench", injector
        )
        gc.collect()
        t0 = time.perf_counter()
        fig12.run_cell(
            workload, "control", experiments, injector=injector,
            recorder=recorder,
        )
        return time.perf_counter() - t0, recorder

    record_s = resume_s = float("inf")
    with tempfile.TemporaryDirectory(prefix="speed_resume.") as tmp:
        for sweep in range(3):
            root = Path(tmp) / f"cell{sweep}"
            with CampaignStore(root) as store:
                seconds, recorder = timed_cell(store)
            record_s = min(record_s, seconds)
            assert recorder.misses == experiments
            journal = (root / "journal.jsonl").read_bytes()
            with CampaignStore(root) as store:
                seconds, recorder = timed_cell(store)
            resume_s = min(resume_s, seconds)
            assert (recorder.hits, recorder.misses) == (experiments, 0)
            assert (root / "journal.jsonl").read_bytes() == journal
    ratio = record_s / resume_s
    print(f"no-op resume: {ratio:.2f}x recording "
          f"({record_s * 1e3:.0f}ms vs {resume_s * 1e3:.0f}ms)")
    assert ratio >= 5.0, f"no-op resume only {ratio:.2f}x recording"


def _foreach_kernel(loops: int) -> str:
    """A MiniISPC kernel of ``loops`` sequential ``foreach`` loops."""
    body = "\n".join(
        f"    foreach (i = 0 ... n) {{ b[i] = b[i] + a[i] * {j + 1}.0; }}"
        for j in range(loops)
    )
    return (
        "export void k(uniform float a[], uniform float b[], uniform int n) {\n"
        f"{body}\n}}\n"
    )


def test_setup_scales_linearly():
    """Set-up is linear in the program: compiling a kernel of 48
    ``foreach`` loops and building a control-site injector for it costs
    <= 3x the same for 24 loops (twice the sites).  Frontend, passes,
    verifier and site classification all count.  The two sizes alternate
    over five rounds and each keeps its fastest, so a slow stretch of the
    host cannot inflate one side alone."""
    from repro.frontend import compile_source

    def setup(source: str) -> tuple[float, int]:
        gc.collect()
        t0 = time.perf_counter()
        injector = FaultInjector(compile_source(source, "avx"), category="control")
        return time.perf_counter() - t0, len(injector.sites)

    setup(_foreach_kernel(4))  # warm-up: first-use imports and caches
    sizes = {24: _foreach_kernel(24), 48: _foreach_kernel(48)}
    best = {loops: float("inf") for loops in sizes}
    sites = {}
    for _ in range(5):
        for loops, source in sizes.items():
            seconds, sites[loops] = setup(source)
            best[loops] = min(best[loops], seconds)
    assert sites[48] == 2 * sites[24]
    ratio = best[48] / best[24]
    print(f"set-up: 48 loops {best[48] * 1e3:.0f}ms = {ratio:.2f}x 24 loops "
          f"({best[24] * 1e3:.0f}ms)")
    assert ratio <= 3.0, f"set-up at 48 loops is {ratio:.2f}x that at 24"


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
    Returns its wall seconds.  Bytecode goes to a cache beside the store,
    inside the test's temporary directory: later cold runs reuse it, and
    nothing is written under ``src/``."""
    t0 = time.monotonic()
    subprocess.run(
        [
            sys.executable, "-m", "repro.experiments", "submit", "--local",
            "--workload", sub["workload"], "--category", sub["category"],
            "--seed", str(sub["seed"]), "--scale", sub["scale"],
            "--store", str(store),
        ],
        check=True, capture_output=True,
        env={
            "PYTHONPATH": _SRC,
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            "PYTHONPYCACHEPREFIX": str(store.parent / "pycache"),
        },
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
