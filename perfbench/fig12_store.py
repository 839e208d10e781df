"""fig12_store: the Fig.-12 detector study through a sharded store.

Each *round* records the study — 3 micro-benchmarks x 3 site categories,
foreach-detector modules, ``run_batch`` per cell — into a fresh store with
two forked shards (``run_sharded``, which merges at the end), then reads it
back: ``verify_store`` on the merged store, a report rebuilt from the
merged journal, and a no-op resume that re-drives every cell against the
merged store and must execute nothing.  Rounds repeat the same study
(same seeds) until the run's time is up, so every round's merged journal
must be byte-identical to the first's.

Record time is the sharded run without its merge; read-back time is the
merge plus verify, report and resume.  Rates and times keep the fastest
round, so a round only reads slow if the host was slow for all of them.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from pathlib import Path
from random import Random

from harness import (
    Tally,
    check_reference,
    derive_seed,
    digest,
    fresh_process_setup,
    latency_note,
    median,
    overhead,
    setup_note,
)

NAME = "fig12_store"

#: Experiments per (micro, category) cell and round.
EXPERIMENTS = 200
SHARDS = 2
#: Step budget ``repro.experiments.fig12`` gives its campaigns.
STEP_LIMIT = 500_000
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def cells():
    from repro.experiments.common import CATEGORIES
    from repro.workloads.registry import micro_workloads

    return [(w, category) for w in micro_workloads() for category in CATEGORIES]


def setup():
    """Compile the detector-equipped micros; build and warm each cell's injector."""
    from repro.core.injector import FaultInjector

    built = []
    for w, category in cells():
        injector = FaultInjector(
            w.compile("avx", foreach_detectors=True),
            category=category,
            step_limit=STEP_LIMIT,
        )
        injector.warm()
        built.append((w, category, injector))
    return built


def cell_seed(seed: int, w, category: str) -> int:
    return derive_seed(seed, NAME, w.name, category)


def record_cells(store, built, seed: int, shard=None) -> list:
    """Run every cell into ``store``; returns per-cell outcome rows."""
    from repro.core import campaign
    from repro.detectors.runtime import detector_bindings_factory

    rows = []
    for w, category, injector in built:
        s = cell_seed(seed, w, category)
        recorder = store.recorder(
            experiment="fig12",
            cell={"benchmark": w.name, "category": category},
            scale="bench",
            injector=injector,
            seed=s,
            config={"experiments": EXPERIMENTS},
            planned=EXPERIMENTS,
        )
        stats = campaign.run_batch(
            injector,
            w.runner_factory(),
            EXPERIMENTS,
            Random(s),
            bindings_factory=detector_bindings_factory(),
            recorder=recorder,
            shard=shard,
        )
        rows.append(
            [w.name, category, stats.sdc, stats.benign, stats.crash,
             stats.detected_sdc, recorder.misses]
        )
    return rows


class Window:
    """What a run's completed rounds did; the lists hold one entry per
    round, in round order."""

    def __init__(self):
        self.rounds = 0
        self.cells = 0
        self.experiments = 0
        self.record_s: list[float] = []
        self.readback_s: list[float] = []
        self.round_rows: list[list] = []
        self.shard_seconds: list[list[float]] = []
        #: ``core.golden`` spans per shard (traced rounds only).
        self.shard_golden_runs: list[list[int]] = []
        self.journal_bytes: list[int] = []
        self.resume_noop_s: list[float] = []
        self.golden_hit_ratio: list[float] = []
        self.journal_sha256: str | None = None


def journal_lines(path: Path) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in f)


def run_round(built, seed: int, r: int, parent: Path, tally: Tally, refs,
              window: Window, tracer=None, span_dir: Path | None = None) -> None:
    from repro.analysis import report as report_mod
    from repro.core import cluster
    from repro.store import CampaignStore
    from repro.store import verify as verify_mod

    def worker(store, shard):
        mark = len(tracer.spans) if tracer is not None else 0
        rows = record_cells(store, built, seed, shard=shard)
        if tracer is not None:
            tracer.dump(span_dir / f"round{r}-shard{shard.index}.jsonl", since=mark)
        caches = [injector.golden_cache for _, _, injector in built]
        return {
            "rows": rows,
            "golden_hits": sum(c.hits for c in caches),
            "golden_lookups": sum(c.hits + c.misses for c in caches),
        }

    if tracer is not None:
        tracer.run_id = f"round{r}"
    planned = EXPERIMENTS * len(built)
    tally.attempt(planned)
    # Every round starts from empty golden caches: the shards inherit them
    # at fork, and the resume (which redraws each schedule) runs on them.
    for _, _, injector in built:
        injector.reset_perf_counters()
    t0 = time.perf_counter()
    try:
        result = cluster.run_sharded(parent, SHARDS, worker)
    except Exception as exc:  # a shard raised: the round's experiments fail
        tally.fail(planned, f"round {r}: {exc!r}")
        return
    elapsed = time.perf_counter() - t0
    record_s = elapsed - result.merge_seconds
    merged = result.merged_store
    journal = merged / "journal.jsonl"

    lines_before = journal_lines(journal)
    t1 = time.perf_counter()
    verified = verify_mod.verify_store(merged)
    store = CampaignStore(merged)
    try:
        rebuilt = report_mod.rebuild_report(store, "fig12")
        r0 = time.perf_counter()
        resumed = record_cells(store, built, seed)
        resume_noop_s = time.perf_counter() - r0
    finally:
        store.close()
    readback_s = result.merge_seconds + time.perf_counter() - t1

    window.rounds += 1
    window.cells += len(built)
    window.experiments += result.merge.records
    window.record_s.append(record_s)
    window.readback_s.append(readback_s)
    window.resume_noop_s.append(resume_noop_s)
    window.shard_seconds.append(result.shard_seconds)
    window.golden_hit_ratio.append(
        sum(o.counters["golden_hits"] for o in result.shards)
        / sum(o.counters["golden_lookups"] for o in result.shards)
    )
    window.journal_bytes.append(sum(
        (parent / f"shard-{i}" / "journal.jsonl").stat().st_size
        for i in range(SHARDS)
    ))

    rows = [row[:6] for row in resumed]
    window.round_rows.append(rows)
    tally.check(verified.ok, f"round {r}: verify failed: {verified.render()}")
    tally.check(
        result.merge.records == planned,
        f"round {r}: merged {result.merge.records} of {planned} records",
    )
    tally.check(
        sum(row[6] for row in resumed) == 0,
        f"round {r}: no-op resume executed "
        f"{sum(row[6] for row in resumed)} experiments",
    )
    tally.check(
        journal_lines(journal) == lines_before,
        f"round {r}: resume changed the merged journal's line count",
    )
    shard_rows = _sum_shard_rows([o.counters["rows"] for o in result.shards])
    tally.check(
        shard_rows == rows,
        f"round {r}: shard outcome totals differ from the merged store's",
    )
    report_rows = [
        [row["benchmark"], row["category"], row["experiments"], row["detected_sdc"]]
        for row in rebuilt.rows
    ]
    tally.check(
        report_rows == [[n, c, sdc + benign + crash, detected]
                        for n, c, sdc, benign, crash, detected in rows],
        f"round {r}: rebuilt report disagrees with the merged journal",
    )
    sha = sha256_file(journal)
    if window.journal_sha256 is None:
        window.journal_sha256 = sha
        check_reference(tally, refs, "journal_sha256", sha,
                        "merged-journal sha256")
        check_reference(tally, refs, "outcomes", digest(rows), "outcome digest")
    else:
        tally.check(sha == window.journal_sha256,
                    f"round {r}: merged journal differs from round 0's")
    if tracer is not None:
        import spans

        golden_runs = []
        for i in range(SHARDS):
            child = spans.load(span_dir / f"round{r}-shard{i}.jsonl")
            tracer.spans.extend(child)
            golden_runs.append(sum(1 for s in child if s["name"] == "core.golden"))
        window.shard_golden_runs.append(golden_runs)


def _sum_shard_rows(per_shard: list[list]) -> list:
    """Cell-wise sum of the shards' outcome counts (stripes partition cells)."""
    total = [list(row[:2]) + [0] * 4 for row in per_shard[0]]
    for rows in per_shard:
        for acc, row in zip(total, rows):
            for i in range(2, 6):
                acc[i] += row[i]
    return total


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_window(built, seed: int, seconds: float, work: Path, tally: Tally,
               refs, tracer=None) -> list[Window]:
    """Whole rounds until ``seconds`` have elapsed (at least one round).

    Returns ``[untraced]``, or with a tracer ``[untraced, traced]``: then
    rounds alternate, traced first, so both sides of the tracing overhead
    see the same host conditions (at least one round each).
    """
    import spans

    modes = (True, False) if tracer is not None else (False,)
    windows = [Window() for _ in modes]
    start = time.perf_counter()
    r = 0
    while True:
        traced = modes[r % len(modes)]
        if traced:
            spans.install(tracer)
            tracer.run_id = f"round{r}"
        elif tracer is not None:
            tracer.uninstall()
        parent = work / f"round{r}"
        run_round(built, seed, r, parent, tally, refs, windows[traced],
                  tracer if traced else None, span_dir=work / "spans")
        shutil.rmtree(parent, ignore_errors=True)
        r += 1
        if r >= len(modes) and time.perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    return windows


def fixed_work(span: dict) -> bool:
    """Spans of work the seed fixes: set-up and the first (traced) round."""
    return span["run"] in ("", "round0")


def references(seed: int, work: Path) -> dict:
    """Reference digests for ``seed``: merged-journal sha256 and outcomes."""
    window = Window()
    tally = Tally()
    run_round(setup(), seed, 0, work / "round0", tally, None, window)
    if tally.failed:
        raise RuntimeError(f"reference round failed: {tally.problems}")
    return {
        "journal_sha256": window.journal_sha256,
        "outcomes": digest(window.round_rows[0]),
    }


def end_to_end(window: Window) -> dict:
    """Best of the identical rounds (as ``timeit`` does): experiments per
    second of recording, cells per second of a whole round (fastest record
    plus fastest read-back), and the read-back time a finished study waits."""
    cells = len(window.round_rows[0])
    return {
        "experiments_per_s": EXPERIMENTS * cells / min(window.record_s),
        "campaigns_per_s": cells / (min(window.record_s) + min(window.readback_s)),
        "latency_s": min(window.readback_s),
    }


def first_round_outcomes(window: Window) -> dict:
    rows = window.round_rows[0] if window.round_rows else []
    return {
        "core.outcomes.sdc": sum(r[2] for r in rows),
        "core.outcomes.benign": sum(r[3] for r in rows),
        "core.outcomes.crash": sum(r[4] for r in rows),
        "detectors.detected_sdc": sum(r[5] for r in rows),
    }


def describe(window: Window) -> str:
    return (
        f"{window.rounds} round(s), {window.cells} cells, {window.experiments} "
        f"experiments; record {sum(window.record_s):.2f} s, read-back "
        f"{sum(window.readback_s):.2f} s"
    )


def measure(ctx) -> tuple[dict, list[str]]:
    """Untraced run: set-up samples, then timed record + read-back rounds."""
    samples = fresh_process_setup(NAME, SETUP_SAMPLES)
    built = setup()
    [window] = run_window(built, ctx.seed, ctx.seconds, ctx.work, ctx.tally,
                          ctx.refs)
    notes = [
        describe(window),
        setup_note(samples),
        latency_note("readback_s (merge + verify + report + no-op resume)",
                     window.readback_s),
        latency_note("record time", window.record_s),
    ]
    return {"setup_s": median(samples), **end_to_end(window)}, notes


def measure_traced(ctx) -> tuple[dict, list[str]]:
    """Traced set-up, then rounds alternating traced and untraced.  Layer
    figures come from the first traced round, which the seed fixes."""
    built = setup()
    untraced, traced = run_window(built, ctx.seed, ctx.seconds, ctx.work,
                                  ctx.tally, ctx.refs, tracer=ctx.tracer)
    shard_s = traced.shard_seconds[0]
    golden_runs = traced.shard_golden_runs[0]
    layers = {
        "core.golden_cache_hit_ratio": traced.golden_hit_ratio[0],
        "store.journal_bytes": traced.journal_bytes[0],
        "store.resume_noop_s": traced.resume_noop_s[0],
        "cluster.shard_max_s": max(shard_s),
        "cluster.shard_skew": max(shard_s) / (sum(shard_s) / len(shard_s)),
        "cluster.golden_runs_per_shard": sum(golden_runs) / len(golden_runs),
        **first_round_outcomes(traced),
        **overhead(
            end_to_end(traced)["experiments_per_s"],
            end_to_end(untraced)["experiments_per_s"],
        ),
    }
    return layers, ["traced: " + describe(traced), "untraced: " + describe(untraced)]
