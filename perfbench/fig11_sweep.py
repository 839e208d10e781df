"""fig11_sweep: the paper's Fig.-11 sweep, serial and in memory.

Eight Table-I benchmarks x {avx, sse} x {pure-data, control, address} =
48 cells.  Each cell gets a fixed budget (min = max campaigns, so the
experiment count never depends on convergence) and one ``run_campaigns``
call.  The cells run as six *blocks*: every block holds each benchmark
once, each under a different (target, category).  Six blocks make a
*pass* over every cell.  Every cell starts from an empty golden cache, like
a fresh sweep, while compiled modules and decoded programs stay warm.

Every pass repeats the same work (same seeds), so a run times each cell
several times and keeps its fastest ``run_campaigns`` call, as ``timeit``
does: a cell only reads slow if the host was slow on every pass.  Repeated
passes must also produce identical outcomes, which checks determinism on
every seed.

Chebyshev is left out: a fault that turns a ``cos`` argument into infinity
makes the VM raise a host ``ValueError`` instead of classifying a crash, so
some seeds would fail.  Injectors use the library defaults (engine,
checkpoints), so a change of default shows here.
"""

from __future__ import annotations

import time

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

NAME = "fig11_sweep"

#: Per-cell budget: the smoke scale's 8 experiments as one campaign.
EXPERIMENTS_PER_CAMPAIGN = 8
CAMPAIGNS = 1
#: Step budget ``repro.experiments.fig11`` gives its campaigns.
STEP_LIMIT = 2_000_000
#: Passes per run, at least; more while time remains.
MIN_PASSES = 2
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: See the module docstring.
EXCLUDED = ("chebyshev",)


def setup() -> list[list]:
    """Compile every module, build and warm every cell's injector.

    Returns the six blocks of ``(workload, target, category, injector)``.
    """
    from repro.core.injector import FaultInjector
    from repro.experiments.common import CATEGORIES, TARGETS
    from repro.workloads.registry import benchmark_workloads

    kinds = [(target, category) for target in TARGETS for category in CATEGORIES]
    workloads = [w for w in benchmark_workloads() if w.name not in EXCLUDED]
    blocks = []
    for b in range(len(kinds)):
        block = []
        for j, w in enumerate(workloads):
            target, category = kinds[(b + j) % len(kinds)]
            injector = FaultInjector(
                w.compile(target), category=category, step_limit=STEP_LIMIT
            )
            injector.warm()
            block.append((w, target, category, injector))
        blocks.append(block)
    return blocks


def cell_seed(seed: int, w, target: str, category: str) -> int:
    return derive_seed(seed, NAME, w.name, target, category)


def run_cell(injector, w, seed: int):
    from repro.core import campaign

    config = campaign.CampaignConfig(
        experiments_per_campaign=EXPERIMENTS_PER_CAMPAIGN,
        max_campaigns=CAMPAIGNS,
        min_campaigns=CAMPAIGNS,
    )
    return campaign.run_campaigns(injector, w.runner_factory(), config, seed=seed)


def totals_row(w, target, category, totals) -> list:
    return [
        w.name, target, category,
        totals.sdc, totals.benign, totals.crash, totals.detected_sdc,
    ]


class Window:
    """What one timed stretch of passes did."""

    def __init__(self):
        self.seconds = 0.0
        self.passes = 0.0
        #: Per block: its rows on the first pass.
        self.block_rows: list[list] = []
        #: Per cell: its fastest ``run_campaigns`` call.
        self.cell_best: dict[tuple, float] = {}
        self.golden_hits = 0
        self.golden_lookups = 0
        self.checkpoints = {"restores": 0, "full_replays": 0, "convergence_exits": 0}

    @property
    def experiments(self) -> int:
        return sum(row[3] + row[4] + row[5] for rows in self.block_rows for row in rows)

    @property
    def cells(self) -> int:
        return sum(len(rows) for rows in self.block_rows)


def run_block(block, seed: int, tally: Tally, window: Window | None = None):
    """Every cell of one block once; returns (rows, cell seconds)."""
    per_cell = EXPERIMENTS_PER_CAMPAIGN * CAMPAIGNS
    rows, seconds = [], []
    for w, target, category, injector in block:
        injector.reset_perf_counters()
        tally.attempt(per_cell)
        t0 = time.perf_counter()
        try:
            summary = run_cell(injector, w, cell_seed(seed, w, target, category))
        except Exception as exc:  # an experiment raised: the cell fails
            tally.fail(per_cell, f"{w.name}/{target}/{category}: {exc!r}")
            continue
        seconds.append(time.perf_counter() - t0)
        tally.check(
            summary.totals.total == per_cell,
            f"{w.name}/{target}/{category}: {summary.totals.total} of "
            f"{per_cell} experiments classified",
        )
        rows.append(totals_row(w, target, category, summary.totals))
        if window is not None:
            cache = injector.golden_cache
            window.golden_hits += cache.hits
            window.golden_lookups += cache.hits + cache.misses
            for key in window.checkpoints:
                window.checkpoints[key] += injector.checkpoint_stats[key]
    return rows, seconds


def run_step(window: Window, blocks, p: int, b: int, seed: int, tally: Tally,
             refs) -> None:
    """Block ``b`` of pass ``p`` into ``window``.  Layer counters (golden
    cache, checkpoints) come from pass 0 only: work the seed fixes."""
    t0 = time.perf_counter()
    rows, cell_seconds = run_block(blocks[b], seed, tally,
                                   window if p == 0 else None)
    window.seconds += time.perf_counter() - t0
    if p == 0:
        window.block_rows.append(rows)
        check_reference(tally, refs, f"block{b}", digest(rows),
                        f"block {b} outcome digest")
    else:
        tally.check(rows == window.block_rows[b],
                    f"pass {p} block {b}: outcomes differ from pass 0")
    for row, s in zip(rows, cell_seconds):
        key = tuple(row[:3])
        window.cell_best[key] = min(window.cell_best.get(key, s), s)


def run_window(blocks, seed: int, seconds: float, tally: Tally, refs,
               tracer=None) -> list[Window]:
    """Blocks in pass order until ``MIN_PASSES`` passes are done and
    ``seconds`` have elapsed; every block after the first pass is a repeat.

    Returns ``[untraced]``, or with a tracer ``[untraced, traced]``: then
    every block runs twice, traced and untraced in alternating order, so
    both sides of the tracing overhead see the same host conditions.
    """
    import spans

    modes = (False, True) if tracer is not None else (False,)
    windows = [Window() for _ in modes]
    start = time.perf_counter()
    n = 0
    while n < MIN_PASSES * len(blocks) or time.perf_counter() - start < seconds:
        p, b = divmod(n, len(blocks))
        for traced in modes if n % 2 == 0 else modes[::-1]:
            if traced:
                spans.install(tracer)
                tracer.run_id = f"pass{p}.block{b}"
            elif tracer is not None:
                tracer.uninstall()
            run_step(windows[traced], blocks, p, b, seed, tally, refs)
        n += 1
    if tracer is not None:
        tracer.uninstall()
    for window in windows:
        window.passes = n / len(blocks)
    return windows


def fixed_work(span: dict) -> bool:
    """Spans of work the seed fixes: set-up and the first pass."""
    return span["run"] == "" or span["run"].startswith("pass0.")


def references(seed: int, work=None) -> dict:
    """Reference outcome digests for ``seed``: one per block."""
    tally = Tally()
    refs = {
        f"block{b}": digest(run_block(block, seed, tally)[0])
        for b, block in enumerate(setup())
    }
    if tally.failed:
        raise RuntimeError(f"reference blocks failed: {tally.problems}")
    return refs


def end_to_end(window: Window) -> dict:
    """One pass's experiments and cells over the sum of the cells' fastest
    ``run_campaigns`` calls; the median cell's fastest call."""
    best = sum(window.cell_best.values())
    return {
        "experiments_per_s": window.experiments / best,
        "campaigns_per_s": window.cells / best,
        "latency_s": median(window.cell_best.values()),
    }


def outcomes(window: Window) -> dict:
    """Outcome counts of one pass: fixed by the seed, so they repeat exactly."""
    rows = [row for block in window.block_rows for row in block]
    return {
        "core.outcomes.sdc": sum(r[3] for r in rows),
        "core.outcomes.benign": sum(r[4] for r in rows),
        "core.outcomes.crash": sum(r[5] for r in rows),
        "detectors.detected_sdc": sum(r[6] for r in rows),
    }


def describe(window: Window) -> str:
    return (
        f"{window.passes:.2f} passes of {window.cells} cells and "
        f"{window.experiments} experiments in {window.seconds:.2f} s; "
        f"fastest pass-equivalent {sum(window.cell_best.values()):.2f} s"
    )


def measure(ctx) -> tuple[dict, list[str]]:
    """Untraced run: set-up samples, then the timed sweep."""
    samples = fresh_process_setup(NAME, SETUP_SAMPLES)
    blocks = setup()
    [window] = run_window(blocks, ctx.seed, ctx.seconds, ctx.tally, ctx.refs)
    notes = [
        describe(window),
        setup_note(samples),
        latency_note("cell latency (fastest of passes)",
                     list(window.cell_best.values())),
    ]
    return {"setup_s": median(samples), **end_to_end(window)}, notes


def measure_traced(ctx) -> tuple[dict, list[str]]:
    """Traced set-up, then passes with each block run traced and untraced."""
    blocks = setup()
    untraced, traced = run_window(blocks, ctx.seed, ctx.seconds, ctx.tally,
                                  ctx.refs, tracer=ctx.tracer)
    layers = {
        "core.golden_cache_hit_ratio": traced.golden_hits / traced.golden_lookups,
        "core.checkpoint_restores": traced.checkpoints["restores"],
        "core.full_replays": traced.checkpoints["full_replays"],
        "core.convergence_exits": traced.checkpoints["convergence_exits"],
        **outcomes(traced),
        **overhead(
            end_to_end(traced)["experiments_per_s"],
            end_to_end(untraced)["experiments_per_s"],
        ),
    }
    return layers, ["traced: " + describe(traced), "untraced: " + describe(untraced)]
