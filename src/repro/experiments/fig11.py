"""Fig. 11: SDC / Benign / Crash rates per benchmark x site category x ISA.

The paper's headline experiment: statistically converged fault-injection
campaigns for all nine benchmarks under pure-data, control, and address
site selection, on AVX and SSE (108,000 injections at full scale).

Expected shape (paper §IV-D): Stencil and Blackscholes among the highest
SDC rates; Swaptions and Conjugate Gradient the most resilient; the address
category produces the most crashes; for Chebyshev the address-category SDC
rate is the highest of its three categories.
"""

from __future__ import annotations

from dataclasses import asdict

from ..analysis.report import pct, render_table
from ..core.campaign import CampaignConfig, run_campaigns
from ..core.injector import DEFAULT_ENGINE, FaultInjector
from ..workloads.registry import Workload, benchmark_workloads
from .common import (
    CATEGORIES,
    ExperimentReport,
    SCALES,
    TARGETS,
    cell_injector,
    cell_seed,
    open_sweep,
)

HEADERS = ["benchmark", "target", "category", "n", "SDC", "benign", "crash", "±moe"]


def cell_recorder(
    store,
    workload: Workload,
    target: str,
    category: str,
    scale: str,
    config: CampaignConfig,
    injector: FaultInjector,
    abort_after: int | None = None,
):
    """One cell's store recorder (manifested eagerly — see ``store.recorder``)."""
    return store.recorder(
        experiment="fig11",
        cell={"benchmark": workload.name, "target": target, "category": category},
        scale=scale,
        injector=injector,
        seed=cell_seed("fig11", workload.name, target, category),
        config=asdict(config),
        planned=config.max_campaigns * config.experiments_per_campaign,
        extras={"static_sites": len(injector.sites)},
        abort_after=abort_after,
    )


def run_cell(
    workload: Workload,
    target: str,
    category: str,
    config: CampaignConfig,
    step_limit: int = 2_000_000,
    engine: str = DEFAULT_ENGINE,
    checkpoint_interval: int | None = None,
    pool=None,
    injector: FaultInjector | None = None,
    recorder=None,
    shard=None,
) -> dict:
    """One Fig.-11 cell: campaigns for (benchmark, ISA, site category).

    ``pool``/``injector``/``recorder`` are supplied by :func:`run` when a
    whole sweep shares one :class:`~repro.core.parallel.ExperimentPool`
    and/or a :class:`~repro.store.CampaignStore`; standalone callers leave
    them unset and get a serial, storeless run.  ``shard`` (a
    :class:`~repro.store.ShardSpec`) restricts execution to one schedule
    stripe; see :mod:`repro.store.shard`.
    """
    if injector is None:
        injector = cell_injector(
            workload, target, category, step_limit, engine, checkpoint_interval
        )
    summary = run_campaigns(
        injector,
        workload.runner_factory(),
        config,
        seed=cell_seed("fig11", workload.name, target, category),
        pool=pool,
        recorder=recorder,
        shard=shard,
    )
    totals = summary.totals
    return {
        "benchmark": workload.name,
        "target": target,
        "category": category,
        "experiments": totals.total,
        "campaigns": summary.campaigns_run,
        "sdc": totals.rate("sdc"),
        "benign": totals.rate("benign"),
        "crash": totals.rate("crash"),
        "sdc_moe": summary.sdc_rate.margin,
        "converged": summary.converged,
        "crash_kinds": dict(totals.crash_kinds),
        "static_sites": len(injector.sites),
    }


def run(
    scale: str = "quick",
    benchmarks: list[str] | None = None,
    jobs: int = 1,
    engine: str = DEFAULT_ENGINE,
    checkpoint_interval: int | None = None,
    store=None,
    abort_after: int | None = None,
    shard=None,
) -> ExperimentReport:
    if shard is not None and store is None:
        raise ValueError("fig11.run(shard=...) requires a store")
    config = SCALES[scale]
    report = ExperimentReport(name="fig11", scale=scale, headers=list(HEADERS))
    cells = {
        (w.name, target, category): (w, target, category)
        for w in benchmark_workloads()
        if benchmarks is None or w.name in benchmarks
        for target in TARGETS
        for category in CATEGORIES
    }

    def build(key):
        w, target, category = cells[key]
        injector = cell_injector(
            w, target, category, engine=engine,
            checkpoint_interval=checkpoint_interval,
        )
        recorder = None
        if store is not None:
            recorder = cell_recorder(
                store, w, target, category, scale, config, injector,
                abort_after=abort_after,
            )
        return w, injector, recorder

    with open_sweep(cells, jobs, store, build) as cell_kwargs:
        for key, (w, target, category) in cells.items():
            report.rows.append(
                run_cell(
                    w, target, category, config, engine=engine,
                    checkpoint_interval=checkpoint_interval, shard=shard,
                    **cell_kwargs(key),
                )
            )
    report.notes.append(
        "Paper shape: Stencil/Blackscholes highest SDC; Swaptions/CG most "
        "resilient; address faults crash the most; Chebyshev's address SDC "
        "is its highest category."
    )
    return report


def render(report: ExperimentReport) -> str:
    rows = [
        [
            r["benchmark"],
            r["target"].upper(),
            r["category"],
            r["experiments"],
            pct(r["sdc"]),
            pct(r["benign"]),
            pct(r["crash"]),
            pct(r["sdc_moe"]),
        ]
        for r in report.rows
    ]
    out = render_table(
        report.headers, rows, title="Fig. 11 — fault-injection outcomes per benchmark"
    )
    return out + "\n\n" + "\n".join(report.notes)
