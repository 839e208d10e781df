"""vecdiff: auto-vectorized vs hand-vectorized resiliency, side by side.

A scenario axis the paper never had: both forms of one generated kernel
(:mod:`repro.workloads.generated`) compute bit-identical golden outputs,
so any difference in their fault-outcome distributions is attributable to
the *vectorization strategy* — the predicated select chains, lane-mask
insertelement towers, and epilogue structure the auto-vectorizer emits
versus the frontend-style masked stride loop a human would write.

Cells are keyed like fig11's (``benchmark`` carries the form workload's
registry name, e.g. ``gen-map0`` / ``gen-map0-auto``), so store resume,
sharding, merge, and the campaign service treat vecdiff campaigns exactly
like any other.
"""

from __future__ import annotations

from dataclasses import asdict

from ..analysis.report import pct, render_table
from ..core.campaign import CampaignConfig, run_campaigns
from ..core.injector import DEFAULT_ENGINE, FaultInjector
from ..workloads.generated import GeneratedWorkload, form_pairs
from ..workloads.registry import Workload
from .common import (
    CATEGORIES,
    ExperimentReport,
    SCALES,
    TARGETS,
    cell_injector,
    cell_seed,
    open_sweep,
)

HEADERS = [
    "kernel", "form", "target", "category", "n", "SDC", "benign", "crash",
    "±moe",
]

#: The forms a vecdiff sweep compares (scalar is the common ancestor, not
#: a subject — the paper's question is vec strategy vs vec strategy).
COMPARED_FORMS = ("handvec", "auto")


def _cells(benchmarks: list[str] | None) -> list[Workload]:
    """The form workloads of every (default-seed) recipe, filtered by
    ``benchmarks`` — names match either the base kernel or a form."""
    out = []
    for base, hand, auto in form_pairs():
        for w in (hand, auto):
            if benchmarks is None or base in benchmarks or w.name in benchmarks:
                out.append(w)
    return out


def cell_recorder(
    store,
    workload: GeneratedWorkload,
    target: str,
    category: str,
    scale: str,
    config: CampaignConfig,
    injector: FaultInjector,
    abort_after: int | None = None,
):
    return store.recorder(
        experiment="vecdiff",
        cell={
            "benchmark": workload.name,
            "kernel": f"gen-{workload.shape}{workload.seed}",
            "form": workload.form,
            "target": target,
            "category": category,
        },
        scale=scale,
        injector=injector,
        seed=cell_seed("vecdiff", workload.name, target, category),
        config=asdict(config),
        planned=config.max_campaigns * config.experiments_per_campaign,
        extras={"static_sites": len(injector.sites)},
        abort_after=abort_after,
    )


def run_cell(
    workload: GeneratedWorkload,
    target: str,
    category: str,
    config: CampaignConfig,
    step_limit: int = 2_000_000,
    engine: str = DEFAULT_ENGINE,
    pool=None,
    injector: FaultInjector | None = None,
    recorder=None,
    shard=None,
) -> dict:
    """One vecdiff cell: campaigns for (form workload, ISA, site category)."""
    if injector is None:
        injector = cell_injector(workload, target, category, step_limit, engine)
    summary = run_campaigns(
        injector,
        workload.runner_factory(),
        config,
        seed=cell_seed("vecdiff", workload.name, target, category),
        pool=pool,
        recorder=recorder,
        shard=shard,
    )
    totals = summary.totals
    return {
        "benchmark": workload.name,
        "kernel": f"gen-{workload.shape}{workload.seed}",
        "form": workload.form,
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
    store=None,
    abort_after: int | None = None,
    shard=None,
) -> ExperimentReport:
    if shard is not None and store is None:
        raise ValueError("vecdiff.run(shard=...) requires a store")
    config = SCALES[scale]
    report = ExperimentReport(name="vecdiff", scale=scale, headers=list(HEADERS))
    cells = {
        (w.name, target, category): (w, target, category)
        for w in _cells(benchmarks)
        for target in TARGETS
        for category in CATEGORIES
    }

    def build(key):
        w, target, category = cells[key]
        injector = cell_injector(w, target, category, engine=engine)
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
                    w, target, category, config, engine=engine, shard=shard,
                    **cell_kwargs(key),
                )
            )
    report.notes.append(
        "Same recipe, same golden outputs: outcome deltas between the "
        "handvec and auto rows measure the vectorization strategy alone."
    )
    return report


def render(report: ExperimentReport) -> str:
    rows = [
        [
            r["kernel"],
            r["form"],
            r["target"].upper(),
            r["category"],
            r["experiments"],
            pct(r["sdc"]),
            pct(r["benign"]),
            pct(r["crash"]),
            pct(r["sdc_moe"]),
        ]
        for r in sorted(
            report.rows,
            key=lambda r: (r["kernel"], r["target"], r["category"], r["form"]),
        )
    ]
    out = render_table(
        report.headers, rows,
        title="vecdiff — auto-vec vs hand-vec fault-injection outcomes",
    )
    deltas = _sdc_deltas(report.rows)
    if deltas:
        worst = max(deltas, key=lambda d: abs(d[1]))
        out += (
            f"\n\nmean |SDC(auto) - SDC(handvec)| over {len(deltas)} "
            f"comparable cells: {pct(sum(abs(d) for _, d in deltas) / len(deltas))}"
            f"; largest gap: {worst[0]} ({pct(worst[1])})"
        )
    return out + "\n\n" + "\n".join(report.notes)


def _sdc_deltas(rows: list[dict]) -> list[tuple[str, float]]:
    """(cell-label, SDC(auto)-SDC(handvec)) for every fully-paired cell."""
    by_key: dict[tuple, dict[str, float]] = {}
    for r in rows:
        key = (r["kernel"], r["target"], r["category"])
        by_key.setdefault(key, {})[r["form"]] = r["sdc"]
    out = []
    for (kernel, target, category), forms in sorted(by_key.items()):
        if set(COMPARED_FORMS) <= set(forms):
            out.append(
                (
                    f"{kernel}/{target}/{category}",
                    forms["auto"] - forms["handvec"],
                )
            )
    return out
