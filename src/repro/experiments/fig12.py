"""Fig. 12: the foreach-invariant detector study on the micro-benchmarks.

For vector copy, dot product, and vector sum, under each fault-site
category (2000 experiments each at paper scale):

* **Avg. Overhead** — detector cost, measured here as the dynamic-
  instruction-count ratio of the kernel with vs without the detector block
  (paper: wall clock; ~8% on all three micros);
* **SDC** — the SDC rate with the detector-equipped binary;
* **SDC Detection Rate** — fraction of SDC outcomes flagged by
  ``checkInvariantsForeachFullBody``.

Expected shape (§IV-E): **zero** detected SDCs under pure-data (the loop
iterator can never be a pure-data site — Fig. 2 containment); the highest
SDC rates and detection rates (~50-57%) under control; address faults
mostly crash, leaving low SDC rates.
"""

from __future__ import annotations

from random import Random

import numpy as np

from ..analysis.report import pct, render_table
from ..core.campaign import run_batch
from ..core.injector import DEFAULT_ENGINE, FaultInjector
from ..detectors.runtime import detector_bindings_factory
from ..vm.interpreter import Interpreter
from ..workloads.registry import Workload, micro_workloads
from .common import (
    CATEGORIES,
    ExperimentReport,
    FIG12_EXPERIMENTS,
    cell_seed,
    open_sweep,
)

#: Paper Fig. 12 values for comparison (SDC rate, SDC detection rate).
PAPER_FIG12 = {
    ("vcopy", "pure-data"): (0.9995, 0.0),
    ("vcopy", "control"): (0.753, 0.571),
    ("vcopy", "address"): (0.3945, 0.0875),
    ("dot_product", "pure-data"): (0.978, 0.0),
    ("dot_product", "control"): (0.9525, 0.5765),
    ("dot_product", "address"): (0.4195, 0.08),
    ("vector_sum", "pure-data"): (1.0, 0.0),
    ("vector_sum", "control"): (0.965, 0.487),
    ("vector_sum", "address"): (0.4325, 0.055),
}
PAPER_OVERHEADS = {"vcopy": 0.086, "dot_product": 0.0809, "vector_sum": 0.0839}

HEADERS = [
    "micro",
    "category",
    "n",
    "overhead",
    "SDC",
    "SDC detect",
    "paper SDC",
    "paper detect",
]


def cell_recorder(
    store,
    workload: Workload,
    category: str,
    experiments: int,
    scale: str,
    injector: FaultInjector,
    extras: dict | None = None,
    abort_after: int | None = None,
):
    """One (micro, category) cell's store recorder."""
    return store.recorder(
        experiment="fig12",
        cell={"benchmark": workload.name, "category": category},
        scale=scale,
        injector=injector,
        seed=cell_seed("fig12", workload.name, "avx", category),
        config={"experiments": experiments},
        planned=experiments,
        extras=extras,
        abort_after=abort_after,
    )


def measure_overhead(workload: Workload, target: str = "avx", samples: int = 5) -> float:
    """Dynamic-instruction overhead of the detector block (mean over inputs)."""
    plain = workload.compile(target, foreach_detectors=False)
    detected = workload.compile(target, foreach_detectors=True)
    rng = Random(cell_seed("fig12-overhead", workload.name, target))
    ratios = []
    factory = detector_bindings_factory()
    for _ in range(samples):
        runner = workload.make_runner(workload.sample_input(rng))
        vm0 = Interpreter(plain)
        runner(vm0)
        vm1 = Interpreter(detected)
        bindings, _fired = factory()
        vm1.bind_all(bindings)
        runner(vm1)
        ratios.append(vm1.stats.total / vm0.stats.total - 1.0)
    return float(np.mean(ratios))


def cell_injector(
    workload: Workload,
    category: str,
    target: str = "avx",
    engine: str = DEFAULT_ENGINE,
    checkpoint_interval: int | None = None,
) -> FaultInjector:
    return FaultInjector(
        workload.compile(target, foreach_detectors=True), category=category,
        step_limit=500_000, engine=engine,
        checkpoint_interval=checkpoint_interval,
    )


def run_cell(
    workload: Workload,
    category: str,
    experiments: int,
    target: str = "avx",
    engine: str = DEFAULT_ENGINE,
    checkpoint_interval: int | None = None,
    pool=None,
    injector: FaultInjector | None = None,
    recorder=None,
    shard=None,
) -> dict:
    if injector is None:
        injector = cell_injector(
            workload, category, target, engine, checkpoint_interval
        )
    stats = run_batch(
        injector,
        workload.runner_factory(),
        experiments,
        Random(cell_seed("fig12", workload.name, target, category)),
        bindings_factory=detector_bindings_factory(),
        pool=pool,
        recorder=recorder,
        shard=shard,
    )
    paper = PAPER_FIG12.get((workload.name, category))
    return {
        "benchmark": workload.name,
        "category": category,
        "experiments": stats.total,
        "sdc": stats.rate("sdc"),
        "crash": stats.rate("crash"),
        "detection_rate": stats.sdc_detection_rate,
        "detected_sdc": stats.detected_sdc,
        "paper_sdc": paper[0] if paper else None,
        "paper_detection": paper[1] if paper else None,
    }


def run(
    scale: str = "quick",
    jobs: int = 1,
    engine: str = DEFAULT_ENGINE,
    checkpoint_interval: int | None = None,
    store=None,
    abort_after: int | None = None,
    shard=None,
) -> ExperimentReport:
    if shard is not None and store is None:
        raise ValueError("fig12.run(shard=...) requires a store")
    experiments = FIG12_EXPERIMENTS[scale]
    report = ExperimentReport(name="fig12", scale=scale, headers=list(HEADERS))
    cells = {
        (w.name, category): (w, category)
        for w in micro_workloads()
        for category in CATEGORIES
    }
    overheads = {w.name: measure_overhead(w) for w in micro_workloads()}

    def build(key):
        w, category = cells[key]
        injector = cell_injector(
            w, category, engine=engine, checkpoint_interval=checkpoint_interval
        )
        recorder = None
        if store is not None:
            # Manifested with its measured overhead, so the report can be
            # rebuilt from the store alone.
            recorder = cell_recorder(
                store, w, category, experiments, scale, injector,
                extras={
                    "overhead": overheads[w.name],
                    "paper_overhead": PAPER_OVERHEADS.get(w.name),
                },
                abort_after=abort_after,
            )
        return w, injector, recorder

    with open_sweep(
        cells, jobs, store, build, with_detectors=True
    ) as cell_kwargs:
        for key, (w, category) in cells.items():
            row = run_cell(
                w, category, experiments, engine=engine,
                checkpoint_interval=checkpoint_interval, shard=shard,
                **cell_kwargs(key),
            )
            row["overhead"] = overheads[w.name]
            row["paper_overhead"] = PAPER_OVERHEADS.get(w.name)
            report.rows.append(row)
    report.notes.append(
        "Overhead is a dynamic-instruction ratio (deterministic proxy for "
        "the paper's ~8% wall-clock figure). Expect 0% detection under "
        "pure-data and the highest detection under control."
    )
    return report


def render(report: ExperimentReport) -> str:
    rows = [
        [
            r["benchmark"],
            r["category"],
            r["experiments"],
            pct(r["overhead"]),
            pct(r["sdc"]),
            pct(r["detection_rate"]),
            pct(r["paper_sdc"]) if r["paper_sdc"] is not None else "-",
            pct(r["paper_detection"]) if r["paper_detection"] is not None else "-",
        ]
        for r in report.rows
    ]
    out = render_table(report.headers, rows, title="Fig. 12 — detector study on micro-benchmarks")
    return out + "\n\n" + "\n".join(report.notes)
