"""Ablation studies for the design choices DESIGN.md calls out.

Not a paper figure — these quantify *why* two of VULFI's design decisions
matter, using the same campaign machinery:

* **mask awareness** (§II-D): run the Fig.-12-style study with the
  execution-mask decoding disabled (every lane treated as active) and
  compare dynamic-site counts and outcome rates;
* **detector placement** (§III-A): measure the invariant detector's
  dynamic-instruction overhead when checked per iteration instead of only
  upon loop exit.
"""

from __future__ import annotations

from random import Random

import numpy as np

from ..analysis.report import pct, render_table
from ..core.campaign import CampaignStats
from ..core.injector import DEFAULT_ENGINE, FaultInjector
from ..detectors.foreach_invariants import insert_foreach_detectors
from ..detectors.runtime import DetectorRuntime
from ..frontend.codegen import generate_module
from ..frontend.parser import parse_source
from ..frontend.sema import analyze
from ..frontend.target import AVX
from ..passes.manager import optimize
from ..vm.interpreter import Interpreter
from ..workloads.registry import micro_workloads
from .common import CATEGORIES, ExperimentReport, FIG12_EXPERIMENTS, cell_seed


def _mask_ablation_rows(
    scale: str, engine: str = DEFAULT_ENGINE, store=None
) -> list[dict]:
    experiments = max(FIG12_EXPERIMENTS[scale] // 4, 20)
    rows = []
    for w in micro_workloads():
        module = w.compile("avx")
        for respect in (True, False):
            key = None
            if store is not None:
                from ..store import cell_key, module_fingerprint

                key = cell_key(
                    {
                        "experiment": "ablations",
                        "study": "mask-awareness",
                        "benchmark": w.name,
                        "respect_masks": respect,
                        "engine": engine,
                        "module": module_fingerprint(module),
                        "experiments": experiments,
                        "seed": cell_seed("ablation-mask", w.name, respect),
                    }
                )
                cached = store.lookup_cell(key)
                if cached is not None:
                    rows.extend(cached["rows"])
                    continue
            injector = FaultInjector(
                module, category="pure-data", respect_masks=respect, engine=engine
            )
            # Site population measured on one fixed reference input so the
            # aware/unaware columns are directly comparable.
            dynamic_sites = injector.golden(w.reference_runner(0)).dynamic_sites
            rng = Random(cell_seed("ablation-mask", w.name, respect))
            stats = CampaignStats()
            for _ in range(experiments):
                runner = w.make_runner(w.sample_input(rng))
                result = injector.experiment(runner, rng)
                stats.add(result)
            cell_rows = [
                {
                    "study": "mask-awareness",
                    "benchmark": w.name,
                    "variant": "mask-aware" if respect else "mask-unaware",
                    "experiments": stats.total,
                    "dynamic_sites": dynamic_sites,
                    "sdc": stats.rate("sdc"),
                    "benign": stats.rate("benign"),
                    "crash": stats.rate("crash"),
                }
            ]
            if store is not None:
                store.record_cell(
                    key,
                    "ablations",
                    scale,
                    {"benchmark": w.name, "study": "mask-awareness"},
                    cell_rows,
                )
            rows.extend(cell_rows)
    return rows


def _placement_ablation_rows(scale: str = "custom", store=None) -> list[dict]:
    rows = []
    for w in micro_workloads():
        plain = w.compile("avx")
        runner = w.reference_runner(0)
        base = None
        for every in (False, True):
            key = None
            if store is not None:
                from ..store import cell_key, module_fingerprint

                key = cell_key(
                    {
                        "experiment": "ablations",
                        "study": "detector-placement",
                        "benchmark": w.name,
                        "every_iteration": every,
                        "module": module_fingerprint(plain),
                    }
                )
                cached = store.lookup_cell(key)
                if cached is not None:
                    rows.extend(cached["rows"])
                    continue
            if base is None:
                vm0 = Interpreter(plain)
                runner(vm0)
                base = vm0.stats.total
            module = generate_module(analyze(parse_source(w.source)), AVX)
            insert_foreach_detectors(module, every_iteration=every)
            optimize(module)
            vm = Interpreter(module)
            vm.bind_all(DetectorRuntime().bindings())
            runner(vm)
            cell_rows = [
                {
                    "study": "detector-placement",
                    "benchmark": w.name,
                    "variant": "per-iteration" if every else "exit-only",
                    "experiments": 1,
                    "dynamic_sites": 0,
                    "overhead": vm.stats.total / base - 1.0,
                }
            ]
            if store is not None:
                store.record_cell(
                    key,
                    "ablations",
                    scale,
                    {"benchmark": w.name, "study": "detector-placement"},
                    cell_rows,
                )
            rows.extend(cell_rows)
    return rows


HEADERS = ["study", "micro", "variant", "metric"]


def run(scale: str = "quick", engine: str = DEFAULT_ENGINE, store=None) -> ExperimentReport:
    report = ExperimentReport(name="ablations", scale=scale, headers=list(HEADERS))
    report.rows.extend(_mask_ablation_rows(scale, engine=engine, store=store))
    report.rows.extend(_placement_ablation_rows(scale, store=store))
    report.notes.append(
        "mask-unaware injection counts dead remainder lanes as sites and "
        "dilutes SDC with benign hits; per-iteration invariant checking "
        "multiplies the detector's cost without new golden-run coverage."
    )
    return report


def render(report: ExperimentReport) -> str:
    rows = []
    for r in report.rows:
        if r["study"] == "mask-awareness":
            metric = (
                f"sites={r['dynamic_sites']}, sdc={pct(r['sdc'])}, "
                f"benign={pct(r['benign'])}, crash={pct(r['crash'])} "
                f"(n={r['experiments']})"
            )
        else:
            metric = f"overhead={pct(r['overhead'])}"
        rows.append([r["study"], r["benchmark"], r["variant"], metric])
    return (
        render_table(report.headers, rows, title="Ablations — mask awareness & detector placement")
        + "\n\n"
        + "\n".join(report.notes)
    )
