"""Run one benchmark workload and print its metrics.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload fig11_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics instead, from a run that wraps
each layer's entry points (see ``spans.py``), and reports the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run that fails
before it can compute its metrics (say, every round raised) prints that
object with ``correct`` false, its error accounting and no metrics, and
exits with status 1.  The program is run from ``src/`` of the same
checkout; without it the benchmark exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import time
import traceback

from harness import ROOT, SRC, Context, References, metric, peak_rss_mb
import spans

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics read straight off the spans: self time, span count,
#: or the sum of the spans' values.
SELF_TIME = {
    "frontend.parse_s": "frontend.parse",
    "frontend.sema_s": "frontend.sema",
    "frontend.codegen_s": "frontend.codegen",
    "ir.verify_s": "ir.verify",
    "passes.optimize_s": "passes.optimize",
    "core.injector_build_s": "core.injector_build",
    "vm.warm_s": "vm.warm",
    "core.golden_s": "core.golden",
    "core.faulty_s": "core.faulty",
    "core.campaign_self_s": "core.campaign",
    "store.record_s": "store.record",
    "store.flush_s": "store.flush",
    "store.merge_s": "store.merge",
    "store.verify_s": "store.verify",
    "report.rebuild_s": "report.rebuild",
    "service.submit_s": "service.submit",
    "service.queue_wait_s": "service.queue_wait",
    "service.exec_s": "service.exec",
}
COUNT = {
    "frontend.modules": "frontend.compile",
    "core.golden_runs": "core.golden",
    "core.faulty_runs": "core.faulty",
    "store.records": "store.record",
}
VALUE = {"core.static_sites": "core.injector_build"}
#: Instructions per second of self time, from the spans' instruction counts.
RATE = {"vm.golden_insn_per_s": "core.golden", "vm.faulty_insn_per_s": "core.faulty"}


def import_program() -> float:
    """Import the program's packages; returns the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    for name in (
        "repro.experiments.common",
        "repro.core.campaign",
        "repro.core.cluster",
        "repro.store",
        "repro.analysis.report",
        "repro.service",
    ):
        importlib.import_module(name)
    return time.perf_counter() - start


def layer_metrics(totals: dict, extras: dict, span_count: int) -> dict:
    """Every per-layer metric of ``BENCHMARK.json``; layers a workload
    never reaches read 0."""
    values = {m["name"]: 0 for m in SPEC["per_layer"]}
    for name, layer in SELF_TIME.items():
        values[name] = totals.get(layer, {}).get("self_s", 0.0)
    for name, layer in COUNT.items():
        values[name] = totals.get(layer, {}).get("count", 0)
    for name, layer in VALUE.items():
        values[name] = totals.get(layer, {}).get("value", 0)
    for name, layer in RATE.items():
        entry = totals.get(layer)
        values[name] = entry["value"] / entry["self_s"] if entry and entry["self_s"] else 0.0
    values["trace.spans"] = span_count
    values.update(extras)
    return values


def render_layers(totals: dict) -> list[str]:
    lines = [f"{'layer':<24}{'count':>9}{'self s':>12}"]
    for name in sorted(totals):
        entry = totals[name]
        lines.append(f"{name:<24}{entry['count']:>9}{entry['self_s']:>12.4f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A run launched in the background starts with SIGINT ignored, and the
    # daemon it starts would inherit that and ignore the SIGINT that stops
    # it.  A handled SIGINT resets to the default in every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to run under {SRC}", file=sys.stderr)
        return 2
    import_s = import_program()
    workload = importlib.import_module(args.workload)
    tracer = spans.install(spans.Tracer()) if args.trace else None
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with this pid
    work.mkdir(parents=True)
    refs = References().for_seed(args.workload, args.seed)
    ctx = Context(args.seed, args.seconds, work, refs, tracer)
    tally = ctx.tally
    try:
        if args.trace:
            extras, notes = workload.measure_traced(ctx)
        else:
            values, notes = workload.measure(ctx)
    except Exception as exc:  # e.g. every round failed: no metric to compute
        traceback.print_exc()
        tally.attempt()
        tally.fail(1, f"measurement aborted: {exc!r}")
        print(f"{args.workload} seed={args.seed} trace={args.trace}: no metrics")
        print_result(tally, {})
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    if args.trace:
        trace_file = (
            ROOT / ".perfbench_work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        )
        tracer.dump(trace_file)
        kept = [s for s in tracer.spans if workload.fixed_work(s)]
        totals = spans.layer_totals(kept)
        values = layer_metrics(
            totals, {"process.import_s": import_s, **extras}, len(kept)
        )
        notes = [*notes, f"spans written to {trace_file.relative_to(ROOT)}",
                 *render_layers(totals)]
        wanted = SPEC["per_layer"]
    else:
        values["peak_rss_mb"] = peak_rss_mb()
        wanted = SPEC["end_to_end"]

    metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in wanted}
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:<34}{m['value']:>16.6g} {m['unit']}")
    print_result(tally, metrics)
    return 0


def print_result(tally, metrics: dict) -> None:
    """The error accounting, then the JSON result as the last line."""
    print(f"  error_rate {tally.error_rate:.6g} ({tally.failed} failed of "
          f"{tally.attempted} attempted)")
    for problem in tally.problems[:20]:
        print(f"  FAILED: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
