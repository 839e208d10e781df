"""Tests for the benchmark's own rules.

Run from the checkout root with ``python3 -m pytest perfbench/tests``.
"""

import json
import sys

import pytest

import fig11_sweep
import fig12_store
import run
import service_mix
from harness import (
    REFERENCES,
    Tally,
    check_reference,
    digest,
    latency_note,
    tail_percentile,
)
from record_references import SEEDS, WORKLOADS
from spans import layer_totals


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # even the median would have only 9 samples above it
        (20, "p50"),
        (39, "p50"),
        (40, "p75"),
        (99, "p75"),
        (100, "p90"),
        (199, "p90"),  # p95 would leave only 9 samples beyond it
        (200, "p95"),
        (999, "p95"),
        (1000, "p99"),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(1, n + 1)]
    tail = tail_percentile(samples)
    if expected is None:
        assert tail is None
        return
    label, value = tail
    assert label == expected
    assert sum(1 for s in samples if s > value) >= 10


def test_tail_percentile_ignores_sample_order():
    samples = [5.0, 1.0, 3.0] * 40
    assert tail_percentile(samples) == tail_percentile(sorted(samples))


def test_latency_note_states_percentile_and_sample_count():
    note = latency_note("run latency", [0.1] * 150)
    assert "p90" in note and "(n=150)" in note


def test_error_rate_counts_failed_operations_over_attempted():
    tally = Tally()
    tally.attempt(8)  # one cell of eight experiments...
    tally.fail(8, "the cell raised")  # ...whose run_campaigns call raised
    assert tally.check(True, "a passing output check")
    assert not tally.check(False, "a failing output check")
    assert (tally.attempted, tally.failed) == (10, 9)
    assert tally.error_rate == pytest.approx(0.9)
    assert tally.problems == ["the cell raised", "a failing output check"]


def test_error_rate_of_nothing_attempted_is_zero():
    assert Tally().error_rate == 0.0


def test_output_check_catches_an_altered_outcome_digest():
    rows = [["stencil", "avx", "control", 5, 2, 1, 0]]
    refs = {"pass0": digest(rows)}
    tally = Tally()
    check_reference(tally, refs, "pass0", digest(rows), "pass 0")
    assert tally.failed == 0
    altered = [["stencil", "avx", "control", 4, 3, 1, 0]]  # one SDC became benign
    check_reference(tally, refs, "pass0", digest(altered), "pass 0")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.error_rate == pytest.approx(0.5)


def test_output_check_without_reference_checks_nothing():
    tally = Tally()
    check_reference(tally, None, "pass0", "x", "pass 0")
    check_reference(tally, {"pass1": "y"}, "pass0", "x", "pass 0")
    assert tally.attempted == 0


def test_references_cover_default_and_held_out_seed():
    data = json.loads(REFERENCES.read_text())
    assert SEEDS == (1, 7)
    for workload in WORKLOADS:
        assert {str(s) for s in SEEDS} <= set(data[workload])


@pytest.mark.parametrize(
    "module, kept, dropped",
    [
        (fig11_sweep, ["", "pass0.block5"], ["pass1.block0", "pass10.block0"]),
        (fig12_store, ["", "round0"], ["round2", "round10"]),
        (service_mix, ["", "b0.c1.f3", "b0.daemon"], ["b2.c0.f20", "daemon"]),
    ],
)
def test_layer_spans_cover_only_work_the_seed_fixes(module, kept, dropped):
    assert all(module.fixed_work({"run": run}) for run in kept)
    assert not any(module.fixed_work({"run": run}) for run in dropped)


def test_every_service_block_makes_the_same_mix():
    for k in range(3):
        first, end = service_mix.block_fresh(k)
        for c in range(service_mix.CLIENTS):
            specs = [
                tuple(service_mix.fresh_payload(1, c, f)[key]
                      for key in ("workload", "target", "category"))
                for f in range(first, end)
            ]
            assert sorted(specs) == sorted(service_mix.SPECS)


def test_aborted_run_still_prints_its_error_accounting(monkeypatch, capsys):
    class Workload:
        @staticmethod
        def measure(ctx):
            ctx.tally.attempt(1800)
            ctx.tally.fail(1800, "round 0: every shard raised")
            raise ValueError("min() arg is an empty sequence")

    monkeypatch.setitem(sys.modules, "fig12_store", Workload)
    monkeypatch.setattr(run, "import_program", lambda: 0.0)
    code = run.main(["--workload", "fig12_store", "--seed", "3", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result == {"correct": False, "attempted": 1801, "failed": 1801,
                      "metrics": {}}


def test_self_time_subtracts_same_process_children_only():
    spans = [
        {"id": 1, "name": "outer", "start": 0.0, "end": 10.0, "parent": None,
         "pid": 1, "n": None},
        {"id": 2, "name": "inner", "start": 1.0, "end": 4.0, "parent": 1,
         "pid": 1, "n": 7},
        {"id": 3, "name": "inner", "start": 3.0, "end": 5.0, "parent": 1,
         "pid": 1, "n": 3},
        # A forked child's span caused by span 1 overlaps it in time but
        # runs in another process: it is not the parent's work.
        {"id": 9, "name": "inner", "start": 2.0, "end": 8.0, "parent": 1,
         "pid": 2, "n": None},
    ]
    totals = layer_totals(spans)
    assert totals["outer"]["self_s"] == pytest.approx(10.0 - 4.0)
    assert totals["inner"]["count"] == 3
    assert totals["inner"]["value"] == 10
