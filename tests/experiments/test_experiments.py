"""Experiment drivers produce well-formed reports at smoke scale."""

import json

import pytest

from repro.experiments import EXPERIMENTS, cell_seed
from repro.experiments import fig11, fig12, table1, fig10
from repro.experiments.common import SCALES


class TestCommon:
    def test_cell_seed_stable_and_distinct(self):
        assert cell_seed("fig11", "vcopy", "avx") == cell_seed("fig11", "vcopy", "avx")
        assert cell_seed("fig11", "vcopy", "avx") != cell_seed("fig11", "vcopy", "sse")

    def test_scales_ordered(self):
        assert (
            SCALES["smoke"].experiments_per_campaign
            < SCALES["quick"].experiments_per_campaign
            <= SCALES["full"].experiments_per_campaign
        )
        assert SCALES["full"].experiments_per_campaign == 100
        assert SCALES["full"].max_campaigns == 20


class TestTable1:
    def test_report_shape(self):
        report = table1.run("smoke")
        assert len(report.rows) == 18  # 9 benchmarks x 2 targets
        for row in report.rows:
            assert row["avg_dynamic_instructions"] > 0
            assert 0 <= row["vector_fraction"] <= 1
            assert row["paper_millions"] is not None
        text = table1.render(report)
        assert "fluidanimate" in text and "AVX" in text

    def test_json_round_trip(self, tmp_path):
        report = table1.run("smoke")
        path = tmp_path / "t1.json"
        report.save(path)
        data = json.loads(path.read_text())
        assert data["name"] == "table1"
        assert len(data["rows"]) == 18


class TestFig10:
    def test_rows_cover_all_cells(self):
        report = fig10.run("smoke")
        assert len(report.rows) == 9 * 2 * 3
        cats = {r["category"] for r in report.rows}
        assert cats == {"pure-data", "control", "address"}

    def test_paper_shape_claims(self):
        report = fig10.run("smoke")
        import numpy as np

        def avg(cat):
            vals = [
                r["vector_fraction"]
                for r in report.rows
                if r["category"] == cat and r["vector_fraction"] == r["vector_fraction"]
            ]
            return float(np.mean(vals))

        # Vector instructions dominate pure-data; address skews scalar.
        assert avg("pure-data") > 0.5
        assert avg("address") < avg("pure-data")
        assert avg("control") < avg("pure-data")


class TestFig11:
    def test_single_cell(self):
        from repro.workloads import get_workload

        cell = fig11.run_cell(
            get_workload("blackscholes"), "avx", "address", SCALES["smoke"]
        )
        assert cell["experiments"] == 8
        assert abs(cell["sdc"] + cell["benign"] + cell["crash"] - 1.0) < 1e-9
        assert cell["static_sites"] > 0

    def test_benchmark_filter(self):
        report = fig11.run("smoke", benchmarks=["vcopy"])
        assert report.rows == []  # vcopy is a micro, not a benchmark
        report = fig11.run("smoke", benchmarks=["sorting"])
        assert {r["benchmark"] for r in report.rows} == {"sorting"}
        assert len(report.rows) == 6  # 2 targets x 3 categories


class TestFig12:
    def test_overhead_measurement(self):
        from repro.workloads import get_workload

        overhead = fig12.measure_overhead(get_workload("vcopy"), samples=2)
        assert 0.0 < overhead < 0.2

    def test_detector_cell(self):
        from repro.workloads import get_workload

        cell = fig12.run_cell(get_workload("vcopy"), "pure-data", experiments=15)
        assert cell["experiments"] == 15
        # Fig. 12's headline: pure-data faults are never detected.
        assert cell["detection_rate"] == 0.0

    def test_paper_reference_values_recorded(self):
        assert fig12.PAPER_FIG12[("vector_sum", "control")] == (0.965, 0.487)
        assert fig12.PAPER_OVERHEADS["vcopy"] == pytest.approx(0.086)


class TestAblations:
    def test_report_structure(self):
        from repro.experiments import ablations

        report = ablations.run("smoke")
        mask_rows = [r for r in report.rows if r["study"] == "mask-awareness"]
        placement_rows = [r for r in report.rows if r["study"] == "detector-placement"]
        assert len(mask_rows) == 6  # 3 micros x {aware, unaware}
        assert len(placement_rows) == 6
        by_variant = {}
        for r in mask_rows:
            by_variant.setdefault(r["benchmark"], {})[r["variant"]] = r
        for name, variants in by_variant.items():
            assert (
                variants["mask-unaware"]["dynamic_sites"]
                >= variants["mask-aware"]["dynamic_sites"]
            ), name
        by_place = {}
        for r in placement_rows:
            by_place.setdefault(r["benchmark"], {})[r["variant"]] = r
        for name, variants in by_place.items():
            assert (
                variants["per-iteration"]["overhead"]
                > variants["exit-only"]["overhead"]
            ), name
        assert "Ablations" in ablations.render(report)


class TestBitpos:
    def test_f32_bit_gradient(self):
        """Mantissa-LSB flips on f32 data must be more benign than
        exponent-region flips — the IEEE gradient the study exposes."""
        from repro.experiments import bitpos

        rows = bitpos.run_cell(
            "dot_product", "pure-data", range(0, 32, 8), experiments_per_bit=8
        )
        by_bit = {r["bit"]: r for r in rows}
        assert by_bit[0]["benign"] >= by_bit[16]["benign"]
        assert by_bit[0]["sdc"] <= by_bit[16]["sdc"] + 1e-9

    def test_report_runs(self):
        from repro.experiments import bitpos

        report = bitpos.run("smoke")
        assert len(report.rows) == 16
        assert "Bit-position" in bitpos.render(report)


class TestCLI:
    def test_main_table1(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        rc = main(["table1", "--scale", "smoke", "--json-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert (tmp_path / "table1.json").exists()

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig10", "fig11", "fig12", "ablations", "bitpos",
            "vecdiff",
        }
