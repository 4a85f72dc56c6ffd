"""Refinement-study harness: regions, orders, report formats, determinism."""
import json
import math

import numpy as np
import pytest

from pweno.bench import (
    Bench1DConfig,
    Bench2DConfig,
    BenchConfigError,
    RefinementReport,
    ReportRow,
    report_to_text,
    run_refinement_1d,
    run_refinement_2d,
    tau_values,
)

CSV_HEADER = "level,region,error,order,method,r,grid,seed"


class TestTauValues:
    def test_counts(self):
        assert tau_values(5) == (0.3, 0.4, 0.5, 0.6, 0.7)
        assert tau_values(3) == (0.3, 0.5, 0.7)
        assert tau_values(1) == (0.5,)

    def test_symmetric_about_half(self):
        for count in (1, 3, 5):
            taus = np.array(tau_values(count))
            np.testing.assert_allclose(taus + taus[::-1], 1.0, atol=1e-15)

    def test_other_counts_raise(self):
        for count in (0, 2, 4, 7):
            with pytest.raises(BenchConfigError):
                tau_values(count)


class TestRun1D:
    def test_region_rows_per_level(self):
        cfg = Bench1DConfig("f1", r=3, level_min=5, level_max=7, eval_points=900)
        rep = run_refinement_1d(cfg)
        labels = [str(s) for s in range(-4, 5)]
        for level in (5, 6, 7):
            got = [row.region for row in rep.rows if row.level == level]
            assert got == labels

    def test_orders_match_error_ratios(self):
        cfg = Bench1DConfig("f1", r=2, level_min=5, level_max=8, eval_points=900)
        rep = run_refinement_1d(cfg)
        hist = {}
        for row in rep.rows:
            if row.region in hist:
                prev = hist[row.region]
                assert row.order == pytest.approx(math.log2(prev / row.error),
                                                  rel=1e-12)
            else:
                assert row.order is None
            hist[row.region] = row.error

    def test_random_grid_runs(self):
        cfg = Bench1DConfig("f2", r=3, grid="random", seed=4,
                            level_min=5, level_max=6, eval_points=900)
        rep = run_refinement_1d(cfg)
        assert rep.grid == "random"
        assert all(np.isfinite(row.error) for row in rep.rows)

    def test_errors_decrease_away_from_jump(self):
        cfg = Bench1DConfig("f1", r=3, level_min=5, level_max=9, eval_points=900)
        rep = run_refinement_1d(cfg)
        by = {}
        for row in rep.rows:
            by.setdefault(row.region, []).append(row.error)
        # the jump sits in cell s=0: no convergence there, convergence at s=-2
        assert by["0"][-1] > 0.01
        assert by["-2"][-1] < 1e-4 * by["-2"][0]

    def test_2d_function_rejected(self):
        with pytest.raises(BenchConfigError):
            run_refinement_1d(Bench1DConfig("f3"))

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            run_refinement_1d(Bench1DConfig("f9"))

    def test_unknown_grid_rejected(self):
        with pytest.raises(BenchConfigError):
            run_refinement_1d(Bench1DConfig("f1", grid="chebyshev"))

    def test_empty_level_range_rejected(self):
        with pytest.raises(BenchConfigError):
            run_refinement_1d(Bench1DConfig("f1", level_min=7, level_max=6))

    def test_random_grid_needs_level_5(self):
        with pytest.raises(BenchConfigError):
            run_refinement_1d(Bench1DConfig("f1", grid="random", seed=1,
                                            level_min=4, level_max=6))

    def test_coarse_level_leaves_domain(self):
        # the evaluation window and the stencil windows share one check and message
        with pytest.raises(BenchConfigError, match="stencil windows leave the domain at level 3"):
            run_refinement_1d(Bench1DConfig("f1", r=4, level_min=3, level_max=5,
                                            eval_points=900))
        with pytest.raises(BenchConfigError, match="stencil windows leave the domain at level 2"):
            run_refinement_1d(Bench1DConfig("f1", level_min=2, level_max=3))

    def test_too_few_eval_points_rejected(self):
        with pytest.raises(BenchConfigError):
            run_refinement_1d(Bench1DConfig("f1", eval_points=4))


class TestRun2D:
    def test_smooth_study_has_one_global_row_per_level(self):
        cfg = Bench2DConfig("f3", r=2, level_min=4, level_max=6, eval_points=1)
        rep = run_refinement_2d(cfg)
        assert [row.region for row in rep.rows] == ["global"] * 3
        assert [row.level for row in rep.rows] == [4, 5, 6]

    def test_jump_study_region_grid(self):
        cfg = Bench2DConfig("f4", r=2, level_min=5, level_max=5, eval_points=1)
        rep = run_refinement_2d(cfg)
        labels = [f"{s1}:{s2}" for s1 in range(-5, 6) for s2 in range(-4, 5)]
        assert [row.region for row in rep.rows] == labels

    def test_orders_match_error_ratios(self):
        cfg = Bench2DConfig("f3", r=2, level_min=4, level_max=6, eval_points=3)
        rep = run_refinement_2d(cfg)
        prev = None
        for row in rep.rows:
            if prev is None:
                assert row.order is None
            else:
                assert row.order == pytest.approx(math.log2(prev / row.error),
                                                  rel=1e-12)
            prev = row.error

    def test_perturbed_grid_runs(self):
        cfg = Bench2DConfig("f4", r=2, grid="perturbed", seed=3,
                            level_min=5, level_max=5, eval_points=1)
        rep = run_refinement_2d(cfg)
        assert rep.grid == "perturbed"
        assert len(rep.rows) == 11 * 9

    def test_1d_function_rejected(self):
        with pytest.raises(BenchConfigError):
            run_refinement_2d(Bench2DConfig("f1"))

    def test_unknown_grid_rejected(self):
        with pytest.raises(BenchConfigError):
            run_refinement_2d(Bench2DConfig("f3", grid="random"))

    def test_perturbed_needs_level_4(self):
        with pytest.raises(BenchConfigError):
            run_refinement_2d(Bench2DConfig("f4", grid="perturbed",
                                            level_min=3, level_max=5))

    def test_bad_eval_points_rejected(self):
        with pytest.raises(BenchConfigError):
            run_refinement_2d(Bench2DConfig("f3", eval_points=2,
                                            level_min=4, level_max=4))


class TestEmptyRegions:
    """A region no point lands in: NaN error, empty CSV field, JSON null, no order."""

    @staticmethod
    def fields(rep, level, region):
        csv = [line.split(",") for line in report_to_text(rep, "csv").splitlines()[1:]]
        (line,) = [f for f in csv if f[:2] == [str(level), region]]
        (row,) = [row for row in json.loads(report_to_text(rep, "json"))["rows"]
                  if (row["level"], row["region"]) == (level, region)]
        return line[2], row["error"]

    def test_1d_random_window(self):
        cfg = Bench1DConfig("f1", r=3, grid="random", seed=14,
                            level_min=5, level_max=6, eval_points=9)
        rep = run_refinement_1d(cfg)
        rows = {(row.level, row.region): row for row in rep.rows}
        for region in ("-4", "-2", "1"):
            assert math.isnan(rows[5, region].error)
            assert rows[5, region].order is None
            assert rows[6, region].order is None
            assert self.fields(rep, 5, region) == ("", None)
        # a zero error gives no order at the next level either
        assert rows[5, "4"].error == 0.0
        assert rows[6, "4"].order is None

    @pytest.mark.parametrize("grid", ["uniform", "perturbed"])
    def test_2d_global_set_empty_at_coarse_level(self, grid):
        # r = 9 leaves no full-window cell on a 16-cell axis
        cfg = Bench2DConfig("f3", r=9, grid=grid, level_min=4, level_max=5,
                            eval_points=1)
        rep = run_refinement_2d(cfg)
        assert [(row.level, row.region) for row in rep.rows] == [(4, "global"), (5, "global")]
        assert math.isnan(rep.rows[0].error)
        assert np.isfinite(rep.rows[1].error)
        assert rep.rows[0].order is None and rep.rows[1].order is None
        assert self.fields(rep, 4, "global") == ("", None)


class TestReportFormats:
    @staticmethod
    def small_report():
        rows = [
            ReportRow(4, "global", 0.125, None),
            ReportRow(5, "global", 0.015625, 3.0),
            ReportRow(6, "global", float("nan"), None),
        ]
        return RefinementReport("classical", 3, "uniform", 7, 5, rows)

    def test_csv_layout_exact(self):
        text = report_to_text(self.small_report(), "csv")
        assert text == (
            CSV_HEADER + "\n"
            "4,global,0.125,,classical,3,uniform,7\n"
            "5,global,0.015625,3,classical,3,uniform,7\n"
            "6,global,,,classical,3,uniform,7\n"
        )

    def test_csv_floats_round_trip(self):
        rows = [ReportRow(5, "0", 1.0 / 3.0, None),
                ReportRow(6, "0", 0.1 + 0.2, math.log2(3.7))]
        rep = RefinementReport("progressive", 2, "random", 1, 9, rows)
        lines = report_to_text(rep, "csv").splitlines()
        assert lines[0] == CSV_HEADER
        for line, row in zip(lines[1:], rows):
            fields = line.split(",")
            assert float(fields[2]) == row.error
            if row.order is not None:
                assert float(fields[3]) == row.order

    def test_json_round_trip(self):
        cfg = Bench1DConfig("f1", r=2, level_min=5, level_max=6, eval_points=900)
        rep = run_refinement_1d(cfg)
        assert all(np.isfinite(row.error) for row in rep.rows)
        rep.fallback_points = 17
        obj = json.loads(report_to_text(rep, "json"))
        assert obj["method"] == "progressive"
        assert obj["fallback_points"] == 17
        assert obj["rows"][0]["order"] is None
        assert [(row["level"], row["region"], row["error"], row["order"])
                for row in obj["rows"]] == [(row.level, row.region, row.error, row.order)
                                            for row in rep.rows]

    def test_nan_error_is_null_in_json(self):
        obj = json.loads(report_to_text(self.small_report(), "json"))
        assert obj["rows"][2]["error"] is None

    def test_unknown_format_rejected(self):
        with pytest.raises(BenchConfigError):
            report_to_text(self.small_report(), "yaml")

    def test_repeat_runs_byte_identical(self):
        cfg = Bench1DConfig("f1", r=3, grid="random", seed=14,
                            level_min=5, level_max=7, eval_points=900)
        first = report_to_text(run_refinement_1d(cfg), "csv")
        assert report_to_text(run_refinement_1d(cfg), "csv") == first
