import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ciarith.experiments import MethodResult, OverlapStudyRow
from ciarith.report import (
    emit_report,
    read_results_csv,
    render_coverage_chart,
    render_size_chart,
    write_overlap_report,
    write_results_csv,
)


def result(method="cia_split", alpha=0.1, cov=0.9, size=2.5):
    return MethodResult(
        method=method, alpha=alpha, mean_coverage=cov, coverage_std=0.01,
        mean_size=size, size_std=0.2, reps=10, infinite_interval_count=0,
    )


class TestResultsCsv:
    def test_single_row(self, tmp_path):
        p = tmp_path / "results.csv"
        write_results_csv([result()], p)
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "method,alpha,coverage_mean,coverage_std,size_mean,size_std,reps,n_infinite"

    def test_round_trip_to_six_decimals(self, tmp_path):
        rows = [
            result("cia_split", 0.1, 0.904321987, 3.14159265),
            result("bonf_split", 0.05, 0.999999444, 250.123456789),
        ]
        p = tmp_path / "results.csv"
        write_results_csv(rows, p)
        back = {(r.method, r.alpha): r for r in read_results_csv(p)}
        for r in rows:
            b = back[(r.method, r.alpha)]
            assert b.mean_coverage == pytest.approx(r.mean_coverage, abs=5e-7)
            assert b.mean_size == pytest.approx(r.mean_size, abs=5e-7)
            assert b.reps == r.reps

    def test_infinite_sizes_survive_round_trip(self, tmp_path):
        p = tmp_path / "results.csv"
        write_results_csv([result(size=math.inf)], p)
        (back,) = read_results_csv(p)
        assert math.isinf(back.mean_size)

    def test_rows_sorted_by_method_then_alpha(self, tmp_path):
        rows = [result("b", 0.2), result("a", 0.2), result("b", 0.1)]
        p = tmp_path / "results.csv"
        write_results_csv(rows, p)
        order = [(r.method, r.alpha) for r in read_results_csv(p)]
        assert order == [("a", 0.2), ("b", 0.1), ("b", 0.2)]


class TestCharts:
    def _results(self):
        return [
            result("cia_split", a, cov, size)
            for a, cov, size in [(0.01, 0.99, 5.0), (0.05, 0.95, 3.0), (0.1, 0.9, 2.0)]
        ] + [
            result("bonf_split", a, cov, size)
            for a, cov, size in [(0.01, 1.0, 50.0), (0.05, 0.99, 30.0), (0.1, 0.96, 20.0)]
        ]

    def test_coverage_chart_is_wellformed_xml(self):
        svg = render_coverage_chart(self._results())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_size_chart_is_wellformed_xml(self):
        svg = render_size_chart(self._results())
        ET.fromstring(svg)

    def test_infinite_sizes_are_skipped_not_crashes(self):
        svg = render_size_chart([result(size=math.inf), result("x", 0.2, 0.95, 2.0)])
        ET.fromstring(svg)

    def test_emit_report_writes_three_files(self, tmp_path):
        paths = emit_report(self._results(), tmp_path / "out")
        for p in paths.values():
            assert Path(p).exists() and Path(p).stat().st_size > 0

    def test_emit_report_deterministic_bytes(self, tmp_path):
        a = emit_report(self._results(), tmp_path / "a")
        b = emit_report(self._results(), tmp_path / "b")
        for key in a:
            assert Path(a[key]).read_bytes() == Path(b[key]).read_bytes()

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no results"):
            emit_report([], tmp_path)


class TestOverlapReport:
    def test_writes_table_and_chart(self, tmp_path):
        rows = [
            OverlapStudyRow(
                min_len=m, method="cia_split", alpha=0.1, delta_avg=0.01 * m,
                delta_max=0.1 * m, coverage=0.9 - 0.005 * m,
                coverage_gap=-0.005 * m, mean_size=4.0, reps=10,
            )
            for m in (1, 3, 5)
        ]
        paths = write_overlap_report(rows, tmp_path / "study")
        text = Path(paths["results"]).read_text()
        assert text.splitlines()[0] == (
            "method,alpha,min_len,delta_avg,delta_max,coverage_mean,"
            "coverage_gap,size_mean,reps"
        )
        assert len(text.strip().splitlines()) == 4
        ET.parse(paths["overlap_chart"])
