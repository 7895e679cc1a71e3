import hashlib
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ciarith.experiments import MethodResult, OverlapStudyRow
from ciarith.report import (
    RESULTS_HEADER,
    emit_report,
    read_results_csv,
    render_coverage_chart,
    render_overlap_chart,
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

    def test_every_written_token_reads_back(self, tmp_path):
        rows = [
            result("cia_split", 0.1, size=math.inf),
            result("bonf_split", 0.1, cov=math.nan, size=-math.inf),
            result("normal", 0.05, 0.9, 1.25),
        ]
        p = tmp_path / "results.csv"
        write_results_csv(rows, p)
        back = {(r.method, r.alpha): r for r in read_results_csv(p)}
        fields = ("mean_coverage", "coverage_std", "mean_size", "size_std", "reps",
                  "infinite_interval_count")
        for r in rows:
            b = back[(r.method, r.alpha)]
            for fld in fields:
                want, got = getattr(r, fld), getattr(b, fld)
                assert got == want or (math.isnan(want) and math.isnan(got)), fld

    @pytest.mark.parametrize(
        "body, message",
        [
            ("cia_split,0.1,0.9,0.01,x,0.2,10,0\n", "line 2: column 'size_mean': 'x' is not numeric"),
            ("cia_split,0.1,0.9,0.01,2.5,0.2,1.5,0\n", "line 2: column 'reps': '1.5' is not an integer"),
            ("cia_split,0.1,0.9,0.01,2.5,0.2,10,0\n\nb,0.1,0.9,0.01,2.5,oops,10,0\n",
             "line 4: column 'size_std': 'oops' is not numeric"),
            ("cia_split,0.1,0.9,0.01,2.5,0.2,10\n", "line 2: expected 8 fields, got 7"),
        ],
    )
    def test_bad_cell_fails_naming_line_and_column(self, tmp_path, body, message):
        p = tmp_path / "results.csv"
        p.write_text(",".join(RESULTS_HEADER) + "\n" + body)
        with pytest.raises(ValueError, match=re.escape(message)):
            read_results_csv(p)

    def test_missing_column_is_named(self, tmp_path):
        p = tmp_path / "results.csv"
        header = [c for c in RESULTS_HEADER if c != "coverage_std"]
        p.write_text(",".join(header) + "\ncia_split,0.1,0.9,2.5,0.2,10,0\n")
        with pytest.raises(ValueError, match="column 'coverage_std' not found"):
            read_results_csv(p)

    def test_empty_file_is_named(self, tmp_path):
        p = tmp_path / "results.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_results_csv(p)

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

    def _overlap_rows(self):
        return [
            OverlapStudyRow(
                min_len=m, method=method, alpha=alpha, delta_avg=0.01 * m + 0.1 * alpha,
                delta_max=0.1 * m, coverage=0.9 - 0.005 * m,
                coverage_gap=0.9 - 0.005 * m - (1.0 - alpha), mean_size=4.0, reps=10,
            )
            for method, alpha in [("group_split", 0.2), ("cia_split", 0.1), ("cia_split", 0.2)]
            for m in (5, 1, 3)
        ]

    # sha256 of each chart from fixed inputs: chart bytes are output, so a
    # change that moves any byte must update these on purpose
    @pytest.mark.parametrize("render, records, digest", [
        (render_coverage_chart, "_results",
         "4ef56fe372ae2d30207769b84a01cc2d9f6e3781a3630901db88d1933d2adcc7"),
        (render_size_chart, "_results",
         "114dd9161a7a077b97b5325934d6a3a9ad897c5ad12cd6169bddc86a1e79ce7c"),
        (render_overlap_chart, "_overlap_rows",
         "9aa4e2534d3edf010ca411d4ec43f18cc52ae738dc82759788d8111ef6ee95cc"),
    ], ids=["coverage", "size", "overlap"])
    def test_chart_bytes_are_pinned(self, render, records, digest):
        svg = render(getattr(self, records)())
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == digest

    def test_coverage_chart_is_wellformed_xml(self):
        svg = render_coverage_chart(self._results())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_size_chart_is_wellformed_xml(self):
        svg = render_size_chart(self._results())
        ET.fromstring(svg)

    def test_empty_legend_label_is_not_self_closing(self):
        # only an element without text is self-closing; empty text is text
        svg = render_coverage_chart([result("")])
        assert '<text x="516" y="54"></text>' in svg.splitlines()

    def test_infinite_sizes_are_skipped_not_crashes(self):
        svg = render_size_chart([result(size=math.inf), result("x", 0.2, 0.95, 2.0)])
        ET.fromstring(svg)

    @pytest.mark.parametrize("size", [1e16, -1e16, 1e300])
    def test_flat_axis_at_large_magnitude_keeps_a_span(self, tmp_path, size):
        # ±0.5 rounds away from about 1e16 on, which left a zero span to divide by
        flat = MethodResult(method="cia", alpha=0.1, mean_coverage=0.9, coverage_std=0.0,
                            mean_size=size, size_std=0.0, reps=3, infinite_interval_count=0)
        paths = emit_report([flat], tmp_path)
        root = ET.fromstring(Path(paths["size_chart"]).read_text())
        coords = [float(v) for el in root.iter() for k, v in el.attrib.items()
                  if k in ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy")]
        assert coords and all(0 <= c <= 640 for c in coords)

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
