"""Deterministic result files: CSV tables and static SVG charts.

Output bytes are a pure function of the results (fixed float formatting,
fixed palette, no timestamps), so identical runs produce identical files.

Each table is one column spec: (CSV column, record field, parser) per
column. The spec gives the header, the cells (floats with six decimals,
everything else as is) and, for results, the reader. Every chart is drawn
by one renderer, :func:`_chart`, from x and y getters and its labels, and
every element of it but the root by one writer, :func:`_tag`.
:func:`emit_report` and :func:`write_overlap_report` share one writer,
:func:`_write_report`, for the directory, results.csv and the charts.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Callable, Sequence

from .core import _parse_field, _read_csv
from .experiments import MethodResult, OverlapStudyRow

__all__ = [
    "RESULTS_HEADER",
    "write_results_csv",
    "read_results_csv",
    "emit_report",
    "write_overlap_report",
]

_RESULTS_COLUMNS = (
    ("method", "method", str),
    ("alpha", "alpha", float),
    ("coverage_mean", "mean_coverage", float),
    ("coverage_std", "coverage_std", float),
    ("size_mean", "mean_size", float),
    ("size_std", "size_std", float),
    ("reps", "reps", int),
    ("n_infinite", "infinite_interval_count", int),
)

_OVERLAP_COLUMNS = (
    ("method", "method", str),
    ("alpha", "alpha", float),
    ("min_len", "min_len", int),
    ("delta_avg", "delta_avg", float),
    ("delta_max", "delta_max", float),
    ("coverage_mean", "coverage", float),
    ("coverage_gap", "coverage_gap", float),
    ("size_mean", "mean_size", float),
    ("reps", "reps", int),
)

RESULTS_HEADER = tuple(name for name, _, _ in _RESULTS_COLUMNS)

PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)


def _by_method_alpha(r) -> tuple:
    return (r.method, r.alpha)


def _write_table(path, records, columns) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _, _ in columns])
        for r in records:
            writer.writerow([
                f"{getattr(r, fld):.6f}" if parse is float else getattr(r, fld)
                for _, fld, parse in columns
            ])


def write_results_csv(results: Sequence[MethodResult], path) -> None:
    _write_table(path, sorted(results, key=_by_method_alpha), _RESULTS_COLUMNS)


def read_results_csv(path) -> list[MethodResult]:
    """The rows of a results.csv as written by :func:`write_results_csv`.

    Numbers may be inf or nan, as the writer writes them. A missing column
    raises ValueError naming it; a bad cell raises ValueError reading
    ``line N: column 'c': 'tok' is not numeric | an integer``.
    """
    with _read_csv(path, RESULTS_HEADER) as (header, rows):
        cells = [
            (header.index(name), fld, parse, f"column {name!r}")
            for name, fld, parse in _RESULTS_COLUMNS
        ]
        return [
            MethodResult(**{
                fld: row[j] if parse is str
                else _parse_field(row[j], line_no, column, parse, finite=False)
                for j, fld, parse, column in cells
            })
            for line_no, row in rows
        ]


# ---------------------------------------------------------------------------
# Minimal SVG line/scatter charts
# ---------------------------------------------------------------------------

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 160, 40, 55


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _axis(values: Sequence[float]) -> tuple[float, float, list[float]]:
    """(low end, high end, ticks) of an axis over ``values``: their range,
    widened to 1 when it is empty or flat, then padded by 5% on each side;
    the ticks span the range before padding."""
    lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    return lo, hi, _ticks(lo + pad, hi - pad)


def _tag(name: str, text=None, **attrs) -> str:
    """One SVG element. Attributes keep their call order, a ``_`` in a name
    is written as ``-``, a float with one decimal and any other value as
    ``str``; an element without text is self-closing. Nothing is escaped."""
    head = "".join(f' {k.replace("_", "-")}="{format(v, ".1f") if isinstance(v, float) else v}"'
                   for k, v in attrs.items())
    return f"<{name}{head}/>" if text is None else f"<{name}{head}>{text}</{name}>"


def _chart(
    records,
    x: Callable,
    y: Callable,
    title: str,
    xlabel: str,
    ylabel: str,
    diagonal: bool = False,
) -> str:
    """Every chart: one line per method, methods in name order, through the
    sorted (x(r), y(r)) points of its records. A point with a non-finite
    coordinate is left out; a method without points keeps its legend entry."""
    series: dict[str, list[tuple[float, float]]] = {}
    for r in sorted(records, key=lambda r: r.method):
        points = series.setdefault(r.method, [])
        p = (x(r), y(r))
        if math.isfinite(p[0]) and math.isfinite(p[1]):
            points.append(p)
    x_lo, x_hi, x_ticks = _axis([p[0] for s in series.values() for p in s])
    y_lo, y_hi, y_ticks = _axis([p[1] for s in series.values() for p in s])

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MT + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="sans-serif" font-size="12">',
        _tag("rect", width=_W, height=_H, fill="white"),
        _tag("text", title, x=_W / 2, y=22, text_anchor="middle", font_size=15),
        _tag("rect", x=_ML, y=_MT, width=plot_w, height=plot_h, fill="none", stroke="#333"),
    ]
    for t in x_ticks:
        parts.append(_tag("line", x1=sx(t), y1=_MT + plot_h, x2=sx(t), y2=_MT + plot_h + 5,
                          stroke="#333"))
        parts.append(_tag("text", f"{t:.2f}", x=sx(t), y=_MT + plot_h + 18, text_anchor="middle"))
    for t in y_ticks:
        parts.append(_tag("line", x1=_ML - 5, y1=sy(t), x2=_ML, y2=sy(t), stroke="#333"))
        parts.append(_tag("text", f"{t:.2f}", x=_ML - 8, y=sy(t) + 4, text_anchor="end"))
    parts.append(_tag("text", xlabel, x=_ML + plot_w / 2, y=_H - 12, text_anchor="middle"))
    parts.append(_tag("text", ylabel, x=18, y=_MT + plot_h / 2, text_anchor="middle",
                      transform=f"rotate(-90 18 {_MT + plot_h / 2:.1f})"))
    if diagonal:
        d_lo = max(x_lo, y_lo)
        d_hi = min(x_hi, y_hi)
        if d_hi > d_lo:
            parts.append(_tag("line", x1=sx(d_lo), y1=sy(d_lo), x2=sx(d_hi), y2=sy(d_hi),
                              stroke="#999", stroke_dasharray="5,4"))
    for i, (label, points) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        good = sorted(points)
        if len(good) > 1:
            path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in good)
            parts.append(_tag("polyline", points=path, fill="none", stroke=color,
                              stroke_width=1.5))
        for x, y in good:
            parts.append(_tag("circle", cx=sx(x), cy=sy(y), r=3, fill=color))
        ly = _MT + 14 + 16 * i
        lx = _ML + plot_w + 12
        parts.append(_tag("line", x1=lx, y1=ly - 4, x2=lx + 18, y2=ly - 4, stroke=color,
                          stroke_width=2))
        parts.append(_tag("text", label, x=lx + 24, y=ly))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_coverage_chart(results: Sequence[MethodResult]) -> str:
    return _chart(
        results, lambda r: 1.0 - r.alpha, lambda r: r.mean_coverage,
        title="Empirical coverage vs nominal level",
        xlabel="nominal coverage (1 - alpha)",
        ylabel="empirical coverage",
        diagonal=True,
    )


def render_size_chart(results: Sequence[MethodResult]) -> str:
    return _chart(
        results, lambda r: r.mean_coverage, lambda r: r.mean_size,
        title="Interval size vs empirical coverage",
        xlabel="empirical coverage",
        ylabel="mean interval size",
    )


def render_overlap_chart(rows: Sequence[OverlapStudyRow]) -> str:
    return _chart(
        rows, lambda r: r.delta_avg, lambda r: r.coverage_gap,
        title="Coverage gap vs group overlap",
        xlabel="mean pairwise Jaccard overlap",
        ylabel="coverage - (1 - alpha)",
    )


def _write_report(out_dir, records, columns, charts) -> dict[str, str]:
    """Write ``records`` as results.csv and each ``(key, file name, render)``
    chart of ``charts`` into ``out_dir``; returns the file paths by key."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {"results": os.path.join(out_dir, "results.csv")}
    _write_table(paths["results"], records, columns)
    for key, name, render in charts:
        paths[key] = os.path.join(out_dir, name)
        with open(paths[key], "w", encoding="utf-8") as fh:
            fh.write(render(records))
    return paths


def emit_report(results: Sequence[MethodResult], out_dir) -> dict[str, str]:
    """Write results.csv plus the two standard charts; returns file paths."""
    if not results:
        raise ValueError("no results to report")
    ordered = sorted(results, key=_by_method_alpha)
    return _write_report(out_dir, ordered, _RESULTS_COLUMNS, (
        ("coverage_chart", "coverage_vs_nominal.svg", render_coverage_chart),
        ("size_chart", "size_vs_coverage.svg", render_size_chart),
    ))


def write_overlap_report(rows: Sequence[OverlapStudyRow], out_dir) -> dict[str, str]:
    """Write the overlap study table (as results.csv) and its chart."""
    if not rows:
        raise ValueError("no study rows to report")
    ordered = sorted(rows, key=lambda r: (r.method, r.alpha, r.min_len))
    return _write_report(out_dir, ordered, _OVERLAP_COLUMNS, (
        ("overlap_chart", "overlap_gap.svg", render_overlap_chart),
    ))
