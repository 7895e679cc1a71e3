"""Deterministic result files: CSV tables and static SVG charts.

Output bytes are a pure function of the results (fixed float formatting,
fixed palette, no timestamps), so identical runs produce identical files.

Each table is one column spec: (CSV column, record field, parser) per
column. The spec gives the header, the cells (floats through
:func:`_fmt`, everything else as is) and, for results, the reader.
:func:`emit_report` and :func:`write_overlap_report` share one writer,
:func:`_write_report`, for the directory, results.csv and the charts.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Sequence

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
OVERLAP_HEADER = tuple(name for name, _, _ in _OVERLAP_COLUMNS)

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


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.6f}"


def _by_method_alpha(r) -> tuple:
    return (r.method, r.alpha)


def _write_table(path, records, columns) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _, _ in columns])
        for r in records:
            writer.writerow([
                _fmt(getattr(r, fld)) if parse is float else getattr(r, fld)
                for _, fld, parse in columns
            ])


def write_results_csv(results: Sequence[MethodResult], path) -> None:
    _write_table(path, sorted(results, key=_by_method_alpha), _RESULTS_COLUMNS)


def read_results_csv(path) -> list[MethodResult]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            MethodResult(**{fld: parse(row[name]) for name, fld, parse in _RESULTS_COLUMNS})
            for row in csv.DictReader(fh)
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


def _chart(
    series: dict[str, list[tuple[float, float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    diagonal: bool = False,
) -> str:
    pts = [p for s in series.values() for p in s if math.isfinite(p[0]) and math.isfinite(p[1])]
    if pts:
        xs, ys = zip(*pts)
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
    else:
        x_lo = y_lo = 0.0
        x_hi = y_hi = 1.0
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_pad = 0.05 * (x_hi - x_lo)
    y_pad = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MT + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
    ]
    for t in _ticks(x_lo + x_pad, x_hi - x_pad):
        parts.append(
            f'<line x1="{sx(t):.1f}" y1="{_MT + plot_h}" x2="{sx(t):.1f}" '
            f'y2="{_MT + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{sx(t):.1f}" y="{_MT + plot_h + 18}" '
            f'text-anchor="middle">{t:.2f}</text>'
        )
    for t in _ticks(y_lo + y_pad, y_hi - y_pad):
        parts.append(
            f'<line x1="{_ML - 5}" y1="{sy(t):.1f}" x2="{_ML}" y2="{sy(t):.1f}" '
            f'stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{sy(t) + 4:.1f}" text-anchor="end">{t:.2f}</text>'
        )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MT + plot_h / 2:.1f})">{ylabel}</text>'
    )
    if diagonal:
        d_lo = max(x_lo, y_lo)
        d_hi = min(x_hi, y_hi)
        if d_hi > d_lo:
            parts.append(
                f'<line x1="{sx(d_lo):.1f}" y1="{sy(d_lo):.1f}" x2="{sx(d_hi):.1f}" '
                f'y2="{sy(d_hi):.1f}" stroke="#999" stroke-dasharray="5,4"/>'
            )
    for i, (label, raw) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        good = sorted(
            (p for p in raw if math.isfinite(p[0]) and math.isfinite(p[1]))
        )
        if len(good) > 1:
            path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in good)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for x, y in good:
            parts.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="{color}"/>'
            )
        ly = _MT + 14 + 16 * i
        lx = _ML + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 24}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_coverage_chart(results: Sequence[MethodResult]) -> str:
    series: dict[str, list[tuple[float, float]]] = {}
    for r in sorted(results, key=_by_method_alpha):
        series.setdefault(r.method, []).append((1.0 - r.alpha, r.mean_coverage))
    return _chart(
        series,
        title="Empirical coverage vs nominal level",
        xlabel="nominal coverage (1 - alpha)",
        ylabel="empirical coverage",
        diagonal=True,
    )


def render_size_chart(results: Sequence[MethodResult]) -> str:
    series: dict[str, list[tuple[float, float]]] = {}
    for r in sorted(results, key=_by_method_alpha):
        series.setdefault(r.method, []).append((r.mean_coverage, r.mean_size))
    return _chart(
        series,
        title="Interval size vs empirical coverage",
        xlabel="empirical coverage",
        ylabel="mean interval size",
    )


def render_overlap_chart(rows: Sequence[OverlapStudyRow]) -> str:
    series: dict[str, list[tuple[float, float]]] = {}
    for r in sorted(rows, key=lambda r: (r.method, r.alpha, r.min_len)):
        series.setdefault(r.method, []).append((r.delta_avg, r.coverage_gap))
    return _chart(
        series,
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
