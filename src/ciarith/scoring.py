"""Group-level conformity scores: absolute residual sum, and quantile bands.

This module is the only home of the two score formulas, each written once
as the score function's ``terms`` (per row: y - y_hat; q_lo - y and
y - q_hi) and ``combine`` (of the terms' :func:`~ciarith.core.row_sum`:
abs; max). Group sampling forms the terms once over the calibration rows
and combines the row sums of their gathers in the same way.

Scores reduce over the last axis, so one call scores a single group (1-D
input, one float) or a whole size class of groups (2-D input, one score
per row), and both collapse to their familiar single-label forms when
the group has one member. The quantile-band score may be negative
(labels strictly inside their bands); it is deliberately not clipped at
zero, since negative scores are what let quantile-based intervals shrink
below the band sum.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import LabeledSample, extract_column, row_sum

__all__ = ["split_group_score", "cqr_group_score", "split_score", "cqr_score", "score_kind"]


def _combined(score, cols):
    """``score.combine`` of the row sums of ``score.terms`` of the float
    ``cols``: a float for 1-D columns, else one score per row."""
    cols = [np.asarray(c, dtype=float) for c in cols]
    s = score.combine(*map(row_sum, score.terms(*cols)))
    return float(s) if s.ndim == 0 else s


def split_score(y: np.ndarray, y_hat: np.ndarray):
    """|sum(y - y_hat)| over the last axis; empty sums give 0.0."""
    return _combined(split_score, (y, y_hat))


def cqr_score(y: np.ndarray, q_lo: np.ndarray, q_hi: np.ndarray):
    """max{sum(q_lo - y), sum(y - q_hi)} over the last axis; empty sums give 0.0."""
    return _combined(cqr_score, (y, q_lo, q_hi))


# the formulas: per-row terms of the columns, and the step from their row sums
split_score.terms = lambda y, y_hat: (y - y_hat,)
split_score.combine = np.abs
cqr_score.terms = lambda y, q_lo, q_hi: (q_lo - y, y - q_hi)
cqr_score.combine = np.maximum


def score_kind(kind: str):
    """(score function, the sample fields it reads) for a score kind.

    The fields after ``label`` are the ones a target's test side sums.
    """
    if kind == "split":
        return split_score, ("label", "point_pred")
    if kind == "cqr":
        return cqr_score, ("label", "quant_lo", "quant_hi")
    raise ValueError(f"unknown score kind {kind!r}")


def split_group_score(samples: Sequence[LabeledSample]) -> float:
    """Absolute sum of residuals |sum(y_i - point_pred_i)| for one group."""
    return split_score(*extract_column(samples, "label", "point_pred"))


def cqr_group_score(samples: Sequence[LabeledSample]) -> float:
    """Quantile-band score max{sum(quant_lo - y), sum(y - quant_hi)}.

    Negative when every label sits strictly inside its predicted band.
    """
    return cqr_score(*extract_column(samples, "label", "quant_lo", "quant_hi"))
