"""Group-level conformity scores: absolute residual sum, and quantile bands.

This module is the only home of the two score formulas. Both reduce over
the last axis, so one call scores a single group (1-D input, one float)
or a whole size class of groups (2-D input, one score per row), and both
collapse to their familiar single-label forms when the group has one
member. The quantile-band score may be negative (labels strictly inside
their bands); it is deliberately not clipped at zero, since negative
scores are what let quantile-based intervals shrink below the band sum.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import LabeledSample, extract_column

__all__ = ["split_group_score", "cqr_group_score", "split_score", "cqr_score", "score_kind"]


def _scalar_or_rows(s: np.ndarray):
    return float(s) if s.ndim == 0 else s


def split_score(y: np.ndarray, y_hat: np.ndarray):
    """|sum(y - y_hat)| over the last axis; empty sums give 0.0."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    return _scalar_or_rows(np.abs(np.sum(y - y_hat, axis=-1)))


def cqr_score(y: np.ndarray, q_lo: np.ndarray, q_hi: np.ndarray):
    """max{sum(q_lo - y), sum(y - q_hi)} over the last axis; empty sums give 0.0."""
    y = np.asarray(y, dtype=float)
    q_lo = np.asarray(q_lo, dtype=float)
    q_hi = np.asarray(q_hi, dtype=float)
    return _scalar_or_rows(np.maximum(np.sum(q_lo - y, axis=-1), np.sum(y - q_hi, axis=-1)))


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
