"""Baseline interval methods for group label sums.

Four families: conformal prediction over freshly sampled calibration
groups, normal approximations (pooled variance, and per-sample variances
from predicted interquartile ranges), and per-sample conformal intervals
combined with a Bonferroni correction.

Each family has an array-level core that bounds many targets at once
(:func:`group_sampling_threshold` with
:func:`~ciarith.core.interval_from_threshold`, :func:`normal_interval`,
:func:`bonferroni_interval`); the experiment harness calls the cores
directly. No core takes a score kind, which only picks the fields
scored and summed; all bounds pass :func:`~ciarith.core.interval_bounds`.
The ``*_predict`` functions are thin adapters: they check alpha and the
score kind, gather their records' fields with
:func:`~ciarith.core.extract_column` (by position for a
:meth:`SampleSet.subset <ciarith.core.SampleSet.subset>`), run the core
for one target and wrap the result in an :class:`IntervalPrediction`.
After those checks an empty test side gives [0, 0], the exact sum of no
labels, the rule of every record-level predictor.

Group sampling draws each target's calibration groups from that target's
own generator. The harness hands the core every target of a split at
once, with one generator per target seeded in one batch: each is
``np.random.default_rng`` of the target's derived seed, so the draws, and
every threshold, are those of a fresh generator per target. A draw
shuffles a copy of ``arange(n_cal)`` in place, as
``Generator.permutation(n_cal)`` does.
"""

from __future__ import annotations

import logging
import math
from statistics import NormalDist
from typing import Callable, Mapping, Sequence

import numpy as np

from . import scoring
from .core import (
    IntervalPrediction,
    LabeledSample,
    _check_finite,
    _index_array,
    _integer,
    _prediction,
    _rng,
    check_alpha,
    extract_column,
    interval_bounds,
    interval_from_threshold,
    kth_smallest,
    per_group,
    row_sum,
    score_threshold,
    size_classes,
)

__all__ = [
    "group_sampling_predict",
    "normal_homoscedastic_predict",
    "normal_hetero_iqr_predict",
    "bonferroni_predict",
    "group_sampling_threshold",
    "pooled_residual_sigma",
    "normal_interval",
    "iqr_sigma",
    "sum_of_squares",
    "bonferroni_interval",
    "IQR_TO_SD",
]

logger = logging.getLogger(__name__)

_NORMAL = NormalDist()
# z_{0.75} - z_{0.25}: converts an interquartile range to a normal sigma
IQR_TO_SD = _NORMAL.inv_cdf(0.75) - _NORMAL.inv_cdf(0.25)
# Cells per block of group-sampling targets, n_cal to a target: 8 MiB per
# int64 array of draws, and per float array of gathered terms.
_DRAW_BLOCK_CELLS = 2**20


# ---------------------------------------------------------------------------
# Group sampling
# ---------------------------------------------------------------------------


def group_sampling_threshold(
    cols: Sequence[np.ndarray],
    sizes,
    alpha: float,
    score: Callable[..., np.ndarray],
    K: int | None,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Each target's score threshold from K disjoint groups drawn from calibration.

    ``cols`` holds the columns ``score`` reads over the n_cal calibration
    rows: (y, point_pred) for the split score, (y, quant_lo, quant_hi)
    for the quantile-band score. ``score`` is one of :mod:`ciarith.scoring`'s
    score functions, or anything with their ``terms`` and ``combine``. A
    nan or inf in a column is a ValueError reading ``calibration row r,
    column j: v is not finite``.
    Target t has test size ``sizes[t]`` = m and draws its K size-m groups
    as the first K·m entries of ``rngs[t].permutation(n_cal)``: ``rngs``
    holds one generator per target. K defaults to floor(n_cal / m); a
    larger request is reduced with a diagnostic since groups are drawn
    without replacement.

    Targets are taken by test-size class, then in target order, in blocks
    of at most ``_DRAW_BLOCK_CELLS // n_cal`` targets, so a shared
    generator's draws compose across blocks. Each target shuffles its row
    of one (targets x n_cal) copy of ``arange(n_cal)`` in place; the
    score's terms, formed once over the calibration rows, are gathered at
    each row's first K·m entries, and each target's scores and threshold
    equal the one-target computation bit for bit.
    """
    check_alpha(alpha)
    sizes = _index_array("test size", sizes)
    if len(rngs) != sizes.size:
        raise ValueError(f"group sampling needs one generator per target: "
                         f"{len(rngs)} generators for {sizes.size} targets")
    for j, col in enumerate(cols):
        _check_finite(col, lambda r, j=j: f"calibration row {r}, column {j}:")
    n_cal = cols[0].size
    short = np.flatnonzero(sizes > n_cal)
    if short.size:
        raise ValueError(
            f"group sampling needs at least {sizes[short[0]]} calibration samples, "
            f"have {n_cal}"
        )
    empty = np.flatnonzero(sizes < 1)
    if empty.size:
        t = int(empty[0])
        raise ValueError(
            f"group sampling needs a test size of at least 1, target {t} has {sizes[t]}"
        )
    K = None if K is None else _integer("K", K, 1)
    terms = score.terms(*(np.asarray(c, dtype=float) for c in cols))
    q = np.empty(sizes.size)
    for m in np.unique(sizes).tolist():
        targets = np.flatnonzero(sizes == m)
        k_groups = n_cal // m
        if K is not None:
            if K > k_groups:
                logger.warning("group sampling: K reduced from %d to %d", K, k_groups)
            k_groups = min(K, k_groups)
        per_block = max(1, _DRAW_BLOCK_CELLS // n_cal)
        for block in np.split(targets, range(per_block, targets.size, per_block)):
            draws = np.tile(np.arange(n_cal), (block.size, 1))
            for row, t in zip(draws, block.tolist()):
                rngs[t].shuffle(row)
            rows = draws[:, : k_groups * m].reshape(block.size, k_groups, m)
            q[block] = kth_smallest(score.combine(*(row_sum(c[rows]) for c in terms)), alpha)
    return q


def group_sampling_predict(
    cal_samples: Sequence[LabeledSample],
    target_test_samples: Sequence[LabeledSample],
    alpha: float,
    score_kind: str = "split",
    K: int | None = None,
    rng_seed: int = 0,
    *,
    group_id: int = -1,
) -> IntervalPrediction:
    """Conformal interval whose calibration groups are sampled, not given.

    Draws K disjoint calibration groups matching the target's test-side
    size, scores them, and centers the interval on the target's summed
    predictions. Exchangeability of sampled groups with the target is an
    assumption here, not a property inherited from the data.
    """
    check_alpha(alpha)
    rng = _rng(rng_seed)
    score, fields = scoring.score_kind(score_kind)
    m = len(target_test_samples)
    if m == 0:
        return _prediction(group_id, alpha, [0.0], [0.0])
    cols = extract_column(cal_samples, *fields)
    sums = row_sum(extract_column(target_test_samples, *fields[1:]))[:, None]
    q = group_sampling_threshold(cols, [m], alpha, score, K, [rng])
    return _prediction(group_id, alpha, *interval_from_threshold(q, sums))


# ---------------------------------------------------------------------------
# Normal approximations
# ---------------------------------------------------------------------------


def pooled_residual_sigma(y: np.ndarray, pred: np.ndarray) -> float:
    """sqrt of the mean squared residual with an n-1 divisor, no centering."""
    y = np.asarray(y, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if y.size < 2:
        raise ValueError("pooled variance needs at least 2 calibration samples")
    return math.sqrt(float(np.sum((pred - y) ** 2)) / (y.size - 1))


def normal_interval(center, spread, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """center + [z_{alpha/2}, z_{1-alpha/2}] * spread, per target."""
    check_alpha(alpha)
    return interval_bounds(
        center + _NORMAL.inv_cdf(alpha / 2) * spread,
        center + _NORMAL.inv_cdf(1 - alpha / 2) * spread,
    )


def iqr_sigma(q25, q75) -> np.ndarray:
    """Per-sample sigma from predicted quartiles; inverted IQRs clamp to 0."""
    q25 = np.atleast_1d(np.asarray(q25, dtype=float))
    q75 = np.atleast_1d(np.asarray(q75, dtype=float))
    iqr = q75 - q25
    inverted = iqr < 0
    if np.any(inverted):
        logger.warning("%d inverted IQR predictions clamped to 0", int(inverted.sum()))
        iqr = np.where(inverted, 0.0, iqr)
    return iqr / IQR_TO_SD


def sum_of_squares(sigma: np.ndarray) -> np.ndarray:
    """Summed per-sample variances over the last axis."""
    return row_sum(sigma**2)


def normal_homoscedastic_predict(
    cal_samples: Sequence[LabeledSample],
    target_test_samples: Sequence[LabeledSample],
    alpha: float,
    *,
    group_id: int = -1,
) -> IntervalPrediction:
    """Normal interval with one pooled residual variance.

    Valid only when residuals really are i.i.d. zero-mean normal; heavy
    tails or model misspecification typically push coverage below target.
    """
    check_alpha(alpha)
    m = len(target_test_samples)
    if m == 0:
        return _prediction(group_id, alpha, [0.0], [0.0])
    sigma = pooled_residual_sigma(*extract_column(cal_samples, "label", "point_pred"))
    center = row_sum(extract_column(target_test_samples, "point_pred"))
    return _prediction(group_id, alpha, *normal_interval(center, np.sqrt([m]) * sigma, alpha))


def normal_hetero_iqr_predict(
    cal_samples: Sequence[LabeledSample],
    target_test_samples: Sequence[LabeledSample],
    alpha: float,
    quantile_predictor: Callable[[LabeledSample], tuple[float, float]],
    *,
    group_id: int = -1,
) -> IntervalPrediction:
    """Normal interval with per-sample sigmas from predicted IQRs.

    ``quantile_predictor`` maps a test sample to its predicted (0.25, 0.75)
    label quantiles; per-sample variances add across the group. A
    non-finite quartile is a ValueError naming the sample.
    """
    check_alpha(alpha)
    if len(target_test_samples) == 0:
        return _prediction(group_id, alpha, [0.0], [0.0])
    quarts = np.array([quantile_predictor(s) for s in target_test_samples], dtype=float)
    bad = np.argwhere(~np.isfinite(quarts))
    if bad.size:
        k, j = bad[0]
        raise ValueError(f"sample {target_test_samples[k].index} has non-finite "
                         f"{('lower', 'upper')[j]} quartile {quarts[k, j]}")
    spread = np.sqrt(sum_of_squares(iqr_sigma(quarts[:, 0], quarts[:, 1])[None]))
    center = row_sum(extract_column(target_test_samples, "point_pred"))
    return _prediction(group_id, alpha, *normal_interval(center, spread, alpha))


# ---------------------------------------------------------------------------
# Bonferroni correction
# ---------------------------------------------------------------------------


def bonferroni_interval(
    q_by_size: Mapping[int, float],
    test: tuple,
    test_cols: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Sum the per-sample bands [lo_i - q, hi_i + q] over each target.

    ``test`` is the :func:`~ciarith.core.size_classes` plan of the
    targets' test sides over the rows of ``test_cols``: (point_pred,), a
    band of zero width, or (quant_lo, quant_hi). A target of test size m
    uses the threshold ``q_by_size[m]``, so each size class shares one.
    """
    lo, hi = test_cols[0], test_cols[-1]
    lower = per_group(lambda c: row_sum(c - q_by_size[c.shape[-1]]), test, lo)
    upper = per_group(lambda c: row_sum(c + q_by_size[c.shape[-1]]), test, hi)
    return interval_bounds(lower, upper)


def bonferroni_predict(
    cal_samples: Sequence[LabeledSample],
    target_test_samples: Sequence[LabeledSample],
    alpha: float,
    score_kind: str = "split",
    *,
    group_id: int = -1,
) -> IntervalPrediction:
    """Sum of per-sample conformal intervals at the corrected level alpha/m.

    Every calibration sample contributes an individual score; each of the m
    test samples gets a single-label interval at level alpha/m, and the
    bounds add. The union bound keeps this valid under any dependence.
    """
    check_alpha(alpha)
    score, fields = scoring.score_kind(score_kind)
    m = len(target_test_samples)
    if m == 0:
        return _prediction(group_id, alpha, [0.0], [0.0])
    per_sample = score(*extract_column(cal_samples, *fields)[:, :, None])
    q = {m: score_threshold(per_sample, alpha / m).value}
    test_cols = extract_column(target_test_samples, *fields[1:])
    bounds = bonferroni_interval(q, size_classes(np.array([0, m]), np.arange(m)), test_cols)
    return _prediction(group_id, alpha, *bounds)
