"""Baseline interval methods for group label sums.

Four families: conformal prediction over freshly sampled calibration
groups, normal approximations (pooled variance, and per-sample variances
from predicted interquartile ranges), and per-sample conformal intervals
combined with a Bonferroni correction.

Each family has an array-level core that bounds many targets at once
(:func:`group_sampling_threshold` with
:func:`~ciarith.cia.interval_from_threshold`, :func:`normal_interval`,
:func:`bonferroni_interval`); the experiment harness calls the cores
directly. No core takes a score kind, which only picks the fields
scored and summed; all bounds pass :func:`~ciarith.core.interval_bounds`.
The ``*_predict`` functions are thin adapters: they check alpha and the
score kind, gather their records' fields with
:func:`~ciarith.core.extract_column` (by position for a
:meth:`SampleSet.subset <ciarith.core.SampleSet.subset>`), run the core
for one target and wrap the result in an :class:`IntervalPrediction`.

Group sampling draws each target's calibration groups from that target's
own random stream. The harness hands the core every target of a split at
once, with the streams seeded in one batch: each is still
``np.random.default_rng(seed)``'s permutation for the target's derived
seed, so the draws, and every threshold, are those of a fresh generator
per target.
"""

from __future__ import annotations

import logging
import math
from statistics import NormalDist
from typing import Callable, Mapping, Sequence

import numpy as np

from . import scoring
from .cia import _prediction, interval_from_threshold
from .core import (
    IntervalPrediction,
    LabeledSample,
    check_alpha,
    extract_column,
    interval_bounds,
    kth_smallest,
    per_group,
    score_threshold,
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


# ---------------------------------------------------------------------------
# Group sampling
# ---------------------------------------------------------------------------


def group_sampling_threshold(
    cols: Sequence[np.ndarray],
    sizes,
    alpha: float,
    score: Callable[..., np.ndarray],
    K: int | None,
    permutation: Callable[[int], np.ndarray],
) -> np.ndarray:
    """Each target's score threshold from K disjoint groups drawn from calibration.

    ``cols`` holds the columns ``score`` reads over the n_cal calibration
    rows: (y, point_pred) for the split score, (y, quant_lo, quant_hi)
    for the quantile-band score.
    Target t has test size ``sizes[t]`` = m and draws its K size-m groups
    as the first K·m entries of ``permutation(t)``, a permutation of
    range(n_cal). K defaults to floor(n_cal / m); a larger request is
    reduced with a diagnostic since groups are drawn without replacement.

    Targets are taken one test-size class at a time: the class's draws
    fill one (targets x K x m) index array, the columns are gathered once,
    and each row's scores and threshold equal the one-target computation
    bit for bit.
    """
    check_alpha(alpha)
    sizes = np.asarray(sizes, dtype=np.int64)
    n_cal = cols[0].size
    short = np.flatnonzero(sizes > n_cal)
    if short.size:
        raise ValueError(
            f"group sampling needs at least {sizes[short[0]]} calibration samples, "
            f"have {n_cal}"
        )
    if K is not None and K < 1:
        raise ValueError("K must be at least 1")
    q = np.empty(sizes.size)
    for m in np.unique(sizes).tolist():
        targets = np.flatnonzero(sizes == m)
        k_groups = n_cal // m
        if K is not None:
            if K > k_groups:
                logger.warning("group sampling: K reduced from %d to %d", K, k_groups)
            k_groups = min(K, k_groups)
        rows = np.empty((targets.size, k_groups * m), dtype=np.int64)
        for r, t in enumerate(targets.tolist()):
            rows[r] = permutation(t)[: k_groups * m]
        scores = score(*(c[rows.reshape(targets.size, k_groups, m)] for c in cols))
        q[targets] = kth_smallest(scores, alpha)
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
    score, fields = scoring.score_kind(score_kind)
    m = len(target_test_samples)
    if m == 0:
        return _prediction(group_id, alpha, [0.0], [0.0])
    cols = extract_column(cal_samples, *fields)
    sums = extract_column(target_test_samples, *fields[1:]).sum(axis=-1, keepdims=True)
    rng = np.random.default_rng(rng_seed)
    q = group_sampling_threshold(
        cols, [m], alpha, score, K, lambda t: rng.permutation(len(cal_samples))
    )
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
    return np.sum(sigma**2, axis=-1)


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
    center = extract_column(target_test_samples, "point_pred").sum(axis=-1)
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
    center = extract_column(target_test_samples, "point_pred").sum(axis=-1)
    return _prediction(group_id, alpha, *normal_interval(center, spread, alpha))


# ---------------------------------------------------------------------------
# Bonferroni correction
# ---------------------------------------------------------------------------


def bonferroni_interval(
    q_by_size: Mapping[int, float],
    test: tuple[np.ndarray, np.ndarray],
    test_cols: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Sum the per-sample bands [lo_i - q, hi_i + q] over each target.

    ``test`` is the CSR (offsets, members) of the targets' test sides over
    the rows of ``test_cols``: (point_pred,), a band of zero width, or
    (quant_lo, quant_hi). A target of test size m uses the threshold
    ``q_by_size[m]``, so each size class shares one.
    """
    lo, hi = test_cols[0], test_cols[-1]
    lower = per_group(lambda c: np.sum(c - q_by_size[c.shape[-1]], axis=-1), *test, lo)
    upper = per_group(lambda c: np.sum(c + q_by_size[c.shape[-1]], axis=-1), *test, hi)
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
    one_group = (np.array([0, m]), np.arange(m))
    bounds = bonferroni_interval(q, one_group, test_cols)
    return _prediction(group_id, alpha, *bounds)
