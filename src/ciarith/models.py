"""Small black-box predictors for desk-scale experiments.

Three kinds: ``mean`` (constant), ``linear_ls`` (least squares with
intercept, ridge fallback on singular designs), and ``knn`` (neighbour
mean, plus empirical quantiles of the neighbour labels). Features are
z-scored per column inside ``fit`` using training statistics only.

A kNN query selects the k nearest training rows once, by partial
selection, and orders them by (distance, training index); the point
prediction and every quantile level read that one selection.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LabeledSample, _check_finite, extract_column

__all__ = ["FittedModel", "fit", "predict_point", "predict_quantiles"]

logger = logging.getLogger(__name__)

MODEL_KINDS = ("mean", "linear_ls", "knn")


@dataclass(frozen=True)
class FittedModel:
    kind: str
    feat_mean: np.ndarray
    feat_scale: np.ndarray
    # mean: scalar; linear_ls: coefficient vector with trailing intercept;
    # knn: standardized training matrix stacked with labels
    params: tuple
    k_neighbors: int = 0


def _design(samples: Sequence[LabeledSample]) -> tuple[np.ndarray, np.ndarray]:
    if not samples:
        raise ValueError("training set is empty")
    rows = []
    width = None
    for s in samples:
        if s.features is None:
            raise ValueError(f"sample {s.index} has no features")
        f = np.asarray(s.features, dtype=float).ravel()
        if width is None:
            width = f.size
        elif f.size != width:
            raise ValueError(
                f"sample {s.index} has {f.size} features, expected {width}"
            )
        rows.append(f)
    X = np.vstack(rows)
    _check_finite(X, lambda r, c: f"sample {samples[r].index}, feature {c}:")
    return X, extract_column(samples, "label")[0]


def fit_arrays(
    features: np.ndarray, labels: np.ndarray, kind: str, k_neighbors: int | None = None
) -> FittedModel:
    """Array-level fit (:func:`fit` is the record-level entry point); a nan
    or inf feature or label raises ValueError naming its row and column."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise ValueError("features must be a non-empty (n, d) matrix aligned with labels")
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if k_neighbors is not None and k_neighbors < 1:
        raise ValueError(f"k_neighbors must be >= 1, got {k_neighbors}")
    _check_finite(X, "row {}, feature {}:".format)
    _check_finite(y, "row {}: label".format)

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    Z = (X - mu) / sd

    if kind == "mean":
        params = (float(y.mean()),)
    elif kind == "linear_ls":
        A = np.hstack([Z, np.ones((Z.shape[0], 1))])
        coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
        if rank < A.shape[1]:
            lam = 1e-6
            logger.warning("singular design (rank %d < %d); ridge fallback", rank, A.shape[1])
            coef = np.linalg.solve(A.T @ A + lam * np.eye(A.shape[1]), A.T @ y)
        params = (coef,)
    else:  # knn
        k = k_neighbors if k_neighbors is not None else max(2, math.isqrt(Z.shape[0]))
        k = min(k, Z.shape[0])
        params = (Z, y)
        return FittedModel(kind=kind, feat_mean=mu, feat_scale=sd, params=params, k_neighbors=k)
    return FittedModel(kind=kind, feat_mean=mu, feat_scale=sd, params=params)


def fit(
    train: Sequence[LabeledSample], kind: str, k_neighbors: int | None = None
) -> FittedModel:
    """Fit a predictor on labeled samples; deterministic given input order."""
    X, y = _design(train)
    return fit_arrays(X, y, kind, k_neighbors=k_neighbors)


def _standardize(model: FittedModel, features) -> tuple[np.ndarray, bool]:
    F = np.asarray(features, dtype=float)
    single = F.ndim == 1
    if single:
        F = F[None, :]
    if F.shape[1] != model.feat_mean.size:
        raise ValueError(
            f"feature width {F.shape[1]} does not match model ({model.feat_mean.size})"
        )
    _check_finite(F, "query row {}, feature {}:".format)
    return (F - model.feat_mean) / model.feat_scale, single


# Query rows per partition block. It bounds the int64 index temporary to
# _BLOCK_ROWS x n_train; the block size changes no result.
_BLOCK_ROWS = 256


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """(n_query, k) indices of the k nearest training rows, by (distance, index).

    Equal to ``np.argsort(d2, axis=1, kind="stable")[:, :k]`` without sorting
    whole rows. ``np.argpartition`` picks k candidates per row, and the
    candidates are ordered by (distance, index). The candidate set is exact
    unless another training row shares the k-th distance: a row whose count
    of ``d2 <= kth`` is not exactly k has such a tie (or a NaN) at the
    boundary and is redone with the stable sort.
    """
    out = np.empty((d2.shape[0], k), dtype=np.intp)
    for start in range(0, d2.shape[0], _BLOCK_ROWS):
        d = d2[start:start + _BLOCK_ROWS]
        idx = np.argpartition(d, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(d, idx[:, -1:], axis=1)
        tied = np.flatnonzero(np.count_nonzero(d <= kth, axis=1) != k)
        idx.sort(axis=1)
        by_dist = np.argsort(np.take_along_axis(d, idx, axis=1), axis=1, kind="stable")
        idx = np.take_along_axis(idx, by_dist, axis=1)
        if tied.size:
            idx[tied] = np.argsort(d[tied], axis=1, kind="stable")[:, :k]
        out[start:start + _BLOCK_ROWS] = idx
    return out


def _neighbor_labels(model: FittedModel, Z: np.ndarray) -> np.ndarray:
    Ztr, ytr = model.params
    # one GEMM over all query rows, in place: the same operations as
    # a + b - 2.0 * (Z @ Ztr.T). Splitting the product by rows would change
    # the last bits of the distances (a one-row block goes through GEMV).
    d2 = (Z**2).sum(axis=1)[:, None] + (Ztr**2).sum(axis=1)[None, :]
    g = Z @ Ztr.T
    g *= 2.0
    d2 -= g
    del g  # free the product before the selection's temporaries
    return ytr[_nearest(d2, model.k_neighbors)]


def neighbor_labels(model: FittedModel, features) -> np.ndarray:
    """(n_query, k) labels of the k nearest training rows, by (distance, index).

    The one neighbour selection behind :func:`predict_point` (kind ``knn``)
    and :func:`predict_quantiles`; a 1-D feature vector is one query row.
    Distances are squared Euclidean on the z-scored features, and rows at
    equal distance go to the lower training index.
    """
    if model.kind != "knn":
        raise ValueError(f"model kind {model.kind!r} has no neighbours")
    return _neighbor_labels(model, _standardize(model, features)[0])


def quantile_index(k: int, level: float) -> int:
    """Column of ``level`` among k sorted neighbour labels: the ceil(k * level)-th
    smallest, at least the 1st (lower-interpolation order statistic)."""
    return max(1, math.ceil(k * level - 1e-12)) - 1


def predict_point(model: FittedModel, features):
    """Point prediction; a 1-D feature vector gives a float, a matrix an array."""
    Z, single = _standardize(model, features)
    if model.kind == "mean":
        out = np.full(Z.shape[0], model.params[0])
    elif model.kind == "linear_ls":
        coef = model.params[0]
        out = Z @ coef[:-1] + coef[-1]
    else:
        out = _neighbor_labels(model, Z).mean(axis=1)
    return float(out[0]) if single else out


def predict_quantiles(model: FittedModel, features, levels: tuple[float, float]):
    """Empirical (lower, upper) label quantiles among the k nearest neighbours.

    Level q maps to column :func:`quantile_index` of the sorted labels of
    the neighbours :func:`neighbor_labels` selects.
    """
    if model.kind != "knn":
        raise ValueError(f"model kind {model.kind!r} does not support quantiles")
    lo_level, hi_level = levels
    if not (0.0 <= lo_level <= 1.0 and 0.0 <= hi_level <= 1.0):
        raise ValueError("quantile levels must lie in [0, 1]")
    if lo_level > hi_level:
        raise ValueError("lower level exceeds upper level")
    Z, single = _standardize(model, features)
    labels = np.sort(_neighbor_labels(model, Z), axis=1)
    k = labels.shape[1]
    lo = labels[:, quantile_index(k, lo_level)]
    hi = labels[:, quantile_index(k, hi_level)]
    if single:
        return float(lo[0]), float(hi[0])
    return lo, hi
