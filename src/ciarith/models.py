"""Small black-box predictors for desk-scale experiments.

Three kinds: ``mean`` (constant), ``linear_ls`` (least squares with
intercept, ridge fallback on singular designs), and ``knn`` (neighbour
mean, plus empirical quantiles of the neighbour labels). Features are
z-scored per column inside ``fit`` using training statistics only.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LabeledSample, extract_column

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
    return np.vstack(rows), extract_column(samples, "label")[0]


def fit_arrays(
    features: np.ndarray, labels: np.ndarray, kind: str, k_neighbors: int | None = None
) -> FittedModel:
    """Array-level fit; see :func:`fit` for the record-level entry point."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise ValueError("features must be a non-empty (n, d) matrix aligned with labels")
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if k_neighbors is not None and k_neighbors < 1:
        raise ValueError(f"k_neighbors must be >= 1, got {k_neighbors}")

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
    return (F - model.feat_mean) / model.feat_scale, single


def _neighbor_labels(model: FittedModel, Z: np.ndarray) -> np.ndarray:
    """(n_query, k) labels of the k nearest training points, ties by index."""
    Ztr, ytr = model.params
    d2 = (Z**2).sum(axis=1)[:, None] + (Ztr**2).sum(axis=1)[None, :] - 2.0 * (Z @ Ztr.T)
    order = np.argsort(d2, axis=1, kind="stable")[:, : model.k_neighbors]
    return ytr[order]


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

    Uses the lower-interpolation order statistic: level q maps to the
    ceil(k * q)-th smallest neighbour label (at least the 1st).
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
    lo_idx = max(1, math.ceil(k * lo_level - 1e-12)) - 1
    hi_idx = max(1, math.ceil(k * hi_level - 1e-12)) - 1
    lo = labels[:, lo_idx]
    hi = labels[:, hi_idx]
    if single:
        return float(lo[0]), float(hi[0])
    return lo, hi
