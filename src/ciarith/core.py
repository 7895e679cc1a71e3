"""Core domain types and the conformal quantile primitive.

Every interval method in this package reduces to the same primitive:
take the k-th smallest calibration score with k = ceil((1 + n) * (1 - alpha)),
appending a virtual +inf sentinel when k exceeds the number of scores.
The types here are immutable value objects shared by all other modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "LabeledSample",
    "IndexGroup",
    "SplitAssignment",
    "Threshold",
    "IntervalPrediction",
    "SampleSet",
    "conformal_quantile",
    "score_threshold",
    "loo_thresholds",
    "group_sum",
]

# Guard against float products landing infinitesimally above an integer:
# (1 + n) * (1 - alpha) is exactly integral for many (n, alpha) pairs and a
# naive ceil would then be off by one.
_CEIL_GUARD = 1e-9

_SUM_FIELDS = ("label", "point_pred", "quant_lo", "quant_hi")


def _ceil_rank(n: int, alpha: float) -> int:
    return math.ceil((1 + n) * (1.0 - alpha) - _CEIL_GUARD)


@dataclass(frozen=True)
class LabeledSample:
    """One data row: identity, features, response, and model outputs.

    ``label`` and ``point_pred`` may be absent (None) for rows where the
    response is unknown or no point model was queried; operations that
    need a missing field raise ValueError.
    """

    index: int
    features: np.ndarray | None = None
    label: float | None = None
    point_pred: float | None = None
    quant_lo: float | None = None
    quant_hi: float | None = None

    def __post_init__(self):
        if self.quant_lo is not None and self.quant_hi is not None:
            if self.quant_lo > self.quant_hi:
                raise ValueError(
                    f"sample {self.index}: quant_lo {self.quant_lo} exceeds "
                    f"quant_hi {self.quant_hi}"
                )


@dataclass(frozen=True)
class IndexGroup:
    """A subset of sample indices whose label sum is a prediction target."""

    group_id: int
    members: frozenset[int]

    def __post_init__(self):
        if not self.members:
            raise ValueError(f"group {self.group_id} has no members")
        object.__setattr__(self, "members", frozenset(self.members))

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint partition of the held-out indices into calibration and test."""

    cal: frozenset[int]
    test: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "cal", frozenset(self.cal))
        object.__setattr__(self, "test", frozenset(self.test))
        overlap = self.cal & self.test
        if overlap:
            raise ValueError(f"calibration and test sets overlap: {sorted(overlap)[:5]}")

    @property
    def universe(self) -> frozenset[int]:
        return self.cal | self.test


@dataclass(frozen=True)
class Threshold:
    """A conformal score threshold: the k-th smallest of n calibration scores.

    ``value`` is +inf exactly when k = ceil((1 + n) * (1 - alpha)) exceeds n,
    i.e. when the virtual +inf sentinel is selected.
    """

    value: float
    alpha: float
    n: int

    def __post_init__(self):
        k = _ceil_rank(self.n, self.alpha)
        if (k > self.n) != (self.value == math.inf):
            raise ValueError(
                f"inconsistent threshold: value={self.value}, n={self.n}, "
                f"alpha={self.alpha} implies rank {k}"
            )

    @property
    def is_infinite(self) -> bool:
        return self.value == math.inf


@dataclass(frozen=True)
class IntervalPrediction:
    """A [lower, upper] interval for one group's unknown label sum."""

    group_id: int
    lower: float
    upper: float
    alpha: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError(
                f"group {self.group_id}: lower {self.lower} exceeds upper {self.upper}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def covers(self, value: float) -> bool:
        return self.lower <= value <= self.upper


class SampleSet:
    """Immutable index -> LabeledSample container with unique indices."""

    def __init__(self, samples: Iterable[LabeledSample]):
        by_index: dict[int, LabeledSample] = {}
        for s in samples:
            if s.index in by_index:
                raise ValueError(f"duplicate sample index {s.index}")
            by_index[s.index] = s
        self._by_index = by_index

    def __getitem__(self, index: int) -> LabeledSample:
        return self._by_index[index]

    def __contains__(self, index: int) -> bool:
        return index in self._by_index

    def __len__(self) -> int:
        return len(self._by_index)

    def __iter__(self) -> Iterator[LabeledSample]:
        return iter(self._by_index.values())

    def subset(self, indices: Iterable[int]) -> list[LabeledSample]:
        return samples_at(self._by_index, indices)

    def column(self, indices: Iterable[int], fld: str) -> np.ndarray:
        """Extract one field over ``indices`` as a float array.

        Raises ValueError if the field is missing on any requested sample.
        """
        return extract_column(self.subset(indices), fld)[0]


def samples_at(
    samples: Mapping[int, LabeledSample], indices: Iterable[int]
) -> list[LabeledSample]:
    """The samples at ``indices``, in order; an unknown index is a ValueError."""
    try:
        return [samples[i] for i in indices]
    except KeyError as exc:
        raise ValueError(f"unknown sample index {exc.args[0]}") from None


def extract_column(samples: Sequence[LabeledSample], *flds: str) -> np.ndarray:
    """Fields ``flds`` of ``samples`` as the rows of a (len(flds), n) float array.

    Raises ValueError for an unknown field or a sample missing a field.
    """
    out = np.empty((len(flds), len(samples)))
    for row, fld in zip(out, flds):
        if fld not in _SUM_FIELDS:
            raise ValueError(f"unknown field {fld!r}; expected one of {_SUM_FIELDS}")
        vals = [getattr(s, fld) for s in samples]
        if None in vals:
            raise ValueError(f"sample {samples[vals.index(None)].index} has no {fld}")
        row[:] = vals
    return out


def _checked_scores(scores, alpha: float) -> np.ndarray:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1:
        raise ValueError("scores must be one-dimensional")
    if s.size and not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    return s


def score_threshold(scores, alpha: float) -> Threshold:
    """k-th smallest score with k = ceil((1 + n) * (1 - alpha)); +inf if k > n.

    Accepts signed scores (quantile-regression scores may be negative).
    Use :func:`conformal_quantile` when scores are known non-negative.
    """
    s = _checked_scores(scores, alpha)
    n = s.size
    k = _ceil_rank(n, alpha)
    if k > n:
        return Threshold(math.inf, alpha, n)
    value = float(np.partition(s, k - 1)[k - 1])
    return Threshold(value, alpha, n)


def loo_thresholds(scores, alpha: float, leave_out) -> np.ndarray:
    """The threshold of ``scores`` without entry t, for each t in
    ``leave_out``, from one stable sort; a negative t removes nothing.

    With t removed from a pool of G scores, k = ceil(G * (1 - alpha)) and
    the k-th smallest survivor sits at sorted position k - 1 when t ranks
    at or after k, else at position k (the order-statistic trick of
    jackknife+). The +inf sentinel appended to the sorted scores is picked
    exactly when k exceeds the pool size.
    """
    s = _checked_scores(scores, alpha)
    order = np.argsort(s, kind="stable")
    srt = np.append(s[order], math.inf)
    pos = np.empty(s.size, dtype=np.int64)
    pos[order] = np.arange(s.size)
    t = np.asarray(leave_out, dtype=np.int64)
    own = t >= 0
    k = np.where(own, _ceil_rank(s.size - 1, alpha), _ceil_rank(s.size, alpha))
    below = np.zeros(t.shape, dtype=bool)
    below[own] = pos[t[own]] < k[own]
    return srt[k - 1 + below]


def conformal_quantile(scores, alpha: float) -> Threshold:
    """Conformal quantile of non-negative scores.

    Returns the ceil((1 + n) * (1 - alpha))-th smallest score, or a +inf
    threshold when that rank exceeds n (the appended sentinel is selected).
    An empty score list is not an error: it always yields +inf.
    """
    s = np.asarray(scores, dtype=float)
    if s.size and s.min() < 0:
        raise ValueError("scores must be non-negative")
    return score_threshold(s, alpha)


def group_sum(samples: Sequence[LabeledSample], fld: str) -> float:
    """Sum one field over a list of samples; the empty sum is 0.0."""
    return float(extract_column(samples, fld)[0].sum())


# ---------------------------------------------------------------------------
# Groups as arrays: CSR offsets into a flat member array
# ---------------------------------------------------------------------------


def group_csr(member_lists: Iterable[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, members): group g's members are members[offsets[g]:offsets[g + 1]]."""
    chunks = [np.asarray(m, dtype=np.int64) for m in member_lists]
    members = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return csr_offsets([c.size for c in chunks]), members


def csr_offsets(sizes) -> np.ndarray:
    """CSR offsets of groups with the given sizes."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def per_group(reduce, offsets: np.ndarray, members: np.ndarray, *cols) -> np.ndarray:
    """``reduce`` applied to every group's gathered member values.

    Groups are taken one size class at a time: each column is gathered
    into a (groups x size) array and ``reduce`` maps those arrays to one
    value per row (a size-0 class gets empty rows). Row sums taken this
    way equal each group's own ``np.sum`` bit for bit, which
    ``np.bincount`` and ``np.add.reduceat`` do not: they add in another
    order.
    """
    sizes = np.diff(offsets)
    out = np.empty(sizes.size)
    for m in np.unique(sizes):
        idx = np.flatnonzero(sizes == m)
        rows = members[offsets[idx, None] + np.arange(m)]
        out[idx] = reduce(*(c[rows] for c in cols))
    return out


def row_sum(x: np.ndarray) -> np.ndarray:
    return np.sum(x, axis=-1)


# ---------------------------------------------------------------------------
# Intervals as (lower, upper) arrays
# ---------------------------------------------------------------------------


def collapse_crossed(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where a band padded by a negative threshold crosses (lower > upper),
    both bounds become the midpoint: an empty prediction set keeps its
    zero width and its near-certain miss."""
    crossed = lower > upper
    lower, upper = lower.copy(), upper.copy()
    lower[crossed] = upper[crossed] = 0.5 * (lower[crossed] + upper[crossed])
    return lower, upper


def checked_bounds(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bounds as given; ValueError where lower <= upper fails, NaN included,
    as :class:`IntervalPrediction` would raise."""
    bad = np.flatnonzero(~(lower <= upper))
    if bad.size:
        t = bad[0]
        raise ValueError(f"target {t}: lower {lower[t]} exceeds upper {upper[t]}")
    return lower, upper
