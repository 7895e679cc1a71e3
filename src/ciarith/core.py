"""Core domain types and the primitives every interval method shares.

One rank rule, :func:`kth_smallest`: the k-th smallest calibration score
with k = ceil((1 + n) * (1 - alpha)), or a virtual +inf sentinel when k
exceeds the number of scores. One bounds rule, :func:`interval_bounds`,
and one record gather, :func:`extract_column`. The types here are
immutable value objects shared by all other modules.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "LabeledSample",
    "IndexGroup",
    "SplitAssignment",
    "Threshold",
    "IntervalPrediction",
    "SampleSet",
    "SampleSubset",
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


@dataclass(frozen=True, eq=False)
class _SampleColumns:
    """The summable fields of some records as read-only arrays, in the
    records' order.

    ``values`` holds label, point_pred, quant_lo and quant_hi as its rows,
    with nan where a field is None; ``present`` tells such a nan from a
    stored one. ``clean[r]`` is true when field r is present and finite on
    every sample, so a gather of it needs no check.
    """

    index: np.ndarray
    records: tuple[LabeledSample, ...]
    values: np.ndarray
    present: np.ndarray
    clean: tuple[bool, ...]

    @classmethod
    def build(cls, samples: Iterable[LabeledSample]) -> "_SampleColumns":
        records = tuple(samples)
        index = np.fromiter((s.index for s in records), dtype=np.int64, count=len(records))
        raw = [list(map(attrgetter(fld), records)) for fld in _SUM_FIELDS]
        present = np.array([[v is not None for v in vals] for vals in raw], dtype=bool)
        values = np.array([[math.nan if v is None else v for v in vals] for vals in raw],
                          dtype=float)
        clean = tuple((present & np.isfinite(values)).all(axis=1).tolist())
        for a in (index, values, present):
            a.flags.writeable = False
        return cls(index, records, values, present, clean)

    def gather(self, pos: np.ndarray, flds: Sequence[str]) -> np.ndarray:
        """:func:`extract_column` of the records at positions ``pos``."""
        _check_fields(flds)
        out = np.empty((len(flds), pos.size))
        for row, fld in zip(out, flds):
            r = _SUM_FIELDS.index(fld)
            # one 1-D gather per field keeps ``out`` C-ordered; a 2-D gather
            # would be F-ordered, and its row sums would not be pairwise
            row[:] = self.values[r][pos]
            if not self.clean[r]:
                present = self.present[r][pos]
                if not present.all():
                    raise ValueError(f"sample {self.index[pos[np.argmin(present)]]} has no {fld}")
                bad = np.flatnonzero(~np.isfinite(row))
                if bad.size:
                    raise ValueError(f"sample {self.index[pos[bad[0]]]} has non-finite "
                                     f"{fld} {row[bad[0]]}")
        return out


class SampleSubset(tuple):
    """Read-only sequence of some of a :class:`SampleSet`'s records that
    also carries its ``source`` set and their ``positions`` in the set's
    columns, so :func:`extract_column` gathers it without reading a record.
    Being a tuple, its positions cannot go stale.
    """

    def __new__(cls, source: "SampleSet", positions: np.ndarray):
        records = source._cols().records
        self = super().__new__(cls, map(records.__getitem__, positions.tolist()))
        self.source = source
        self.positions = positions
        return self

    def __reduce__(self):
        return SampleSubset, (self.source, self.positions)


class SampleSet:
    """Immutable index -> LabeledSample container with unique indices.

    On first use the set builds its summable fields as columns, once;
    from then on :meth:`column`, :func:`columns_at` and
    :func:`extract_column` of a :meth:`subset` read those columns by
    position, not the records. Construction does not build them.
    """

    def __init__(self, samples: Iterable[LabeledSample]):
        by_index: dict[int, LabeledSample] = {}
        for s in samples:
            if s.index in by_index:
                raise ValueError(f"duplicate sample index {s.index}")
            by_index[s.index] = s
        self._by_index = by_index
        self._columns: _SampleColumns | None = None

    def __getitem__(self, index: int) -> LabeledSample:
        return self._by_index[index]

    def __contains__(self, index: int) -> bool:
        return index in self._by_index

    def __len__(self) -> int:
        return len(self._by_index)

    def __iter__(self) -> Iterator[LabeledSample]:
        return iter(self._by_index.values())

    def _cols(self) -> _SampleColumns:
        cols = self._columns
        if cols is None:
            cols = self._columns = _SampleColumns.build(
                sorted(self._by_index.values(), key=attrgetter("index")))
        return cols

    def _positions(self, indices: Iterable[int]) -> np.ndarray:
        """Column positions of ``indices``; an unknown index is a ValueError."""
        index = self._cols().index
        idx = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices))
        if idx.dtype.kind not in "iu":  # not integers: look them up as a dict would
            idx = np.array([s.index for s in samples_at(self._by_index, idx.tolist())],
                           dtype=np.int64)
        pos = np.searchsorted(index, idx)
        known = pos < index.size
        known[known] = index[pos[known]] == idx[known]
        if not known.all():
            raise ValueError(f"unknown sample index {idx[np.argmin(known)]}")
        pos.flags.writeable = False
        return pos

    def subset(self, indices: Iterable[int]) -> SampleSubset:
        """The samples at ``indices``, in order, as a :class:`SampleSubset`
        (a tuple); an unknown index is a ValueError."""
        return SampleSubset(self, self._positions(indices))

    def column(self, indices: Iterable[int], fld: str) -> np.ndarray:
        """Extract one field over ``indices`` as a float array.

        Raises ValueError if the field is missing or not finite on any
        requested sample.
        """
        return columns_at(self, indices, fld)[0]


def samples_at(
    samples: Mapping[int, LabeledSample], indices: Iterable[int]
) -> list[LabeledSample]:
    """The samples at ``indices``, in order; an unknown index is a ValueError."""
    try:
        return [samples[i] for i in indices]
    except KeyError as exc:
        raise ValueError(f"unknown sample index {exc.args[0]}") from None


def columns_at(
    samples: Mapping[int, LabeledSample], indices: Iterable[int], *flds: str
) -> np.ndarray:
    """``extract_column(samples_at(samples, indices), *flds)``; a
    :class:`SampleSet` gathers from its columns and reads no record."""
    if isinstance(samples, SampleSet):
        return samples._cols().gather(samples._positions(indices), flds)
    return extract_column(samples_at(samples, np.asarray(indices).tolist()), *flds)


def _check_fields(flds: Sequence[str]) -> None:
    for fld in flds:
        if fld not in _SUM_FIELDS:
            raise ValueError(f"unknown field {fld!r}; expected one of {_SUM_FIELDS}")


def extract_column(samples: Sequence[LabeledSample], *flds: str) -> np.ndarray:
    """Fields ``flds`` of ``samples`` as the rows of a (len(flds), n) float array.

    A :class:`SampleSubset` is gathered from its set's columns by
    position, any other sequence from columns built in the order given.
    An unknown field, a sample missing a field, or a nan or infinite
    value raises ValueError, and a sample is named by its index.
    """
    if isinstance(samples, SampleSubset):
        return samples.source._cols().gather(samples.positions, flds)
    return _SampleColumns.build(samples).gather(np.arange(len(samples)), flds)


def check_alpha(alpha: float) -> None:
    """ValueError unless 0 < alpha < 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _check_finite(values: np.ndarray, where) -> None:
    """ValueError reading ``{where(*i)} {value} is not finite`` for the first
    nan or inf in ``values``, ``i`` being its index."""
    if not np.isfinite(values).all():
        i = tuple(np.argwhere(~np.isfinite(values))[0].tolist())
        raise ValueError(f"{where(*i)} {values[i]} is not finite")


def _finite_scores(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    return s


def kth_smallest(scores, alpha: float) -> np.ndarray:
    """Over the n scores along the last axis, the k-th smallest with
    k = ceil((1 + n) * (1 - alpha)), or +inf (the sentinel) when k > n.
    Scores may be signed; a non-finite one is a ValueError."""
    s = _finite_scores(scores)
    n = s.shape[-1]
    k = _ceil_rank(n, alpha)
    if k > n:
        return np.full(s.shape[:-1], math.inf)
    return np.partition(s, k - 1, axis=-1)[..., k - 1]


def _checked_scores(scores, alpha: float) -> np.ndarray:
    check_alpha(alpha)
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1:
        raise ValueError("scores must be one-dimensional")
    return s


def score_threshold(scores, alpha: float) -> Threshold:
    """k-th smallest score with k = ceil((1 + n) * (1 - alpha)); +inf if k > n.

    Accepts signed scores (quantile-regression scores may be negative).
    Use :func:`conformal_quantile` when scores are known non-negative.
    """
    s = _checked_scores(scores, alpha)
    return Threshold(float(kth_smallest(s, alpha)), alpha, s.size)


def leave_out_positions(leave_out, n: int) -> np.ndarray:
    """``leave_out`` as positions into a pool of ``n``; ValueError names one outside [0, n)."""
    t = np.asarray(leave_out, dtype=np.int64)
    bad = (t < 0) | (t >= n)
    if bad.any():
        raise ValueError(f"leave-out position {t[bad][0]} is outside [0, {n})")
    return t


def loo_thresholds(scores, alpha: float, leave_out) -> np.ndarray:
    """The threshold of ``scores`` without entry t, for each t in
    ``leave_out``, from one stable sort.

    With t removed from a pool of G scores, k = ceil(G * (1 - alpha)) and
    the k-th smallest survivor sits at sorted position k - 1 when t ranks
    at or after k, else at position k (the order-statistic trick of
    jackknife+). The +inf sentinel appended to the sorted scores is picked
    exactly when k exceeds G - 1.
    """
    s = _finite_scores(_checked_scores(scores, alpha))
    t = leave_out_positions(leave_out, s.size)
    order = np.argsort(s, kind="stable")
    srt = np.append(s[order], math.inf)
    pos = np.empty(s.size, dtype=np.int64)
    pos[order] = np.arange(s.size)
    k = _ceil_rank(s.size - 1, alpha)
    return srt[k - 1 + (pos[t] < k)]


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


def interval_bounds(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every method's bounds. Where a band padded by a negative threshold
    crosses, both become its midpoint: an empty prediction set keeps zero
    width and its near-certain miss. A NaN bound is a ValueError, as in
    :class:`IntervalPrediction`.

    Only a quantile band can cross. Split (c -/+ q), Bonferroni split
    (sums of such terms, added in one order) and normal (c + z * s with
    z_lo < 0 < z_hi, s >= 0) bands pad the same values by a non-negative
    amount, and rounding is monotone, so their lower bound never exceeds
    their upper one and the midpoint step leaves them unchanged.
    """
    crossed = lower > upper
    if crossed.any():
        lower, upper = lower.copy(), upper.copy()
        lower[crossed] = upper[crossed] = 0.5 * (lower[crossed] + upper[crossed])
    bad = np.flatnonzero(~(lower <= upper))
    if bad.size:
        t = bad[0]
        raise ValueError(f"target {t}: lower {lower[t]} exceeds upper {upper[t]}")
    return lower, upper


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------


@contextmanager
def _read_csv(path) -> Iterator[tuple[list[str], Iterator[tuple[int, list[str]]]]]:
    """Open a CSV as ``(header, rows)``: the stripped header, and an iterator
    of ``(line_no, row)`` over the non-blank rows.

    An empty file, a header that repeats a column name, and a row whose
    field count differs from the header's raise ValueError. ``line_no`` is
    the file's own line number, blank lines included. Rows are read
    lazily, so a loader can check the header before any row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        first: dict[str, int] = {}
        for col, name in enumerate(header, start=1):
            if name in first:
                raise ValueError(
                    f"{path}: column {name!r} repeated in the header "
                    f"(columns {first[name]} and {col})"
                )
            first[name] = col

        def rows():
            for row in reader:
                if not any(c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise ValueError(
                        f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                    )
                yield reader.line_num, row

        yield header, rows()


class _NotANumber(ValueError):
    """A CSV token that does not parse as the number asked for."""


def _parse_field(
    token: str, line_no: int, column: str, kind: type = float, finite: bool = True
):
    """CSV field ``token`` as a ``kind`` (int or float); ``column`` names it
    in errors, as in ``column 'c'``. A bad token raises ValueError reading
    ``line N: column 'c': 'tok' is not numeric | an integer`` (as
    :class:`_NotANumber`) or, for a nan or inf float unless ``finite`` is
    False, ``... is not finite``.
    """
    try:
        value = kind(token)
    except ValueError:
        what = "an integer" if kind is int else "numeric"
        raise _NotANumber(f"line {line_no}: {column}: {token!r} is not {what}") from None
    if kind is float and finite and not math.isfinite(value):
        raise ValueError(f"line {line_no}: {column}: {token!r} is not finite")
    return value
