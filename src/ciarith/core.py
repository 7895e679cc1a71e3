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
import operator
from contextlib import contextmanager
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
        index = _index_array("sample index", (s.index for s in records))
        raw = [list(map(operator.attrgetter(fld), records)) for fld in _SUM_FIELDS]
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

    The record adapters of :mod:`ciarith.cia` keep their last scored pool
    per score kind in ``_pools``, reused only for the same view objects in
    the same order: views are frozen and the set immutable.
    """

    def __init__(self, samples: Iterable[LabeledSample]):
        by_index: dict[int, LabeledSample] = {}
        for s in samples:
            if s.index in by_index:
                raise ValueError(f"duplicate sample index {s.index}")
            by_index[s.index] = s
        self._by_index = by_index
        self._columns: _SampleColumns | None = None
        self._pools: dict = {}

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
                sorted(self._by_index.values(), key=operator.attrgetter("index")))
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


_PLAIN_INT = frozenset({int})


def _integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int: the one rule for every size, count, seed and id.
    A bool, or a value ``operator.index`` refuses (a float, even a whole
    one), is a ValueError ``{name}: {value!r} is not an integer``, and one
    below ``minimum`` is ``{name} must be >= {minimum}, got {value}``."""
    if type(value) is not int:  # a plain int, the common case, is taken as is
        try:
            if isinstance(value, (bool, np.bool_)):  # operator.index takes a bool
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{name}: {value!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _index_array(name: str, values) -> np.ndarray:
    """``values`` as an int64 array, each under :func:`_integer`'s rule, so a
    float or a bool is an error and never truncated. A signed-integer array
    is taken as is (as int64, not copied when it is one); plain ints cost
    one scan of their types."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values.astype(np.int64, copy=False)
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if not _PLAIN_INT.issuperset(map(type, values)):
        values = [_integer(name, v) for v in values]
    return np.array(values, dtype=np.int64)


def _check_group(group: IndexGroup) -> None:
    """:func:`_integer`'s rule on a group's id and each of its members."""
    _integer("group_id", group.group_id)
    if not _PLAIN_INT.issuperset(map(type, group.members)):
        for m in group.members:
            _integer(f"group {group.group_id} member", m)


def _rng(rng_seed) -> np.random.Generator:
    """A Generator as is, else one seeded with the int ``rng_seed`` >= 0."""
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    return np.random.default_rng(_integer("rng_seed", rng_seed, 0))


def _check_finite(values: np.ndarray, where) -> None:
    """ValueError reading ``{where(*i)} {value} is not finite`` for the first
    nan or inf in ``values``, ``i`` being its index."""
    if not np.isfinite(values).all():
        i = tuple(np.argwhere(~np.isfinite(values))[0].tolist())
        raise ValueError(f"{where(*i)} {values[i]} is not finite")


def _finite_scores(scores) -> np.ndarray:
    """``scores`` as a float array; a nan or inf is a ValueError reading
    ``score {position}: {value} is not finite``."""
    s = np.asarray(scores, dtype=float)
    _check_finite(s, lambda *i: f"score {i[0] if len(i) == 1 else i}:")
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


def positions_in(name: str, values, n: int) -> np.ndarray:
    """``values`` as positions into a sequence of ``n``, under :func:`_index_array`'s
    rule (a float or a bool is a ValueError naming it); one outside [0, n) is a
    ValueError reading ``{name} {p} is outside [0, {n})``."""
    t = _index_array(name, values)
    bad = (t < 0) | (t >= n)
    if bad.any():
        raise ValueError(f"{name} {t[bad][0]} is outside [0, {n})")
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
    t = positions_in("leave-out position", leave_out, s.size)
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
    return float(row_sum(extract_column(samples, fld)[0]))


# ---------------------------------------------------------------------------
# Groups as arrays: CSR offsets into a flat member array
# ---------------------------------------------------------------------------


def group_csr(member_lists: Iterable[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, members): group g's members are members[offsets[g]:offsets[g + 1]]."""
    chunks = [_index_array("group member", m) for m in member_lists]
    members = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return csr_offsets([c.size for c in chunks]), members


def csr_offsets(sizes) -> np.ndarray:
    """CSR offsets of groups with the given sizes."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def size_classes(offsets: np.ndarray, members: np.ndarray) -> tuple:
    """The size-class plan of CSR groups, for :func:`per_group`: one pair
    per group size m, (the positions of the groups of size m, their
    (groups x m) member rows), sizes ascending. A caller that reduces the
    same groups more than once builds the plan once."""
    sizes = np.diff(offsets)
    plan = []
    for m in np.unique(sizes).tolist():
        idx = np.flatnonzero(sizes == m)
        plan.append((idx, members[offsets[idx, None] + np.arange(m)]))
    return tuple(plan)


def per_group(reduce, plan: tuple, *cols) -> np.ndarray:
    """``reduce`` applied to every group's gathered member values, in group
    order, from the groups' :func:`size_classes` plan.

    Each column is gathered into a C-contiguous (groups x size) array per
    size class, and ``reduce`` maps those arrays to one value per row (a
    size-0 class gets empty rows). Row sums taken with :func:`row_sum`
    equal each group's own ``np.sum`` bit for bit, which ``np.bincount``
    and ``np.add.reduceat`` do not: they add in another order.
    """
    out = np.empty(sum(idx.size for idx, _ in plan))
    for idx, rows in plan:
        out[idx] = reduce(*(c[rows] for c in cols))
    return out


def row_sum(x: np.ndarray) -> np.ndarray:
    """``np.sum(x, axis=-1)`` of a C-contiguous float64 array, bit for bit,
    signed zeros, inf and overflow included (a nan's sign bit, which the
    hardware sets by operand order, is not pinned).

    numpy adds a row to its identity 0.0 by pairwise summation: left to
    right below 8 elements; from 8, eight accumulators (one per column
    modulo 8) combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    then the remaining columns left to right. Rows of at most 15 elements
    need one accumulator pass, and those adds are replayed here one column
    at a time over all rows: about n numpy calls, where numpy's one call
    pays about 15 ns a row. That wins from about 2n² rows on; fewer rows,
    longer rows (where strided column adds lose) and any other layout
    (which numpy may sum in another order) take numpy's own sum.
    """
    n = x.shape[-1]
    if n > 15 or x.size < 2 * n**3 or not x.flags.c_contiguous:
        return x.sum(axis=-1)
    if n < 8:
        res = np.zeros(x.shape[:-1])
        for i in range(n):
            res += x[..., i]
        return res
    res = (x[..., 0] + x[..., 1]) + (x[..., 2] + x[..., 3])
    res += (x[..., 4] + x[..., 5]) + (x[..., 6] + x[..., 7])
    for i in range(8, n):
        res += x[..., i]
    res += 0.0
    return res


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


def interval_from_threshold(q, sums) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of each target: its summed band padded by its threshold.

    ``sums`` holds the test-side sums, one entry per target, of the fields
    the score kind sums: (pred,), a band of zero width, or (lo, hi).
    """
    return interval_bounds(sums[0] - q, sums[-1] + q)


def _prediction(group_id: int, alpha: float, lower, upper) -> IntervalPrediction:
    """The record API's interval from one-element bound arrays."""
    return IntervalPrediction(
        group_id=group_id, lower=float(lower[0]), upper=float(upper[0]), alpha=alpha
    )


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------


@contextmanager
def _read_csv(path, required=()) -> Iterator[tuple[list[str], Iterator[tuple[int, list[str]]]]]:
    """Open a CSV as ``(header, rows)``: the stripped header, and an iterator
    of ``(line_no, row)`` over the non-blank rows.

    An empty file, a header that repeats a column name or lacks one of the
    ``required`` columns (the first missing one is named), and a row whose
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
        for name in required:
            if name not in first:
                raise ValueError(f"{path}: column {name!r} not found in header")

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


def _parse_field(
    token: str, line_no: int, column: str, kind: type = float, finite: bool = True
):
    """CSV field ``token`` as a ``kind`` (int or float); ``column`` names it
    in errors, as in ``column 'c'``. A bad token raises ValueError reading
    ``line N: column 'c': 'tok' is not numeric | an integer`` or, for a nan
    or inf float unless ``finite`` is False, ``... is not finite``.
    """
    try:
        value = kind(token)
    except ValueError:
        what = "an integer" if kind is int else "numeric"
        raise ValueError(f"line {line_no}: {column}: {token!r} is not {what}") from None
    if kind is float and finite and not math.isfinite(value):
        raise ValueError(f"line {line_no}: {column}: {token!r} is not finite")
    return value
