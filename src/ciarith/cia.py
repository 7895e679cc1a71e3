"""Prediction intervals for group label sums via symmetric calibration.

The method splits the held-out indices into calibration and test sides,
scores every group on its calibration side, and turns the score pool into
an interval for a target group's unknown test-side sum. The target's own
calibration score never enters the pool: the validity argument swaps the
target's two sides and needs the pool to be unaffected by that swap.

Stratified prediction restricts the pool to groups whose calibration-side
size falls in the same size bucket as the target's test-side size, merging
adjacent buckets when a bucket is too thin to calibrate on.

The module has two layers. The array engine (:func:`stratified_thresholds`,
the one place a CIA threshold is taken, whose one-bucket case is the
unstratified pool, and :func:`~ciarith.core.interval_from_threshold`)
computes the bounds of every target of a split at once; the experiment
harness calls it directly. For both score kinds an interval is the
target's summed band padded by its threshold (a split band has zero
width). The record adapter :func:`stratified_cia_predict` gathers the
fields of the calibration and test members with
:func:`~ciarith.core.columns_at`, by position from a
:class:`~ciarith.core.SampleSet`'s columns, runs the engine for one
target, and wraps the result in an :class:`IntervalPrediction`;
:func:`cia_predict` is that adapter with one bucket. As with every
record-level predictor, a target whose test side is empty gets [0, 0],
the exact sum of no labels, once alpha is checked and the target found
among the views. A split's pool is scored once: a ``SampleSet`` keeps
its last pool per score kind and reuses it while the views passed are
the same objects in the same order (an ``is`` test per view), so each
further target of that split pays only its own test-side sum and
threshold. A plain mapping is rescored on every call.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import kernels, scoring
from .core import (
    IndexGroup,
    IntervalPrediction,
    LabeledSample,
    SampleSet,
    SplitAssignment,
    _check_group,
    _checked_scores,
    _index_array,
    _integer,
    _prediction,
    _rng,
    check_alpha,
    columns_at,
    csr_offsets,
    group_csr,
    interval_from_threshold,
    kth_smallest,
    leave_out_positions,
    loo_thresholds,
    per_group,
    row_sum,
    size_classes,
)

__all__ = [
    "SPLIT_MODES",
    "GroupSplitView",
    "StrataSpec",
    "symmetric_split",
    "split_groups",
    "restrict_groups",
    "cia_predict",
    "stratified_cia_predict",
    "interval_from_threshold",
    "stratified_thresholds",
    "overlap_delta_max",
    "overlap_delta_avg",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GroupSplitView:
    """A group's members split into calibration and test sides.

    Member tuples are sorted ascending so that score sums are evaluated in
    a reproducible order.
    """

    group_id: int
    cal_members: tuple[int, ...]
    test_members: tuple[int, ...]

    def __post_init__(self):
        for side in ("cal", "test"):
            members = tuple(sorted(getattr(self, f"{side}_members")))
            object.__setattr__(self, f"{side}_members", members)
            repeated = [a for a, b in zip(members, members[1:]) if a == b]
            if repeated:
                raise ValueError(
                    f"group {self.group_id}: {side} side lists member {repeated[0]} more than once"
                )
        if set(self.cal_members) & set(self.test_members):
            raise ValueError(f"group {self.group_id}: cal and test sides overlap")

    @property
    def cal_size(self) -> int:
        return len(self.cal_members)

    @property
    def test_size(self) -> int:
        return len(self.test_members)


@dataclass(frozen=True)
class StrataSpec:
    """Integer size buckets cut at sorted points: bucket j holds the sizes
    s with ``cuts[j - 1] < s <= cuts[j]`` and the last is open-ended, so
    ``cuts=()`` is one bucket. Size 0 (an empty calibration side) lands in
    bucket 0, which makes one bucket reproduce the unstratified pool.

    A bucket whose score pool ends up thinner than ``min_bucket_count`` is
    merged with the adjacent bucket holding more groups (ties prefer the
    lower bucket) until the bound holds or a single bucket remains.
    """

    cuts: tuple[int, ...]
    min_bucket_count: int = 20

    def __post_init__(self):
        count = _integer("min_bucket_count", self.min_bucket_count, 1)
        cuts = tuple(_integer("cuts", c) for c in self.cuts)
        if list(cuts) != sorted(set(cuts)) or min(cuts, default=1) < 1:
            raise ValueError(f"cuts must be positive and strictly increasing, got {cuts}")
        object.__setattr__(self, "min_bucket_count", count)
        object.__setattr__(self, "cuts", cuts)

    @classmethod
    def from_cal_sizes(cls, cal_sizes) -> "StrataSpec":
        """Cuts at the lower quartiles of the positive calibration-side
        sizes; equal cuts collapse, so fewer than four buckets may result."""
        sizes = _sizes("calibration size", cal_sizes)
        sizes = sizes[sizes > 0]
        cuts = np.quantile(sizes, (0.25, 0.5, 0.75), method="lower").tolist() if sizes.size else []
        return cls(tuple(sorted(set(map(int, cuts)))))

    @property
    def n_buckets(self) -> int:
        return len(self.cuts) + 1

    def bucket_index_array(self, sizes) -> np.ndarray:
        """The bucket of each size; a scalar size gives a scalar bucket."""
        if np.isscalar(sizes):
            return self.bucket_index_array([sizes])[0]
        return np.searchsorted(self.cuts, _sizes("size", sizes))

    def merged_range(self, counts, j: int) -> tuple[int, int]:
        """Merge buckets around ``j`` until the pooled count meets the bound.

        ``counts`` holds the number of pool groups per bucket. Returns the
        inclusive (lo_bucket, hi_bucket) window of merged bucket indices.
        """
        counts = list(counts)
        lo = hi = j
        total = counts[j]
        while total < self.min_bucket_count and (lo > 0 or hi < len(counts) - 1):
            left = counts[lo - 1] if lo > 0 else -1
            right = counts[hi + 1] if hi < len(counts) - 1 else -1
            if left >= right:
                lo -= 1
                total += counts[lo]
            else:
                hi += 1
                total += counts[hi]
        return lo, hi


def _sizes(name: str, values) -> np.ndarray:
    """Sizes under :func:`~ciarith.core._index_array`'s rule (a float or a
    bool is a ValueError naming it); ValueError names a negative size."""
    sizes = _index_array(name, values)
    if sizes.min(initial=0) < 0:
        raise ValueError(f"{name} must be >= 0, got {sizes[sizes < 0][0]}")
    return sizes


# the modes :func:`symmetric_split` implements
SPLIT_MODES = ("balanced", "bernoulli")
_ONE_BUCKET = StrataSpec(())  # the unstratified pool: every group pools with every target


def symmetric_split(
    universe: Iterable[int], rng_seed: int, mode: str = "balanced"
) -> SplitAssignment:
    """Randomly assign held-out indices to calibration or test.

    ``bernoulli`` assigns each index independently with probability 1/2;
    ``balanced`` draws a uniform partition into halves of size ceil(n/2)
    (calibration) and floor(n/2). Deterministic for a fixed seed.
    """
    idx = np.unique(_index_array("universe index", universe))
    if idx.size == 0:
        raise ValueError("universe must be non-empty")
    rng = _rng(rng_seed)
    if mode == "balanced":
        perm = rng.permutation(idx.size)
        n_cal = (idx.size + 1) // 2
        cal = idx[perm[:n_cal]]
        test = idx[perm[n_cal:]]
    elif mode == "bernoulli":
        mask = rng.random(idx.size) < 0.5
        cal = idx[mask]
        test = idx[~mask]
    else:
        raise ValueError(f"unknown split mode {mode!r}")
    if cal.size < test.size:
        logger.warning(
            "calibration side (%d) smaller than test side (%d)", cal.size, test.size
        )
    return SplitAssignment(cal=frozenset(cal.tolist()), test=frozenset(test.tolist()))


def split_groups(
    groups: Sequence[IndexGroup], assignment: SplitAssignment
) -> list[GroupSplitView]:
    """Intersect every group with the calibration/test sides.

    Groups whose calibration side is empty still appear (cal_size 0); their
    score is the empty sum. Members outside the assignment universe are an
    error; use :func:`restrict_groups` first when groups may reach into the
    training set.
    """
    views = []
    universe = assignment.universe
    for g in groups:
        _check_group(g)
        outside = g.members - universe
        if outside:
            raise ValueError(
                f"group {g.group_id} has members outside the split universe: "
                f"{sorted(outside)[:5]}"
            )
        views.append(
            GroupSplitView(
                group_id=g.group_id,
                cal_members=tuple(g.members & assignment.cal),
                test_members=tuple(g.members & assignment.test),
            )
        )
    empty_cal = sum(1 for v in views if v.cal_size == 0)
    if empty_cal:
        logger.debug("%d of %d groups have an empty calibration side", empty_cal, len(views))
    return views


def restrict_groups(
    groups: Sequence[IndexGroup], universe: Iterable[int]
) -> list[IndexGroup]:
    """Drop members outside ``universe``; groups left empty are removed."""
    uni = frozenset(universe)
    out = []
    for g in groups:
        _check_group(g)
        kept = g.members & uni
        if kept:
            out.append(IndexGroup(group_id=g.group_id, members=kept))
    dropped = len(groups) - len(out)
    if dropped:
        logger.debug("restrict_groups dropped %d fully-outside groups", dropped)
    return out


# ---------------------------------------------------------------------------
# The array engine: thresholds and intervals for many targets at once
# ---------------------------------------------------------------------------


def stratified_thresholds(
    scores, cal_sizes, test_sizes, leave_out, strata: StrataSpec, alpha: float
) -> np.ndarray:
    """Threshold of each target from the size-compatible part of the pool.

    ``scores`` and ``cal_sizes`` (integers >= 0) cover the pool's groups.
    Target i has test-side size ``test_sizes[i]`` (an integer >= 1) and is
    pool group ``leave_out[i]``, whose own score is left out. Every spec
    checks all inputs and both length pairings before any threshold.

    One bucket is the unstratified pool: every target sits in it, so the
    result is :func:`~ciarith.core.loo_thresholds` of the whole pool, taken
    directly, since the merge below gives the same bits at two to three
    times the cost. Otherwise, leaving a target out lowers the count of its
    own calibration bucket by one, so its merged bucket range depends only
    on (bucket of its test size, bucket of its calibration size). Targets are
    grouped by that range and by whether their own bucket lies in it.
    """
    scores = _checked_scores(scores, alpha)
    cal_sizes = _sizes("calibration size", cal_sizes)
    test_sizes = _index_array("test size", test_sizes)
    if test_sizes.min(initial=1) < 1:
        raise ValueError("stratified prediction needs a non-empty test side")
    if scores.size != cal_sizes.size:
        raise ValueError(f"{scores.size} scores for {cal_sizes.size} calibration sizes")
    leave_out = _index_array("leave-out position", leave_out)
    if test_sizes.size != leave_out.size:
        raise ValueError(f"{test_sizes.size} test sizes for {leave_out.size} leave-out positions")
    if strata.n_buckets == 1:  # loo_thresholds checks the positions' range
        return loo_thresholds(scores, alpha, leave_out)
    leave_out = leave_out_positions(leave_out, scores.size)
    buckets = strata.bucket_index_array(cal_sizes)
    counts = np.bincount(buckets, minlength=strata.n_buckets)
    test_b, own_b, nb = strata.bucket_index_array(test_sizes), buckets[leave_out], counts.size
    key = np.empty((nb, nb), dtype=np.intp)  # per pair: (lo, hi, own bucket in it), packed
    for j, b in set(zip(test_b.tolist(), own_b.tolist())):
        lo, hi = strata.merged_range(counts - (np.arange(nb) == b), j)
        key[j, b] = (lo * nb + hi) * 2 + (lo <= b <= hi)
    target_key = key[test_b, own_b]
    q = np.empty(leave_out.size)
    for k in set(target_key.tolist()):
        (lo, hi), inside = divmod(k // 2, nb), k % 2
        pool = np.flatnonzero((buckets >= lo) & (buckets <= hi))
        sel = target_key == k
        if inside:  # these targets sit in their pool: leave each out
            q[sel] = loo_thresholds(scores[pool], alpha, np.searchsorted(pool, leave_out[sel]))
        else:
            q[sel] = kth_smallest(scores[pool], alpha)
    return q


# ---------------------------------------------------------------------------
# Record adapters
# ---------------------------------------------------------------------------


@dataclass
class _RecordPool:
    """A split's scored calibration pool for one score kind, and the
    default strata per own calibration size as targets ask for them."""

    views: tuple[GroupSplitView, ...]
    position: dict
    sizes: np.ndarray
    scores: np.ndarray
    strata: dict = field(default_factory=dict)


def _record_pool(views, samples, target_group, score_kind):
    """The split's pool (kept by a ``SampleSet``, as the module docstring
    says), the target's position in it, and the target's test-side sums
    as the rows of a (fields x 1) array."""
    score, fields = scoring.score_kind(score_kind)
    memo = samples._pools if isinstance(samples, SampleSet) else {}
    pool = memo.get(score_kind)
    kept = (pool is not None and len(views) == len(pool.views)
            and all(map(operator.is_, views, pool.views)))
    if not kept or target_group not in pool.position:  # rescoring raises not-found
        ids = [v.group_id for v in views]
        if target_group not in ids:
            raise ValueError(f"target group {target_group} not found among views")
        position = dict(zip(ids, range(len(ids))))
        if len(position) < len(ids):
            gid = next(g for i, g in enumerate(ids) if g in ids[:i])
            who = "target group" if gid == target_group else "group"
            raise ValueError(f"{who} {gid} appears {ids.count(gid)} times among views")
        cal = [v.cal_members for v in views]
        sizes = np.fromiter(map(len, cal), dtype=np.int64, count=len(cal))
        members = list(chain.from_iterable(cal))  # looked up as the test side is
        cols = columns_at(samples, members, *fields)
        plan = size_classes(csr_offsets(sizes), np.arange(len(members)))
        scores = per_group(score, plan, *cols)
        sizes.flags.writeable = scores.flags.writeable = False
        pool = memo[score_kind] = _RecordPool(tuple(views), position, sizes, scores)
    t = pool.position[target_group]
    test = columns_at(samples, views[t].test_members, *fields[1:])
    return pool, t, row_sum(test)[:, None]


def cia_predict(
    views: Sequence[GroupSplitView],
    samples: Mapping[int, LabeledSample],
    target_group: int,
    alpha: float,
    score_kind: str = "split",
) -> IntervalPrediction:
    """Interval for the target group's test-side label sum with every
    group in the pool: :func:`stratified_cia_predict` with one bucket."""
    return stratified_cia_predict(views, samples, target_group, alpha, score_kind, _ONE_BUCKET)


def stratified_cia_predict(
    views: Sequence[GroupSplitView],
    samples: Mapping[int, LabeledSample],
    target_group: int,
    alpha: float,
    score_kind: str = "split",
    strata: StrataSpec | None = None,
) -> IntervalPrediction:
    """Interval for the target group's test-side label sum from the
    size-compatible groups.

    Every group is scored on its calibration side and, as in the
    experiment harness, the target's own score is left out of the pool.
    The pool is restricted to groups whose calibration-side size falls in
    the bucket covering the target's test-side size; thin buckets merge
    with neighbours per the strata spec. Groups with an empty calibration
    side score 0 and pool with the smallest-size bucket. The default
    strata are cut from the other groups' calibration sizes. With the
    ``split`` kind the interval is the predicted test sum plus/minus the
    threshold; with ``cqr`` the threshold pads the summed quantile band.
    """
    check_alpha(alpha)
    pool, t, sums = _record_pool(views, samples, target_group, score_kind)
    if not views[t].test_members:  # the sum over an empty test side is exactly 0
        return _prediction(target_group, alpha, [0.0], [0.0])
    if strata is None:  # the other sizes are the pool's minus one copy of the own size
        own = int(pool.sizes[t])
        if own not in pool.strata:
            pool.strata[own] = StrataSpec.from_cal_sizes(np.delete(pool.sizes, t))
        strata = pool.strata[own]
    q = stratified_thresholds(pool.scores, pool.sizes, [views[t].test_size], [t], strata, alpha)
    return _prediction(target_group, alpha, *interval_from_threshold(q, sums))


# ---------------------------------------------------------------------------
# Overlap measures
# ---------------------------------------------------------------------------


def _overlap_deltas(offsets: np.ndarray, members: np.ndarray) -> tuple[float, float]:
    """(delta_avg, delta_max) of CSR groups from one pass of the overlap kernel."""
    n = offsets.size - 1
    if n < 2:
        raise ValueError("need at least two groups")
    counts, jaccard_sum = kernels.pairwise_overlap_stats(offsets, members)
    return float(jaccard_sum / (n * (n - 1) // 2)), float(np.max(counts) / n)


def overlap_delta_max(groups: Sequence[IndexGroup]) -> float:
    """Worst-case overlap: max over groups of the fraction of all groups
    (including itself in the denominator) that intersect it."""
    return _overlap_deltas(*group_csr(sorted(g.members) for g in groups))[1]


def overlap_delta_avg(groups: Sequence[IndexGroup]) -> float:
    """Mean pairwise Jaccard similarity over unordered group pairs."""
    return _overlap_deltas(*group_csr(sorted(g.members) for g in groups))[0]
