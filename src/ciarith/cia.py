"""Prediction intervals for group label sums via symmetric calibration.

The method splits the held-out indices into calibration and test sides,
scores every group on its calibration side, and turns the score pool into
an interval for a target group's unknown test-side sum. The target's own
calibration score never enters the pool: the validity argument swaps the
target's two sides and needs the pool to be unaffected by that swap.

Stratified prediction restricts the pool to groups whose calibration-side
size falls in the same size bucket as the target's test-side size, merging
adjacent buckets when a bucket is too thin to calibrate on.

The module has two layers. The array engine (:func:`interval_from_threshold`,
:func:`stratified_thresholds`, with the leave-one-out thresholds of
:mod:`ciarith.core`) computes the bounds of every target of a split at
once; the experiment harness calls it directly. For both score kinds
an interval is the target's summed band padded by its threshold (a split
band has zero width). The record adapters (:func:`cia_predict`,
:func:`stratified_cia_predict`) gather the fields of the calibration and
test members with :func:`~ciarith.core.columns_at`, by position from a
:class:`~ciarith.core.SampleSet`'s columns, run the engine for one
target, and wrap the result in an :class:`IntervalPrediction`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import kernels, scoring
from .core import (
    IndexGroup,
    IntervalPrediction,
    LabeledSample,
    SplitAssignment,
    check_alpha,
    columns_at,
    csr_offsets,
    group_csr,
    interval_bounds,
    kth_smallest,
    leave_out_positions,
    loo_thresholds,
    per_group,
)

__all__ = [
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
        object.__setattr__(self, "cal_members", tuple(sorted(self.cal_members)))
        object.__setattr__(self, "test_members", tuple(sorted(self.test_members)))
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
        if self.min_bucket_count < 1:
            raise ValueError("min_bucket_count must be >= 1")
        cuts = list(self.cuts)
        if cuts != sorted(set(cuts)) or min(cuts, default=1) < 1:
            raise ValueError(f"cuts must be positive and strictly increasing, got {self.cuts}")

    @classmethod
    def from_cal_sizes(cls, cal_sizes) -> "StrataSpec":
        """Cuts at the lower quartiles of the positive calibration-side
        sizes; equal cuts collapse, so fewer than four buckets may result."""
        sizes = np.asarray(cal_sizes, dtype=int)
        sizes = sizes[sizes > 0]
        cuts = np.quantile(sizes, (0.25, 0.5, 0.75), method="lower").tolist() if sizes.size else []
        return cls(tuple(sorted(set(map(int, cuts)))))

    @property
    def n_buckets(self) -> int:
        return len(self.cuts) + 1

    def bucket_index_array(self, sizes) -> np.ndarray:
        """The bucket of each size."""
        return np.searchsorted(self.cuts, np.asarray(sizes, dtype=int))

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


def symmetric_split(
    universe: Iterable[int], rng_seed: int, mode: str = "balanced"
) -> SplitAssignment:
    """Randomly assign held-out indices to calibration or test.

    ``bernoulli`` assigns each index independently with probability 1/2;
    ``balanced`` draws a uniform partition into halves of size ceil(n/2)
    (calibration) and floor(n/2). Deterministic for a fixed seed.
    """
    idx = np.array(sorted(set(universe)), dtype=np.int64)
    if idx.size == 0:
        raise ValueError("universe must be non-empty")
    rng = np.random.default_rng(rng_seed)
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


def interval_from_threshold(q, sums) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of each target: its summed band padded by its threshold.

    ``sums`` holds the test-side sums, one entry per target, of the fields
    the score kind sums: (pred,), a band of zero width, or (lo, hi).
    """
    return interval_bounds(sums[0] - q, sums[-1] + q)


def stratified_thresholds(
    scores, cal_sizes, test_sizes, leave_out, strata: StrataSpec, alpha: float
) -> np.ndarray:
    """Threshold of each target from the size-compatible part of the pool.

    ``scores`` and ``cal_sizes`` cover the pool's groups. Target i has
    test-side size ``test_sizes[i]`` and is pool group ``leave_out[i]``,
    whose own score is left out. Leaving a target out lowers the count of
    its own calibration bucket by one, so its merged bucket range depends
    only on (bucket of its test size, bucket of its calibration size):
    targets are grouped by that pair and each pair's pool is sorted once.
    """
    check_alpha(alpha)
    test_sizes = np.asarray(test_sizes, dtype=np.int64)
    if np.any(test_sizes < 1):
        raise ValueError("stratified prediction needs a non-empty test side")
    buckets = strata.bucket_index_array(cal_sizes)
    leave_out = leave_out_positions(leave_out, buckets.size)
    counts = np.bincount(buckets, minlength=strata.n_buckets)
    test_b = strata.bucket_index_array(test_sizes)
    own_b = buckets[leave_out]
    q = np.empty(leave_out.size)
    for j, b in set(zip(test_b.tolist(), own_b.tolist())):
        lo, hi = strata.merged_range(counts - (np.arange(counts.size) == b), j)
        pool = np.flatnonzero((buckets >= lo) & (buckets <= hi))
        sel = (test_b == j) & (own_b == b)
        if lo <= b <= hi:  # these targets sit in their own pool: leave each out
            q[sel] = loo_thresholds(scores[pool], alpha, np.searchsorted(pool, leave_out[sel]))
        else:
            q[sel] = kth_smallest(scores[pool], alpha)
    return q


# ---------------------------------------------------------------------------
# Record adapters
# ---------------------------------------------------------------------------


def _record_pool(views, samples, target_group, score_kind):
    """The target's position among ``views``, every view's calibration
    size and score, and the target's test-side sums as the rows of a
    (fields x 1) array."""
    at = [i for i, v in enumerate(views) if v.group_id == target_group]
    if not at:
        raise ValueError(f"target group {target_group} not found among views")
    if len(at) > 1:
        raise ValueError(f"target group {target_group} appears {len(at)} times among views")
    score, fields = scoring.score_kind(score_kind)
    cal = [v.cal_members for v in views]
    sizes = list(map(len, cal))
    members = np.fromiter(chain.from_iterable(cal), dtype=np.int64, count=sum(sizes))
    cols = columns_at(samples, members, *fields)
    scores = per_group(score, csr_offsets(sizes), np.arange(members.size), *cols)
    test = columns_at(samples, views[at[0]].test_members, *fields[1:])
    return at[0], sizes, scores, test.sum(axis=-1, keepdims=True)


def _prediction(group_id: int, alpha: float, lower, upper) -> IntervalPrediction:
    """The record API's interval from one-element bound arrays."""
    return IntervalPrediction(
        group_id=group_id, lower=float(lower[0]), upper=float(upper[0]), alpha=alpha
    )


def cia_predict(
    views: Sequence[GroupSplitView],
    samples: Mapping[int, LabeledSample],
    target_group: int,
    alpha: float,
    score_kind: str = "split",
) -> IntervalPrediction:
    """Interval for the target group's test-side label sum.

    Every group is scored on its calibration side and, as in the
    experiment harness, the target's own score is left out of the pool
    (empty calibration sides contribute score 0 and stay in it). With the
    ``split`` kind the interval is the predicted test sum plus/minus the
    threshold; with ``cqr`` the threshold pads the summed quantile band.
    """
    t, _, scores, sums = _record_pool(views, samples, target_group, score_kind)
    q = loo_thresholds(scores, alpha, [t])
    return _prediction(target_group, alpha, *interval_from_threshold(q, sums))


def stratified_cia_predict(
    views: Sequence[GroupSplitView],
    samples: Mapping[int, LabeledSample],
    target_group: int,
    alpha: float,
    score_kind: str = "split",
    strata: StrataSpec | None = None,
) -> IntervalPrediction:
    """Like :func:`cia_predict` but pools only size-compatible groups.

    The pool is restricted to groups whose calibration-side size falls in
    the bucket covering the target's test-side size; thin buckets merge
    with neighbours per the strata spec. Groups with an empty calibration
    side pool with the smallest-size bucket (score 0, as in the
    unstratified engine). The default strata are cut from the other
    groups' calibration sizes.
    """
    t, cal_sizes, scores, sums = _record_pool(views, samples, target_group, score_kind)
    if strata is None:
        strata = StrataSpec.from_cal_sizes(cal_sizes[:t] + cal_sizes[t + 1:])
    q = stratified_thresholds(scores, cal_sizes, [views[t].test_size], [t], strata, alpha)
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
