"""Prediction intervals for group label sums via symmetric calibration.

The engine splits the held-out indices into calibration and test sides,
scores every group on its calibration side, and turns the score pool into
an interval for the target group's unknown test-side sum. The target's own
calibration score never enters the pool: the validity argument swaps the
target's two sides and needs the pool to be unaffected by that swap.

Stratified prediction restricts the pool to groups whose calibration-side
size falls in the same size bucket as the target's test-side size, merging
adjacent buckets when a bucket is too thin to calibrate on.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import kernels
from .core import (
    IndexGroup,
    IntervalPrediction,
    LabeledSample,
    SplitAssignment,
    Threshold,
    extract_column,
    score_threshold,
)
from .scoring import cqr_score, split_score

__all__ = [
    "GroupSplitView",
    "StrataSpec",
    "symmetric_split",
    "split_groups",
    "restrict_groups",
    "cia_predict",
    "stratified_cia_predict",
    "overlap_delta_max",
    "overlap_delta_avg",
]

logger = logging.getLogger(__name__)

SCORE_KINDS = ("split", "cqr")


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
    """Contiguous integer buckets partitioning the positive group sizes.

    ``buckets`` is an ordered tuple of inclusive (lo, hi) ranges; the last
    range is open-ended (hi is None). A bucket whose score pool ends up
    thinner than ``min_bucket_count`` is merged with the adjacent bucket
    holding more groups (ties prefer the lower bucket) until the bound
    holds or a single bucket remains.
    """

    buckets: tuple[tuple[int, int | None], ...]
    min_bucket_count: int = 20

    def __post_init__(self):
        if self.min_bucket_count < 1:
            raise ValueError("min_bucket_count must be >= 1")
        if not self.buckets:
            raise ValueError("at least one bucket is required")
        lo0 = self.buckets[0][0]
        if lo0 != 1:
            raise ValueError("first bucket must start at 1")
        prev_hi = 0
        for pos, (lo, hi) in enumerate(self.buckets):
            if lo != prev_hi + 1:
                raise ValueError(f"bucket {pos} starts at {lo}, expected {prev_hi + 1}")
            last = pos == len(self.buckets) - 1
            if last:
                if hi is not None:
                    raise ValueError("last bucket must be open-ended")
                break
            if hi is None or hi < lo:
                raise ValueError(f"bucket {pos} has invalid upper bound {hi}")
            prev_hi = hi

    @classmethod
    def single(cls, min_bucket_count: int = 1) -> "StrataSpec":
        return cls(buckets=((1, None),), min_bucket_count=min_bucket_count)

    @classmethod
    def from_cal_sizes(
        cls, cal_sizes, n_buckets: int = 4, min_bucket_count: int = 20
    ) -> "StrataSpec":
        """Quantile-based buckets from observed calibration-side sizes.

        Cut points sit at the 1/n_buckets quantiles of the positive sizes;
        duplicate cuts collapse, so fewer buckets may result.
        """
        sizes = np.asarray(cal_sizes, dtype=int)
        sizes = sizes[sizes > 0]
        if sizes.size == 0 or n_buckets <= 1:
            return cls.single(min_bucket_count)
        qs = [j / n_buckets for j in range(1, n_buckets)]
        cuts = sorted(set(int(c) for c in np.quantile(sizes, qs, method="lower")))
        buckets: list[tuple[int, int | None]] = []
        lo = 1
        for c in cuts:
            if c >= lo:
                buckets.append((lo, c))
                lo = c + 1
        buckets.append((lo, None))
        return cls(buckets=tuple(buckets), min_bucket_count=min_bucket_count)

    def bucket_index(self, size: int) -> int:
        if size < 1:
            raise ValueError(f"no bucket covers size {size}")
        for j, (lo, hi) in enumerate(self.buckets):
            if size >= lo and (hi is None or size <= hi):
                return j
        raise ValueError(f"no bucket covers size {size}")  # pragma: no cover

    def bucket_index_array(self, sizes) -> np.ndarray:
        """Vector bucket lookup.

        Size 0 (a group with an empty calibration side) joins the first
        bucket: such groups stay in the pool of the unstratified engine,
        and keeping them here makes a single all-covering bucket reproduce
        it exactly.
        """
        sizes = np.asarray(sizes, dtype=int)
        out = np.zeros(sizes.shape, dtype=int)
        for j, (lo, hi) in enumerate(self.buckets):
            m = sizes >= lo if hi is None else (sizes >= lo) & (sizes <= hi)
            out[m] = j
        return out

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
# Score pools and intervals
# ---------------------------------------------------------------------------


def _view_score(
    view: GroupSplitView, samples: Mapping[int, LabeledSample], score_kind: str
) -> float:
    if score_kind == "split":
        y = extract_column(samples, view.cal_members, "label")
        y_hat = extract_column(samples, view.cal_members, "point_pred")
        return split_score(y, y_hat)
    if score_kind == "cqr":
        y = extract_column(samples, view.cal_members, "label")
        q_lo = extract_column(samples, view.cal_members, "quant_lo")
        q_hi = extract_column(samples, view.cal_members, "quant_hi")
        return cqr_score(y, q_lo, q_hi)
    raise ValueError(f"unknown score kind {score_kind!r}")


def interval_from_threshold(
    group_id: int,
    alpha: float,
    q_value: float,
    *,
    score_kind: str,
    pred_sum: float = 0.0,
    lo_sum: float = 0.0,
    hi_sum: float = 0.0,
) -> IntervalPrediction:
    """Build the interval for a target given its threshold and test sums.

    A strongly negative quantile-band threshold can cross the band endpoints
    (an empty prediction set); the interval then collapses to the zero-width
    midpoint, preserving both width and the near-certain miss.
    """
    if score_kind == "split":
        lower, upper = pred_sum - q_value, pred_sum + q_value
    elif score_kind == "cqr":
        lower, upper = lo_sum - q_value, hi_sum + q_value
        if lower > upper:
            mid = 0.5 * (lower + upper)
            logger.debug("group %d: empty quantile-band interval collapsed", group_id)
            lower = upper = mid
    else:
        raise ValueError(f"unknown score kind {score_kind!r}")
    return IntervalPrediction(group_id=group_id, lower=lower, upper=upper, alpha=alpha)


def _target_view(views: Sequence[GroupSplitView], target_group: int) -> GroupSplitView:
    for v in views:
        if v.group_id == target_group:
            return v
    raise ValueError(f"target group {target_group} not found among views")


def _test_sums(
    view: GroupSplitView, samples: Mapping[int, LabeledSample], score_kind: str
) -> dict[str, float]:
    if score_kind == "split":
        pred = extract_column(samples, view.test_members, "point_pred")
        return {"pred_sum": float(pred.sum()) if pred.size else 0.0}
    lo = extract_column(samples, view.test_members, "quant_lo")
    hi = extract_column(samples, view.test_members, "quant_hi")
    return {
        "lo_sum": float(lo.sum()) if lo.size else 0.0,
        "hi_sum": float(hi.sum()) if hi.size else 0.0,
    }


def cia_predict(
    views: Sequence[GroupSplitView],
    samples: Mapping[int, LabeledSample],
    target_group: int,
    alpha: float,
    score_kind: str = "split",
) -> IntervalPrediction:
    """Interval for the target group's test-side label sum.

    The score pool holds every *other* group's calibration score (empty
    calibration sides contribute score 0 and stay in the pool). With the
    ``split`` kind the interval is the predicted test sum plus/minus the
    threshold; with ``cqr`` the threshold pads the summed quantile band.
    """
    target = _target_view(views, target_group)
    pool = np.array(
        [_view_score(v, samples, score_kind) for v in views if v.group_id != target_group]
    )
    thr = score_threshold(pool, alpha)
    return interval_from_threshold(
        target_group, alpha, thr.value, score_kind=score_kind,
        **_test_sums(target, samples, score_kind),
    )


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
    unstratified engine).
    """
    target = _target_view(views, target_group)
    others = [v for v in views if v.group_id != target_group]
    if strata is None:
        strata = StrataSpec.from_cal_sizes([v.cal_size for v in others])
    scores = np.array([_view_score(v, samples, score_kind) for v in others])
    cal_sizes = np.array([v.cal_size for v in others], dtype=int)
    q_value = _stratified_threshold_value(
        scores, cal_sizes, target.test_size, strata, alpha
    )
    return interval_from_threshold(
        target_group, alpha, q_value, score_kind=score_kind,
        **_test_sums(target, samples, score_kind),
    )


def _stratified_threshold_value(
    scores: np.ndarray,
    cal_sizes: np.ndarray,
    target_test_size: int,
    strata: StrataSpec,
    alpha: float,
) -> float:
    if target_test_size < 1:
        raise ValueError("stratified prediction needs a non-empty test side")
    buckets = strata.bucket_index_array(cal_sizes)
    j = strata.bucket_index(target_test_size)
    counts = np.bincount(buckets, minlength=len(strata.buckets))
    lo_b, hi_b = strata.merged_range(counts, j)
    pool = scores[(buckets >= lo_b) & (buckets <= hi_b)]
    return score_threshold(pool, alpha).value


# ---------------------------------------------------------------------------
# Overlap measures
# ---------------------------------------------------------------------------


def _group_arrays(groups: Sequence[IndexGroup]) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.zeros(len(groups) + 1, dtype=np.int64)
    chunks = []
    for i, g in enumerate(groups):
        m = np.array(sorted(g.members), dtype=np.int64)
        chunks.append(m)
        offsets[i + 1] = offsets[i] + m.size
    members = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return offsets, members


def _overlap_deltas(groups: Sequence[IndexGroup]) -> tuple[float, float]:
    """(delta_avg, delta_max) from one pass of the pairwise overlap kernel."""
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    offsets, members = _group_arrays(groups)
    counts, jaccard_sum = kernels.pairwise_overlap_stats(offsets, members)
    n_pairs = len(groups) * (len(groups) - 1) // 2
    return float(jaccard_sum / n_pairs), float(np.max(counts) / len(groups))


def overlap_delta_max(groups: Sequence[IndexGroup]) -> float:
    """Worst-case overlap: max over groups of the fraction of all groups
    (including itself in the denominator) that intersect it."""
    return _overlap_deltas(groups)[1]


def overlap_delta_avg(groups: Sequence[IndexGroup]) -> float:
    """Mean pairwise Jaccard similarity over unordered group pairs."""
    return _overlap_deltas(groups)[0]
