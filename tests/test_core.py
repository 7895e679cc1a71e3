import math
from fractions import Fraction

import numpy as np
import pytest

from ciarith.core import (
    IndexGroup,
    IntervalPrediction,
    LabeledSample,
    SampleSet,
    SplitAssignment,
    Threshold,
    conformal_quantile,
    group_sum,
    score_threshold,
)


def sort_oracle(scores, alpha: Fraction) -> float:
    """Independent order-statistic oracle: full sort plus exact ceil."""
    n = len(scores)
    k = math.ceil((1 + n) * (1 - alpha))
    if k > n:
        return math.inf
    return sorted(scores)[k - 1]


class TestConformalQuantile:
    def test_middle_order_statistic(self):
        assert conformal_quantile([3.0, 1.0, 2.0], 0.5).value == 2.0

    def test_single_score_returns_infinity(self):
        thr = conformal_quantile([5.0], 0.1)
        assert thr.value == math.inf
        assert thr.is_infinite

    def test_all_zero_scores(self):
        assert conformal_quantile([0, 0, 0, 0], 0.9).value == 0.0

    def test_empty_scores_give_infinity(self):
        assert conformal_quantile([], 0.2).value == math.inf

    def test_matches_sort_oracle_on_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            a = int(rng.integers(1, 51))  # alpha in {0.01, ..., 0.50}
            if rng.random() < 0.3:
                scores = rng.integers(0, 5, size=n).astype(float)  # force ties
            else:
                scores = rng.uniform(0, 10, size=n)
            alpha = Fraction(a, 100)
            expected = sort_oracle(scores.tolist(), alpha)
            got = conformal_quantile(scores, float(alpha)).value
            assert got == expected, (n, a, scores)

    def test_sentinel_rule_exhaustive(self):
        # +inf exactly when ceil((1+n)(1-alpha)) > n, for n <= 30 on the 0.01 grid
        for n in range(0, 31):
            scores = list(np.linspace(0.0, 1.0, n))
            for a in range(1, 100):
                alpha = Fraction(a, 100)
                k = math.ceil((1 + n) * (1 - alpha))
                thr = conformal_quantile(scores, float(alpha))
                assert thr.is_infinite == (k > n), (n, a)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            scores = rng.uniform(0, 5, size=int(rng.integers(1, 40)))
            a1, a2 = sorted(rng.uniform(0.01, 0.99, size=2))
            q1 = conformal_quantile(scores, a1).value
            q2 = conformal_quantile(scores, a2).value
            assert q1 >= q2

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        scores = rng.uniform(0, 5, size=23)
        base = conformal_quantile(scores, 0.13).value
        for _ in range(20):
            assert conformal_quantile(rng.permutation(scores), 0.13).value == base

    def test_rejects_negative_scores(self):
        with pytest.raises(ValueError, match="non-negative"):
            conformal_quantile([1.0, -0.1], 0.2)

    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValueError, match="finite"):
            conformal_quantile([1.0, math.nan], 0.2)
        with pytest.raises(ValueError, match="finite"):
            conformal_quantile([1.0, math.inf], 0.2)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            conformal_quantile([1.0], alpha)

    def test_exact_integer_rank_not_bumped_by_float_noise(self):
        # (1+9)(1-0.1) is exactly 9; float rounding must not push the rank to 10
        thr = conformal_quantile(list(range(1, 10)), 0.1)
        assert thr.value == 9.0
        assert not thr.is_infinite


class TestScoreThreshold:
    def test_accepts_negative_scores(self):
        assert score_threshold([-3.0, -1.0, -2.0], 0.5).value == -2.0

    def test_threshold_invariant_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            Threshold(value=1.0, alpha=0.1, n=1)  # rank 2 > n forces +inf
        with pytest.raises(ValueError, match="inconsistent"):
            Threshold(value=math.inf, alpha=0.5, n=10)


class TestGroupSum:
    def test_labels(self):
        samples = [LabeledSample(0, label=1.0), LabeledSample(1, label=2.5)]
        assert group_sum(samples, "label") == 3.5

    def test_empty_sum_is_zero(self):
        assert group_sum([], "label") == 0.0

    def test_cancelling_predictions(self):
        samples = [
            LabeledSample(0, point_pred=-1.0),
            LabeledSample(1, point_pred=1.0),
        ]
        assert group_sum(samples, "point_pred") == 0.0

    def test_missing_field_is_an_error(self):
        with pytest.raises(ValueError, match="has no label"):
            group_sum([LabeledSample(0, point_pred=1.0)], "label")

    def test_unknown_field_is_an_error(self):
        with pytest.raises(ValueError, match="unknown field"):
            group_sum([], "nope")


class TestDomainTypes:
    def test_quantile_band_must_be_ordered(self):
        with pytest.raises(ValueError, match="quant_lo"):
            LabeledSample(0, quant_lo=2.0, quant_hi=1.0)
        LabeledSample(0, quant_lo=1.0, quant_hi=1.0)  # equal is fine

    def test_index_group_needs_members(self):
        with pytest.raises(ValueError, match="no members"):
            IndexGroup(group_id=0, members=frozenset())

    def test_split_assignment_disjoint(self):
        with pytest.raises(ValueError, match="overlap"):
            SplitAssignment(cal=frozenset({1, 2}), test=frozenset({2, 3}))
        a = SplitAssignment(cal=frozenset({1}), test=frozenset({2}))
        assert a.universe == {1, 2}

    def test_interval_ordering(self):
        with pytest.raises(ValueError, match="exceeds"):
            IntervalPrediction(group_id=0, lower=1.0, upper=0.0, alpha=0.1)
        iv = IntervalPrediction(group_id=0, lower=-math.inf, upper=math.inf, alpha=0.1)
        assert iv.covers(1e12) and iv.width == math.inf

    def test_sample_set_rejects_duplicate_indices(self):
        with pytest.raises(ValueError, match="duplicate"):
            SampleSet([LabeledSample(1), LabeledSample(1)])

    def test_sample_set_lookup_and_column(self):
        ss = SampleSet([LabeledSample(3, label=1.0), LabeledSample(5, label=2.0)])
        assert ss[5].label == 2.0
        assert list(ss.column([5, 3], "label")) == [2.0, 1.0]
        with pytest.raises(ValueError, match="unknown sample index"):
            ss.column([4], "label")
