import logging
import math

import numpy as np
import pytest

from ciarith import scoring
from ciarith.baselines import (
    IQR_TO_SD,
    bonferroni_predict,
    group_sampling_predict,
    group_sampling_threshold,
    normal_hetero_iqr_predict,
    normal_homoscedastic_predict,
)
from ciarith.core import LabeledSample, score_threshold
from ciarith.experiments import _seeded_permutations, derive_seed

# alpha chosen so z_{1-alpha/2} = 1 exactly (two-sided standard-normal level)
ALPHA_Z1 = 0.31731050786291415


def mk(idx, y=0.0, pred=0.0, lo=None, hi=None):
    return LabeledSample(index=idx, label=y, point_pred=pred, quant_lo=lo, quant_hi=hi)


def split_cp_oracle(cal, test, alpha):
    """Textbook single-label split conformal prediction, written independently."""
    scores = sorted(abs(s.label - s.point_pred) for s in cal)
    k = math.ceil((1 + len(scores)) * (1 - alpha))
    q = math.inf if k > len(scores) else scores[k - 1]
    return test.point_pred - q, test.point_pred + q


class TestGroupSampling:
    def _cal(self, n, rng):
        return [
            mk(i, y=float(rng.normal()), pred=float(rng.normal())) for i in range(n)
        ]

    def test_singletons_reduce_to_split_cp_bitwise(self):
        rng = np.random.default_rng(10)
        for trial in range(25):
            cal = self._cal(int(rng.integers(5, 60)), rng)
            test = mk(999, y=0.0, pred=float(rng.normal()))
            iv = group_sampling_predict(cal, [test], 0.1, "split", K=len(cal),
                                        rng_seed=trial)
            lo, hi = split_cp_oracle(cal, test, 0.1)
            assert (iv.lower, iv.upper) == (lo, hi)

    def test_constant_residuals_give_two_r_halfwidth(self):
        r = 0.5
        cal = [mk(i, y=1.0 + r, pred=1.0) for i in range(40)]
        test = [mk(100, pred=2.0), mk(101, pred=3.0)]
        iv = group_sampling_predict(cal, test, 0.1, "split", rng_seed=0)
        assert iv.lower == pytest.approx(5.0 - 2 * r, abs=1e-12)
        assert iv.upper == pytest.approx(5.0 + 2 * r, abs=1e-12)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(11)
        cal = self._cal(30, rng)
        test = [mk(100, pred=0.0), mk(101, pred=1.0), mk(102, pred=2.0)]
        a = group_sampling_predict(cal, test, 0.2, "split", rng_seed=5)
        b = group_sampling_predict(cal, test, 0.2, "split", rng_seed=5)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_requested_k_reduced_with_diagnostic(self, caplog):
        rng = np.random.default_rng(12)
        cal = self._cal(10, rng)
        test = [mk(100, pred=0.0), mk(101, pred=0.0), mk(102, pred=0.0)]
        with caplog.at_level(logging.WARNING, logger="ciarith.baselines"):
            group_sampling_predict(cal, test, 0.2, "split", K=99, rng_seed=0)
        assert any("reduced" in r.message for r in caplog.records)

    def test_insufficient_calibration_names_required_count(self):
        cal = [mk(0, y=0.0, pred=0.0)]
        test = [mk(10, pred=0.0), mk(11, pred=0.0)]
        with pytest.raises(ValueError, match="at least 2"):
            group_sampling_predict(cal, test, 0.2, "split", rng_seed=0)

    def test_cqr_kind_uses_band_sums(self):
        cal = [mk(i, y=0.0, lo=-1.0, hi=1.0) for i in range(20)]
        test = [mk(100, lo=0.0, hi=2.0)]
        iv = group_sampling_predict(cal, test, 0.5, "cqr", rng_seed=3)
        # every sampled group scores -1; interval is [0-(-1), 2+(-1)]
        assert (iv.lower, iv.upper) == (1.0, 1.0)


def per_target_thresholds(cols, sizes, alpha, kind, K, seeds):
    """The one-target-at-a-time loop the batched core replaced: a fresh
    generator, permutation and ``score_threshold`` per target."""
    score, _ = scoring.score_kind(kind)
    n_cal = cols[0].size
    out = []
    for m, seed in zip(sizes, seeds):
        if n_cal // m == 0:
            raise ValueError("too few calibration samples")
        if K is not None and K < 1:
            raise ValueError("K below 1")
        k = n_cal // m if K is None else min(K, n_cal // m)
        chunks = np.random.default_rng(seed).permutation(n_cal)[: k * m].reshape(k, m)
        out.append(score_threshold(score(*(c[chunks] for c in cols)), alpha).value)
    return np.array(out)


class TestGroupSamplingBatched:
    """``group_sampling_threshold`` over many targets against the per-target loop."""

    def _cols(self, rng, n_cal, kind):
        y = rng.normal(size=n_cal)
        if kind == "split":
            return [y, y + rng.normal(scale=0.5, size=n_cal)]
        lo = y - rng.uniform(0.0, 2.0, n_cal)
        return [y, lo, lo + rng.uniform(0.0, 3.0, n_cal)]

    def _both(self, cols, sizes, alpha, kind, K, seeds):
        """(batched through the reused generator, batched through fresh
        generators, per-target loop); a ValueError of any side propagates."""
        words = np.array([[s & 0xFFFFFFFF, s >> 32] for s in seeds], dtype=np.uint32)
        n_cal = cols[0].size
        score, _ = scoring.score_kind(kind)
        return (
            group_sampling_threshold(cols, sizes, alpha, score, K,
                                     _seeded_permutations(words, n_cal)),
            group_sampling_threshold(
                cols, sizes, alpha, score, K,
                lambda t: np.random.default_rng(seeds[t]).permutation(n_cal)),
            per_target_thresholds(cols, sizes, alpha, kind, K, seeds),
        )

    @pytest.mark.parametrize("kind", ["split", "cqr"])
    @pytest.mark.parametrize("K", [None, 1, 3, 1000])
    def test_mixed_sizes_match_per_target_loop_bitwise(self, kind, K):
        rng = np.random.default_rng(31)
        groups_per_target = []
        for trial in range(12):
            n_cal = int(rng.integers(20, 90))
            sizes = rng.integers(1, 12, size=int(rng.integers(1, 40)))
            alpha = float(rng.choice([0.05, 0.1, 0.3, 0.7]))
            seeds = [derive_seed(trial, 3, 1, t) for t in range(sizes.size)]
            seeds[0] = 2**64 - 1  # a two-word seed with every bit set
            got, fresh, want = self._both(self._cols(rng, n_cal, kind), sizes, alpha, kind, K,
                                          seeds)
            assert got.tobytes() == want.tobytes() == fresh.tobytes(), (trial, K)
            groups_per_target.extend((n_cal // sizes).tolist())
        # K = 3 is above floor(n_cal / m) for some targets and below it for others
        assert min(groups_per_target) < 3 < max(groups_per_target)

    def test_infinite_thresholds_where_k_exceeds_the_draws(self):
        rng = np.random.default_rng(32)
        cols = self._cols(rng, 30, "split")
        got, _, want = self._both(cols, [10, 2, 10], 0.1, "split", None, [4, 5, 6])
        # three groups of 10 cannot reach rank ceil(4 * 0.9) = 4; fifteen of 2 can
        assert got.tobytes() == want.tobytes()
        assert np.isinf(got).tolist() == [True, False, True]

    def test_size_above_calibration_count_raises(self):
        rng = np.random.default_rng(33)
        cols = self._cols(rng, 8, "split")
        with pytest.raises(ValueError):
            per_target_thresholds(cols, [3, 9], 0.2, "split", None, [1, 2])
        with pytest.raises(ValueError, match="at least 9 calibration samples, have 8"):
            group_sampling_threshold(cols, [3, 9], 0.2, scoring.split_score, None,
                                     lambda t: np.random.default_rng(t).permutation(8))

    @pytest.mark.parametrize("kind", ["split", "cqr"])
    def test_non_finite_score_raises(self, kind):
        cols = self._cols(np.random.default_rng(34), 12, kind)
        cols[0][5] = np.inf  # sizes 1 and 4 draw every calibration row
        with pytest.raises(ValueError, match="finite"):
            per_target_thresholds(cols, [1, 4], 0.2, kind, None, [7, 8])
        with pytest.raises(ValueError, match="finite"):
            group_sampling_threshold(cols, [1, 4], 0.2, scoring.score_kind(kind)[0], None,
                                     lambda t: np.random.default_rng(t).permutation(12))

    def test_k_below_one_raises(self):
        cols = self._cols(np.random.default_rng(35), 10, "split")
        with pytest.raises(ValueError, match="K must be at least 1"):
            group_sampling_threshold(cols, [2], 0.2, scoring.split_score, 0,
                                     lambda t: np.random.default_rng(t).permutation(10))


class TestNormalHomoscedastic:
    def test_unit_sigma_two_halfwidth(self):
        # residuals {1, -1, 0}: sum sq = 2, divisor 2, sigma = 1
        cal = [mk(0, y=1.0, pred=0.0), mk(1, y=-1.0, pred=0.0), mk(2, y=0.0, pred=0.0)]
        test = [mk(10, pred=1.0), mk(11, pred=2.0), mk(12, pred=3.0), mk(13, pred=4.0)]
        iv = normal_homoscedastic_predict(cal, test, ALPHA_Z1)
        assert iv.lower == pytest.approx(10.0 - 2.0, abs=1e-9)
        assert iv.upper == pytest.approx(10.0 + 2.0, abs=1e-9)

    def test_zero_residuals_collapse(self):
        cal = [mk(i, y=1.0, pred=1.0) for i in range(5)]
        iv = normal_homoscedastic_predict(cal, [mk(10, pred=3.0)], 0.1)
        assert iv.lower == iv.upper == 3.0

    def test_symmetric_about_prediction_sum(self):
        rng = np.random.default_rng(13)
        cal = [mk(i, y=float(rng.normal()), pred=float(rng.normal())) for i in range(30)]
        test = [mk(100 + i, pred=float(rng.normal())) for i in range(4)]
        iv = normal_homoscedastic_predict(cal, test, 0.07)
        center = sum(s.point_pred for s in test)
        assert iv.upper - center == pytest.approx(center - iv.lower, abs=1e-9)

    def test_needs_two_calibration_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            normal_homoscedastic_predict([mk(0, y=1.0, pred=0.0)], [mk(1, pred=0.0)], 0.1)

    def test_undercovers_heavy_tails_with_small_calibration(self):
        # t(3) noise with a small calibration set: the typical variance
        # estimate is too low, so nominal 90% intervals miss too often
        rng = np.random.default_rng(14)
        n_cal, m, trials = 12, 5, 800
        hits = 0
        for _ in range(trials):
            cal = [mk(i, y=float(rng.standard_t(3)), pred=0.0) for i in range(n_cal)]
            test = [mk(100 + j, pred=0.0) for j in range(m)]
            iv = normal_homoscedastic_predict(cal, test, 0.1)
            hits += iv.covers(float(rng.standard_t(3, size=m).sum()))
        assert hits / trials < 0.9


class TestNormalHeteroIqr:
    def test_unit_sigma_from_iqr(self):
        cal = [mk(0, y=0.0, pred=0.0), mk(1, y=0.0, pred=0.0)]
        test = [mk(10, pred=5.0)]
        iv = normal_hetero_iqr_predict(
            cal, test, ALPHA_Z1, quantile_predictor=lambda s: (0.0, IQR_TO_SD)
        )
        assert iv.lower == pytest.approx(4.0, abs=1e-9)
        assert iv.upper == pytest.approx(6.0, abs=1e-9)

    def test_three_four_five_variance_addition(self):
        cal = [mk(0, y=0.0, pred=0.0), mk(1, y=0.0, pred=0.0)]
        sig = {10: 3.0, 11: 4.0}
        test = [mk(10, pred=0.0), mk(11, pred=0.0)]
        iv = normal_hetero_iqr_predict(
            cal, test, ALPHA_Z1,
            quantile_predictor=lambda s: (0.0, sig[s.index] * IQR_TO_SD),
        )
        assert iv.upper == pytest.approx(5.0, abs=1e-9)

    def test_zero_iqr_collapses(self):
        cal = [mk(0, y=0.0, pred=0.0), mk(1, y=0.0, pred=0.0)]
        iv = normal_hetero_iqr_predict(
            cal, [mk(10, pred=7.0)], 0.1, quantile_predictor=lambda s: (1.0, 1.0)
        )
        assert iv.lower == iv.upper == 7.0

    def test_inverted_iqr_clamped_with_diagnostic(self, caplog):
        cal = [mk(0, y=0.0, pred=0.0), mk(1, y=0.0, pred=0.0)]
        with caplog.at_level(logging.WARNING, logger="ciarith.baselines"):
            iv = normal_hetero_iqr_predict(
                cal, [mk(10, pred=1.0)], 0.1, quantile_predictor=lambda s: (2.0, 1.0)
            )
        assert iv.lower == iv.upper == 1.0
        assert any("clamped" in r.message for r in caplog.records)


class TestBonferroni:
    def test_single_test_sample_equals_split_cp(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            cal = [
                mk(i, y=float(rng.normal()), pred=float(rng.normal()))
                for i in range(int(rng.integers(5, 50)))
            ]
            test = mk(999, pred=float(rng.normal()))
            iv = bonferroni_predict(cal, [test], 0.1, "split")
            lo, hi = split_cp_oracle(cal, test, 0.1)
            assert (iv.lower, iv.upper) == (lo, hi)

    def test_hand_computed_two_sample_correction(self):
        # 199 residuals 1..199; level 0.05 per sample -> 190th smallest = 190
        cal = [mk(i, y=float(i + 1), pred=0.0) for i in range(199)]
        test = [mk(500, pred=10.0), mk(501, pred=20.0)]
        iv = bonferroni_predict(cal, test, 0.1, "split")
        assert iv.lower == pytest.approx(30.0 - 2 * 190.0, abs=1e-9)
        assert iv.upper == pytest.approx(30.0 + 2 * 190.0, abs=1e-9)

    def test_small_calibration_gives_infinite_interval(self):
        cal = [mk(i, y=1.0, pred=0.0) for i in range(5)]
        test = [mk(10, pred=0.0), mk(11, pred=0.0), mk(12, pred=0.0)]
        iv = bonferroni_predict(cal, test, 0.1, "split")
        assert iv.lower == -math.inf and iv.upper == math.inf

    def test_cqr_kind(self):
        cal = [mk(i, y=0.0, lo=-1.0, hi=1.0) for i in range(60)]
        test = [mk(100, lo=-2.0, hi=2.0), mk(101, lo=0.0, hi=1.0)]
        iv = bonferroni_predict(cal, test, 0.2, "cqr")
        # all per-sample scores are -1; threshold at any level is -1
        assert (iv.lower, iv.upper) == (-2.0 + 2.0, 3.0 - 2.0)

    def test_coverage_at_least_nominal_on_iid_data(self):
        rng = np.random.default_rng(16)
        trials, hits = 500, 0
        for _ in range(trials):
            cal = [mk(i, y=float(rng.normal()), pred=0.0) for i in range(60)]
            test = [mk(100 + j, pred=0.0) for j in range(3)]
            iv = bonferroni_predict(cal, test, 0.1, "split")
            hits += iv.covers(float(rng.normal(size=3).sum()))
        assert hits / trials >= 0.9 - 0.03

    def test_wider_than_engine_needs(self):
        # union-bound correction pays in width: per-sample level alpha/m
        rng = np.random.default_rng(17)
        cal = [mk(i, y=float(rng.normal()), pred=0.0) for i in range(300)]
        test = [mk(1000 + j, pred=0.0) for j in range(4)]
        bonf = bonferroni_predict(cal, test, 0.1, "split")
        assert bonf.width > 0


class TestEdgeCases:
    def test_empty_test_side_gives_point_interval_at_zero(self):
        rng = np.random.default_rng(18)
        cal = [mk(i, y=float(rng.normal()), pred=0.0, lo=-1.0, hi=1.0) for i in range(10)]
        for iv in [
            group_sampling_predict(cal, [], 0.1, "split", rng_seed=0),
            normal_homoscedastic_predict(cal, [], 0.1),
            normal_hetero_iqr_predict(cal, [], 0.1, quantile_predictor=lambda s: (0, 1)),
            bonferroni_predict(cal, [], 0.1, "split"),
        ]:
            assert (iv.lower, iv.upper) == (0.0, 0.0)

    def test_empty_test_side_needs_no_calibration(self):
        # with fewer calibration samples than any method needs, an empty
        # target still gets the point interval from every adapter
        for cal in ([], [mk(0, y=1.0, pred=0.0, lo=-1.0, hi=1.0)]):
            for iv in [
                group_sampling_predict(cal, [], 0.1, "split", rng_seed=0),
                normal_homoscedastic_predict(cal, [], 0.1, group_id=3),
                bonferroni_predict(cal, [], 0.1, "split"),
            ]:
                assert (iv.lower, iv.upper) == (0.0, 0.0)

    @pytest.mark.parametrize("alpha, kind, message", [
        (1.5, "bogus", r"^alpha must be in \(0, 1\), got 1\.5$"),
        (-2, "x", r"^alpha must be in \(0, 1\), got -2$"),
        (7.0, "split", r"^alpha must be in \(0, 1\), got 7\.0$"),
        (0.1, "bogus", r"^unknown score kind 'bogus'$"),
    ], ids=["alpha-above-one", "negative-alpha", "alpha-seven", "unknown-kind"])
    def test_empty_test_side_still_checks_alpha_and_kind(self, alpha, kind, message):
        cal = [mk(i, y=1.0, pred=0.0, lo=-1.0, hi=1.0) for i in range(10)]
        calls = [
            lambda: group_sampling_predict(cal, [], alpha, kind),
            lambda: bonferroni_predict(cal, [], alpha, kind),
        ]
        if kind == "split":  # the normal intervals take no score kind
            calls += [
                lambda: normal_homoscedastic_predict(cal, [], alpha),
                lambda: normal_hetero_iqr_predict(cal, [], alpha, lambda s: (0.0, 1.0)),
            ]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("quartiles, which, bad", [
        ((math.nan, 1.0), "lower", math.nan),
        ((-1.0, math.inf), "upper", math.inf),
    ], ids=["nan-lower", "inf-upper"])
    def test_non_finite_quartile_names_sample_and_quartile(self, quartiles, which, bad):
        test = [mk(10, pred=0.0), mk(11, pred=0.0)]
        predictor = lambda s: quartiles if s.index == 11 else (-1.0, 1.0)  # noqa: E731
        with pytest.raises(ValueError, match=rf"^sample 11 has non-finite {which} quartile {bad}$"):
            normal_hetero_iqr_predict([], test, 0.1, predictor, group_id=4)

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            cal = [
                mk(i, y=float(rng.normal()), pred=float(rng.normal()),
                   lo=float(v := rng.normal() - 1), hi=float(v + rng.uniform(0, 2)))
                for i in range(n)
            ]
            m = int(rng.integers(1, 5))
            test = [
                mk(100 + j, pred=float(rng.normal()),
                   lo=float(v := rng.normal() - 1), hi=float(v + rng.uniform(0, 2)))
                for j in range(m)
            ]
            alpha = float(rng.uniform(0.05, 0.5))
            for iv in [
                group_sampling_predict(cal, test, alpha, "split", rng_seed=1),
                group_sampling_predict(cal, test, alpha, "cqr", rng_seed=1),
                normal_homoscedastic_predict(cal, test, alpha),
                bonferroni_predict(cal, test, alpha, "split"),
                bonferroni_predict(cal, test, alpha, "cqr"),
            ]:
                assert iv.lower <= iv.upper
