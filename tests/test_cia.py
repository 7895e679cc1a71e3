import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciarith import cia, kernels
from ciarith.cia import (
    GroupSplitView,
    StrataSpec,
    cia_predict,
    overlap_delta_avg,
    overlap_delta_max,
    restrict_groups,
    split_groups,
    stratified_cia_predict,
    symmetric_split,
)
from ciarith.core import (
    IndexGroup,
    LabeledSample,
    SampleSet,
    SplitAssignment,
    group_csr,
    score_threshold,
)
from ciarith.graph import sample_path_groups
from ciarith.scoring import split_group_score
from conftest import make_grid_graph


def sample(idx, y=0.0, pred=0.0, lo=None, hi=None):
    return LabeledSample(index=idx, label=y, point_pred=pred, quant_lo=lo, quant_hi=hi)


class TestSymmetricSplit:
    def test_balanced_two_elements(self):
        a = symmetric_split({1, 2}, rng_seed=0, mode="balanced")
        assert len(a.cal) == 1 and len(a.test) == 1

    def test_balanced_sizes(self):
        a = symmetric_split(range(11), rng_seed=3, mode="balanced")
        assert len(a.cal) == 6 and len(a.test) == 5  # cal gets the larger half

    def test_deterministic(self):
        a = symmetric_split(range(100), rng_seed=42, mode="bernoulli")
        b = symmetric_split(range(100), rng_seed=42, mode="bernoulli")
        assert a == b
        c = symmetric_split(range(100), rng_seed=43, mode="bernoulli")
        assert a != c

    def test_bernoulli_concentration(self):
        sizes = []
        for seed in range(200):
            a = symmetric_split(range(1000), rng_seed=seed, mode="bernoulli")
            sizes.append(len(a.cal))
        assert 480 <= np.mean(sizes) <= 520

    def test_warns_when_calibration_smaller(self, caplog):
        # find a bernoulli draw with |cal| < |test|, then check the diagnostic
        for seed in range(50):
            a = symmetric_split(range(21), rng_seed=seed, mode="bernoulli")
            if len(a.cal) < len(a.test):
                break
        else:
            pytest.fail("no unbalanced draw found")
        with caplog.at_level(logging.WARNING, logger="ciarith.cia"):
            symmetric_split(range(21), rng_seed=seed, mode="bernoulli")
        assert any("smaller than test" in r.message for r in caplog.records)

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            symmetric_split([], rng_seed=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            symmetric_split({1}, rng_seed=0, mode="thirds")

    @pytest.mark.parametrize("seed, message", [
        (1.5, r"^rng_seed: 1\.5 is not an integer$"),
        (True, r"^rng_seed: True is not an integer$"),
        (-1, r"^rng_seed must be >= 0, got -1$"),
    ])
    def test_bad_seed_rejected_by_name(self, seed, message):
        with pytest.raises(ValueError, match=message):
            symmetric_split(range(10), rng_seed=seed)

    @pytest.mark.parametrize("universe, shown", [
        ([0.5, 1.5, 2.5], "0.5"), ([0, 1, 2.0], "2.0"), ([True, 2, 3], "True"),
        (np.array([0.5, 1.5]), "0.5"),
    ])
    def test_non_integer_index_rejected(self, universe, shown):
        with pytest.raises(ValueError, match=f"^universe index: {shown} is not an integer$"):
            symmetric_split(universe, 0)

    def test_generator_seed_is_used_as_is(self):
        assert symmetric_split(range(10), np.random.default_rng(4)) == symmetric_split(
            range(10), 4)


class TestSplitGroups:
    def test_intersections(self):
        groups = [IndexGroup(0, frozenset({1, 2, 3}))]
        a = SplitAssignment(cal=frozenset({1, 3}), test=frozenset({2}))
        (v,) = split_groups(groups, a)
        assert v.cal_members == (1, 3) and v.test_members == (2,)

    def test_group_fully_calibration(self):
        groups = [IndexGroup(0, frozenset({1, 3}))]
        a = SplitAssignment(cal=frozenset({1, 3}), test=frozenset({2}))
        (v,) = split_groups(groups, a)
        assert v.test_members == ()

    def test_group_fully_test_scores_zero(self):
        groups = [IndexGroup(0, frozenset({2}))]
        a = SplitAssignment(cal=frozenset({1, 3}), test=frozenset({2}))
        (v,) = split_groups(groups, a)
        assert v.cal_members == ()
        assert split_group_score([]) == 0.0

    def test_member_outside_universe_rejected(self):
        groups = [IndexGroup(0, frozenset({9}))]
        a = SplitAssignment(cal=frozenset({1}), test=frozenset({2}))
        with pytest.raises(ValueError, match="outside"):
            split_groups(groups, a)

    @pytest.mark.parametrize("cal, test, message", [
        ((3, 3), (), "group 3: cal side lists member 3 more than once"),
        ((1,), (4, 2, 4), "group 3: test side lists member 4 more than once"),
    ], ids=["cal", "test"])
    def test_view_side_repeating_a_member_rejected(self, cal, test, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GroupSplitView(3, cal_members=cal, test_members=test)

    def test_restrict_groups_drops_empty(self):
        groups = [IndexGroup(0, frozenset({1, 9})), IndexGroup(1, frozenset({9}))]
        kept = restrict_groups(groups, {1, 2})
        assert len(kept) == 1 and kept[0].members == {1}

    @pytest.mark.parametrize("group, message", [
        (IndexGroup(2.5, frozenset({1.5})), "group_id: 2.5 is not an integer"),
        (IndexGroup(2, frozenset({1, 1.5})), "group 2 member: 1.5 is not an integer"),
        (IndexGroup(2, frozenset({2.0})), "group 2 member: 2.0 is not an integer"),
        (IndexGroup(2, frozenset({True})), "group 2 member: True is not an integer"),
    ])
    def test_non_integer_group_id_or_member_rejected(self, group, message):
        # restrict_groups would drop member 1.5 silently, and a float member
        # equal to an index would pass the split
        assignment = SplitAssignment(cal=frozenset({0, 1}), test=frozenset({2}))
        for call in (lambda: restrict_groups([group], {0, 1, 2}),
                     lambda: split_groups([group], assignment)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
        with pytest.raises(ValueError, match=r"^group member: .* is not an integer$"):
            group_csr([sorted(group.members, key=float)])

    def test_view_sides_must_be_disjoint(self):
        with pytest.raises(ValueError, match="overlap"):
            GroupSplitView(0, cal_members=(1,), test_members=(1,))


def _pool_fixture():
    """Target group 0 (test-only) plus three cal-only groups scoring 1, 2, 3."""
    samples = SampleSet(
        [
            sample(1, y=1.0, pred=0.0),
            sample(2, y=2.0, pred=0.0),
            sample(3, y=3.0, pred=0.0),
            sample(10, y=4.0, pred=4.0),
            sample(11, y=7.0, pred=6.0),
        ]
    )
    views = [
        GroupSplitView(0, cal_members=(), test_members=(10, 11)),
        GroupSplitView(1, cal_members=(1,), test_members=()),
        GroupSplitView(2, cal_members=(2,), test_members=()),
        GroupSplitView(3, cal_members=(3,), test_members=()),
    ]
    return views, samples


class TestCiaPredict:
    def test_hand_computed_interval(self):
        views, samples = _pool_fixture()
        iv = cia_predict(views, samples, target_group=0, alpha=0.5, score_kind="split")
        assert (iv.lower, iv.upper) == (8.0, 12.0)  # Q = 2nd smallest of {1,2,3}

    def test_zero_residuals_collapse_to_point(self):
        samples = SampleSet(
            [sample(i, y=float(i), pred=float(i)) for i in range(1, 6)]
        )
        views = [
            GroupSplitView(0, cal_members=(), test_members=(4, 5)),
            GroupSplitView(1, cal_members=(1,), test_members=()),
            GroupSplitView(2, cal_members=(2, 3), test_members=()),
        ]
        iv = cia_predict(views, samples, 0, alpha=0.4)
        assert iv.lower == iv.upper == 9.0

    def test_single_calibration_group_gives_infinite_interval(self):
        samples = SampleSet([sample(1, y=1.0, pred=0.0), sample(2, y=0.0, pred=5.0)])
        views = [
            GroupSplitView(0, cal_members=(), test_members=(2,)),
            GroupSplitView(1, cal_members=(1,), test_members=()),
        ]
        iv = cia_predict(views, samples, 0, alpha=0.1)
        assert iv.lower == -math.inf and iv.upper == math.inf

    def test_target_own_score_excluded_from_pool(self):
        views, samples = _pool_fixture()
        # give the target a huge calibration side; Q must stay 2
        samples2 = SampleSet(list(samples) + [sample(99, y=100.0, pred=0.0)])
        views2 = [
            GroupSplitView(0, cal_members=(99,), test_members=(10, 11)),
            *views[1:],
        ]
        iv = cia_predict(views2, samples2, 0, alpha=0.5)
        assert (iv.lower, iv.upper) == (8.0, 12.0)

    @pytest.mark.parametrize("predict", [cia_predict, stratified_cia_predict])
    @pytest.mark.parametrize("container", [SampleSet, lambda s: {x.index: x for x in s}],
                             ids=["SampleSet", "dict"])
    @pytest.mark.parametrize("side", ["cal", "test"])
    def test_non_integer_member_is_an_unknown_index(self, predict, container, side):
        # the pool looks its calibration members up as the target's test
        # side is looked up: 1.5 is no sample index, not sample 1
        samples = container([sample(i, y=float(i), pred=0.0) for i in range(1, 7)])
        cal, test = ((1.5, 2), (3,)) if side == "cal" else ((1, 2), (1.5,))
        views = [
            GroupSplitView(0, cal_members=cal, test_members=test),
            GroupSplitView(1, cal_members=(4,), test_members=()),
            GroupSplitView(2, cal_members=(5, 6), test_members=()),
        ]
        with pytest.raises(ValueError, match=r"^unknown sample index 1\.5$"):
            predict(views, samples, 0, alpha=0.5)

    def test_unknown_target_rejected(self):
        views, samples = _pool_fixture()
        with pytest.raises(ValueError, match="not found"):
            cia_predict(views, samples, 77, alpha=0.5)

    @pytest.mark.parametrize("predict", [cia_predict, stratified_cia_predict])
    def test_repeated_target_rejected(self, predict):
        views, samples = _pool_fixture()
        twice = [*views, GroupSplitView(0, (), ())]
        with pytest.raises(ValueError, match="target group 0 appears 2 times among views"):
            predict(twice, samples, 0, alpha=0.5)

    @pytest.mark.parametrize("predict", [cia_predict, stratified_cia_predict])
    def test_repeated_non_target_id_rejected(self, predict):
        views, samples = _pool_fixture()
        # a second group 1 would put a score of 5 into the pool
        twice = [*views, GroupSplitView(1, cal_members=(2, 3), test_members=())]
        with pytest.raises(ValueError, match="^group 1 appears 2 times among views$"):
            predict(twice, samples, 0, alpha=0.5)

    def test_interval_symmetry_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n_groups = int(rng.integers(3, 8))
            samples = []
            views = []
            idx = 0
            for g in range(n_groups):
                cal = []
                for _ in range(int(rng.integers(0, 4))):
                    samples.append(sample(idx, y=float(rng.normal()), pred=float(rng.normal())))
                    cal.append(idx)
                    idx += 1
                test = []
                for _ in range(int(rng.integers(0, 4))):
                    samples.append(sample(idx, y=float(rng.normal()), pred=float(rng.normal())))
                    test.append(idx)
                    idx += 1
                views.append(GroupSplitView(g, tuple(cal), tuple(test)))
            ss = SampleSet(samples)
            target = views[0]
            iv = cia_predict(views, ss, 0, alpha=0.3)
            pred_sum = float(
                np.sum([ss[i].point_pred for i in sorted(target.test_members)])
            ) if target.test_members else 0.0
            pool = [
                split_group_score(ss.subset(v.cal_members))
                for v in views
                if v.group_id != 0
            ]
            # an empty test side sums to exactly 0, so its interval is [0, 0]
            q = score_threshold(pool, 0.3).value if target.test_members else 0.0
            assert iv.lower == pred_sum - q and iv.upper == pred_sum + q
            if math.isfinite(q):
                assert 0.5 * (iv.lower + iv.upper) == pytest.approx(pred_sum, abs=1e-9)

    def test_cqr_with_collapsed_bands_equals_split(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n_groups = int(rng.integers(2, 7))
            samples = []
            views = []
            idx = 0
            for g in range(n_groups):
                members = []
                for _ in range(int(rng.integers(1, 5))):
                    y = float(rng.normal())
                    p = float(rng.normal())
                    samples.append(sample(idx, y=y, pred=p, lo=p, hi=p))
                    members.append(idx)
                    idx += 1
                half = len(members) // 2
                views.append(GroupSplitView(g, tuple(members[:half]), tuple(members[half:])))
            ss = SampleSet(samples)
            tgt = next(v.group_id for v in views if v.test_members)
            iv_split = cia_predict(views, ss, tgt, alpha=0.25, score_kind="split")
            iv_cqr = cia_predict(views, ss, tgt, alpha=0.25, score_kind="cqr")
            assert iv_split.lower == iv_cqr.lower and iv_split.upper == iv_cqr.upper


class TestRankSwap:
    def test_swap_leaves_non_target_scores_bit_exact(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n_groups = int(rng.integers(2, 9))
            idx = 0
            groups = []
            samples = []
            for g in range(n_groups):
                members = []
                for _ in range(int(rng.integers(1, 6))):
                    samples.append(
                        sample(idx, y=float(rng.normal()), pred=float(rng.normal()))
                    )
                    members.append(idx)
                    idx += 1
                groups.append(IndexGroup(g, frozenset(members)))
            universe = list(range(idx))
            assignment = symmetric_split(universe, rng_seed=int(rng.integers(1 << 30)),
                                         mode="bernoulli")
            ss = SampleSet(samples)
            views = split_groups(groups, assignment)
            target = int(rng.integers(n_groups))

            tv = views[target]
            swapped = SplitAssignment(
                cal=(assignment.cal - set(tv.cal_members)) | set(tv.test_members),
                test=(assignment.test - set(tv.test_members)) | set(tv.cal_members),
            )
            views_swapped = split_groups(groups, swapped)

            before = [
                split_group_score(ss.subset(v.cal_members))
                for v in views
                if v.group_id != target
            ]
            after = [
                split_group_score(ss.subset(v.cal_members))
                for v in views_swapped
                if v.group_id != target
            ]
            assert before == after  # bit-exact, zero tolerance


    def test_swap_on_overlapping_paths_moves_only_intersecting_scores(self):
        # Theorem 2's slack: swapping the target's sides moves only the scores
        # of groups that share a member with it, at most delta_max * G of them
        graph = make_grid_graph(5)
        rng = np.random.default_rng(34)
        ss = SampleSet([
            sample(e.edge_id, y=float(rng.normal()), pred=float(rng.normal()))
            for e in graph.edges
        ])
        n_moved = 0
        for trial in range(25):
            paths = sample_path_groups(graph, 30, rng_seed=trial, min_path_len=2)
            groups = [p.as_index_group(g) for g, p in enumerate(paths)]
            assignment = symmetric_split([e.edge_id for e in graph.edges],
                                         rng_seed=100 + trial, mode="bernoulli")
            target = int(rng.integers(len(groups)))
            tv = split_groups(groups, assignment)[target]
            swapped = SplitAssignment(
                cal=(assignment.cal - set(tv.cal_members)) | set(tv.test_members),
                test=(assignment.test - set(tv.test_members)) | set(tv.cal_members),
            )
            before, after = (
                [split_group_score(ss.subset(v.cal_members)) for v in split_groups(groups, a)]
                for a in (assignment, swapped)
            )
            moved = {g for g in range(len(groups)) if g != target and before[g] != after[g]}
            for g, grp in enumerate(groups):
                if not grp.members & groups[target].members:
                    assert before[g] == after[g]  # bit-exact, zero tolerance
            # delta_max * G is the largest count of other groups meeting one group
            assert len(moved) <= round(overlap_delta_max(groups) * len(groups))
            n_moved += len(moved)
        assert n_moved > 0  # the paths overlap, so some scores do move


def range_bucket(cuts, size):
    """Bucket of ``size`` under the inclusive (lo, hi) ranges the cuts
    describe: (1, c1), (c1 + 1, c2), ..., (c_last + 1, open); size 0
    joins the first bucket."""
    lo = 1
    for j, c in enumerate(cuts):
        if lo <= size <= c:
            return j
        lo = c + 1
    return len(cuts) if size >= lo else 0


class TestStrataSpec:
    def test_validation(self):
        for cuts in [(0, 3), (-1,), (3, 3), (5, 2), (1, 4, 4)]:
            with pytest.raises(ValueError, match="positive and strictly increasing"):
                StrataSpec(cuts)
        with pytest.raises(ValueError, match="min_bucket_count"):
            StrataSpec((), min_bucket_count=0)

    def test_cuts_are_stored_as_an_int_tuple(self):
        want = StrataSpec(cuts=(2, 3))
        for cuts in ([2, 3], np.array([2, 3]), (np.int64(2), np.int32(3))):
            spec = StrataSpec(cuts=cuts)
            assert spec == want and hash(spec) == hash(want)
            assert type(spec.cuts) is tuple and all(type(c) is int for c in spec.cuts)
        assert StrataSpec((1,), min_bucket_count=np.int64(3)).min_bucket_count == 3

    @pytest.mark.parametrize("cuts, count, bad", [
        ((2.5,), 20, "cuts: 2.5 is"), ((1, 2.0), 20, "cuts: 2.0 is"),
        (np.array([1.0, 2.0]), 20, "cuts: np.float64(1.0) is"), (("2",), 20, "cuts: '2' is"),
        ((), 2.0, "min_bucket_count: 2.0 is"), ((), 0.5, "min_bucket_count: 0.5 is"),
        ((), True, "min_bucket_count: True is"), ((True,), 20, "cuts: True is"),
    ])
    def test_non_integer_cut_or_count_rejected(self, cuts, count, bad):
        with pytest.raises(ValueError, match=f"^{re.escape(bad)} not an integer$"):
            StrataSpec(cuts, min_bucket_count=count)

    def test_bucket_lookup(self):
        spec = StrataSpec(cuts=(2,), min_bucket_count=1)
        assert spec.n_buckets == 2
        # empty calibration sides join the first bucket
        assert spec.bucket_index_array([0, 1, 2, 3, 500]).tolist() == [0, 0, 0, 1, 1]
        assert StrataSpec(()).bucket_index_array([0, 1, 10**9]).tolist() == [0, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 40), max_size=6, unique=True),
           st.lists(st.integers(0, 60), min_size=1, max_size=30))
    def test_cuts_match_inclusive_ranges(self, cuts, sizes):
        spec = StrataSpec(tuple(sorted(cuts)))
        want = [range_bucket(spec.cuts, s) for s in sizes]
        assert spec.bucket_index_array(sizes).tolist() == want

    def test_from_cal_sizes_covers_everything(self):
        spec = StrataSpec.from_cal_sizes([1, 1, 2, 3, 5, 8, 13, 21])
        assert spec.cuts == (1, 3, 8)
        b = spec.bucket_index_array(range(30))
        assert b.min() == 0 and b.max() == spec.n_buckets - 1

    def test_from_degenerate_sizes_collapses_cuts(self):
        assert StrataSpec.from_cal_sizes([3, 3, 3, 3]).cuts == (3,)
        assert StrataSpec.from_cal_sizes([0, 0]) == StrataSpec(())

    def test_merged_range_prefers_bigger_neighbour(self):
        spec = StrataSpec(cuts=(1, 2), min_bucket_count=2)
        assert spec.merged_range([1, 2, 1], 0) == (0, 1)
        assert spec.merged_range([1, 1, 5], 1) == (1, 2)
        # tie prefers the lower bucket
        assert spec.merged_range([2, 1, 2], 1) == (0, 1)
        # single bucket left: returns the full window even if under the bound
        assert spec.merged_range([0, 0, 0], 1) == (0, 2)


class TestStratifiedPredict:
    def _make(self, cal_sizes, test_size, residual=1.0):
        samples = []
        views = []
        idx = 0
        for g, size in enumerate(cal_sizes, start=1):
            members = []
            for _ in range(size):
                samples.append(sample(idx, y=residual * (idx + 1), pred=0.0))
                members.append(idx)
                idx += 1
            views.append(GroupSplitView(g, tuple(members), ()))
        test_members = []
        for _ in range(test_size):
            samples.append(sample(idx, y=0.0, pred=1.0))
            test_members.append(idx)
            idx += 1
        views.insert(0, GroupSplitView(0, (), tuple(test_members)))
        return views, SampleSet(samples)

    def test_bucket_membership_filters_pool(self):
        views, ss = self._make(cal_sizes=[1, 2, 2, 5, 6], test_size=1)
        spec = StrataSpec(cuts=(2,), min_bucket_count=1)
        iv = stratified_cia_predict(views, ss, 0, alpha=0.5, strata=spec)
        # pool is the three small groups; Q = ceil(4*0.5)=2nd smallest of their scores
        scores = sorted(
            split_group_score(ss.subset(v.cal_members)) for v in views[1:4]
        )
        assert iv.upper - 1.0 == pytest.approx(scores[1], abs=1e-12)

    def test_single_bucket_matches_unstratified_bitwise(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            cal_sizes = rng.integers(0, 5, size=int(rng.integers(2, 7))).tolist()
            views, ss = self._make(cal_sizes=[c for c in cal_sizes], test_size=2)
            plain = cia_predict(views, ss, 0, alpha=0.3)
            strat = stratified_cia_predict(
                views, ss, 0, alpha=0.3, strata=StrataSpec(())
            )
            assert (plain.lower, plain.upper) == (strat.lower, strat.upper)

    def test_thin_bucket_merges_with_neighbour(self):
        # target test size 1 lands in an empty first bucket; the pool must
        # fall back to the merged neighbour instead of being empty
        views, ss = self._make(cal_sizes=[4, 4, 4], test_size=1)
        spec = StrataSpec(cuts=(2,), min_bucket_count=1)
        iv = stratified_cia_predict(views, ss, 0, alpha=0.5, strata=spec)
        scores = sorted(split_group_score(ss.subset(v.cal_members)) for v in views[1:])
        assert iv.upper - 1.0 == pytest.approx(scores[1], abs=1e-12)

    def test_no_pool_at_all_gives_infinite(self):
        # a lone target group has nothing to calibrate on
        samples = [sample(0, y=0.0, pred=1.0)]
        views = [GroupSplitView(0, (), (0,))]
        iv = stratified_cia_predict(
            views, SampleSet(samples), 0, alpha=0.2, strata=StrataSpec(())
        )
        assert iv.lower == -math.inf and iv.upper == math.inf

    @pytest.mark.parametrize("predict, kwargs", [
        (cia_predict, {}),
        (stratified_cia_predict, {}),
        (stratified_cia_predict, {"strata": StrataSpec(())}),
    ])
    def test_empty_test_side_gives_zero_after_the_checks(self, predict, kwargs):
        # group 1 has no test side, so its test-side sum is exactly 0; at
        # alpha 0.1 the two-group pool is too thin for a finite threshold
        views, ss = self._make(cal_sizes=[2, 2], test_size=1)
        iv = predict(views, ss, 1, alpha=0.1, **kwargs)
        assert (iv.lower, iv.upper) == (0.0, 0.0)
        with pytest.raises(ValueError, match="alpha"):
            predict(views, ss, 1, alpha=1.5, **kwargs)
        with pytest.raises(ValueError, match="target group 7 not found"):
            predict(views, ss, 7, alpha=0.1, **kwargs)
        with pytest.raises(ValueError, match="target group 1 appears 2 times"):
            predict([*views, GroupSplitView(1, (), ())], ss, 1, alpha=0.1, **kwargs)


def _record_split(seed=5, n=400, n_groups=50):
    """A record-api-shaped split: records with point predictions and
    nominal 90% bands, groups of uneven sizes split symmetrically, and two
    more views, one with an empty calibration side and one with an empty
    test side."""
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal(n)
    sigma = rng.uniform(0.5, 1.5, n)
    y = mean + sigma * rng.standard_normal(n)
    pred = mean + 0.1 * rng.standard_normal(n)
    records = [
        LabeledSample(index=i, label=float(y[i]), point_pred=float(pred[i]),
                      quant_lo=float(pred[i] - 1.645 * sigma[i]),
                      quant_hi=float(pred[i] + 1.645 * sigma[i]))
        for i in range(n)
    ]
    cuts = np.sort(rng.choice(np.arange(1, n), n_groups - 1, replace=False))
    groups = [IndexGroup(g, frozenset(c.tolist()))
              for g, c in enumerate(np.split(rng.permutation(n), cuts))]
    views = split_groups(groups, symmetric_split(range(n), seed))
    views += [GroupSplitView(n_groups, (), views[0].test_members),
              GroupSplitView(n_groups + 1, views[1].cal_members, ())]
    return views, records


def _outcome(predict, *args, **kwargs):
    """A call's bounds in hex, so equal means bit for bit, or its error text."""
    try:
        iv = predict(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return iv.lower.hex(), iv.upper.hex()


def _every_target(views, samples, kind="split"):
    """Both adapters' outcomes for every target; ``samples`` is called
    once per adapter call for the samples it gets."""
    return [
        _outcome(predict, views, samples(), v.group_id, 0.2, kind)
        for v in views
        for predict in (cia_predict, stratified_cia_predict)
    ]


class TestRecordPoolMemo:
    """A SampleSet keeps the last scored pool per kind for the same view
    objects in the same order; nothing else may change an interval."""

    ADAPTERS = [
        (cia_predict, {}),
        (stratified_cia_predict, {}),
        (stratified_cia_predict, {"strata": StrataSpec((3, 6), min_bucket_count=2)}),
    ]

    def test_shared_set_matches_dict_and_fresh_sets_bit_for_bit(self):
        views, records = _record_split()
        assert any(v.cal_size == 0 for v in views) and any(v.test_size == 0 for v in views)
        shared = SampleSet(records)
        by_index = {r.index: r for r in records}
        bounded = 0
        for v in views:
            for kind in ("split", "cqr"):
                for predict, kwargs in self.ADAPTERS:
                    args = (v.group_id, 0.2, kind)
                    got = _outcome(predict, views, shared, *args, **kwargs)
                    assert got == _outcome(predict, views, by_index, *args, **kwargs)
                    assert got == _outcome(predict, views, SampleSet(records), *args, **kwargs)
                    bounded += isinstance(got, tuple)
        # every call is bounded, an empty test side by [0, 0]
        assert bounded == 6 * len(views)

    def test_other_views_or_samples_are_rescored(self):
        views, records = _record_split()
        shared = SampleSet(records)

        def fresh(vs, recs=records, kind="split"):
            return _every_target(vs, lambda: SampleSet(recs), kind)

        before = _every_target(views, lambda: shared)
        assert before == fresh(views)
        # the same list object with a view appended
        views.append(GroupSplitView(99, views[7].cal_members + views[8].cal_members, ()))
        assert fresh(views) != before
        assert _every_target(views, lambda: shared) == fresh(views)
        # a copied list with one view replaced: same id, other calibration members
        replaced = list(views)
        replaced[2] = GroupSplitView(views[2].group_id, views[8].cal_members,
                                     views[2].test_members)
        assert fresh(replaced) != fresh(views)
        assert _every_target(replaced, lambda: shared) == fresh(replaced)
        # another set with equal indices and other labels
        shifted = [replace(r, label=r.label + 0.5 * r.index) for r in records]
        other = SampleSet(shifted)
        assert _every_target(views, lambda: shared) != fresh(views, shifted)
        assert _every_target(views, lambda: other) == fresh(views, shifted)
        # alternating score kinds
        for kind in ("split", "cqr", "split", "cqr"):
            assert _every_target(views, lambda: shared, kind) == fresh(views, kind=kind)
        for ss in (shared, other):
            assert set(ss._pools) <= {"split", "cqr"}
            assert all(not p.scores.flags.writeable for p in ss._pools.values())

    def _failures(self):
        views, records = _record_split()
        v = views[1]
        nan_records = [replace(r, label=math.nan) if r.index == v.cal_members[0] else r
                       for r in records]
        return views, records, [
            (views, records, 777, "split", "target group 777 not found among views"),
            ([*views, GroupSplitView(v.group_id, (), ())], records, 0, "split",
             f"group {v.group_id} appears 2 times among views"),
            (views, nan_records, 0, "split", f"sample {v.cal_members[0]} has non-finite label nan"),
            (views, records, 0, "bogus", "unknown score kind 'bogus'"),
            (views, records, 0, ["x"], "unknown score kind ['x']"),
        ]

    @pytest.mark.parametrize("case", range(5))
    @pytest.mark.parametrize("predict", [cia_predict, stratified_cia_predict])
    def test_failed_call_stores_nothing_and_fails_again_alike(self, predict, case):
        good_views, good_records, cases = self._failures()
        views, records, target, kind, message = cases[case]
        ss = SampleSet(records)
        texts = []
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(message)) as exc:
                predict(views, ss, target, 0.2, kind)
            texts.append(str(exc.value))
            assert ss._pools == {}
        assert texts[0] == texts[1]
        if records is good_records:  # a failed call leaves an earlier pool in place
            predict(good_views, ss, 0, 0.2, "split")
            kept = ss._pools["split"]
            with pytest.raises(ValueError, match=re.escape(message)):
                predict(views, ss, target, 0.2, kind)
            assert list(ss._pools) == ["split"] and ss._pools["split"] is kept

    @pytest.mark.parametrize("kind", ["split", "cqr"])
    def test_pool_scored_once_per_split_for_a_sample_set(self, monkeypatch, kind):
        calls = []
        scored = cia.per_group
        monkeypatch.setattr(cia, "per_group", lambda *a: calls.append(a) or scored(*a))
        views, records = _record_split()
        targets = [v.group_id for v in views if v.test_size > 0]
        for samples, want in ((SampleSet(records), 1),
                              ({r.index: r for r in records}, 2 * len(targets))):
            calls.clear()
            for g in targets:
                cia_predict(views, samples, g, 0.2, kind)
                stratified_cia_predict(views, samples, g, 0.2, kind)
            assert len(calls) == want


class TestOverlapDeltas:
    def test_disjoint_groups(self):
        groups = [IndexGroup(0, frozenset({1})), IndexGroup(1, frozenset({2}))]
        assert overlap_delta_max(groups) == 0.0
        assert overlap_delta_avg(groups) == 0.0

    def test_hand_computed_example(self):
        groups = [
            IndexGroup(0, frozenset({1, 2})),
            IndexGroup(1, frozenset({2, 3})),
            IndexGroup(2, frozenset({4})),
        ]
        assert overlap_delta_max(groups) == pytest.approx(1 / 3)
        assert overlap_delta_avg(groups) == pytest.approx(1 / 9)

    def test_identical_groups_have_unit_jaccard(self):
        groups = [IndexGroup(0, frozenset({1, 2})), IndexGroup(1, frozenset({1, 2}))]
        assert overlap_delta_avg(groups) == 1.0

    def test_common_index_gives_k_over_k_plus_one(self):
        k_plus_1 = 7
        groups = [
            IndexGroup(g, frozenset({0, 10 + g})) for g in range(k_plus_1)
        ]
        assert overlap_delta_max(groups) == pytest.approx((k_plus_1 - 1) / k_plus_1)

    def test_requires_two_groups(self):
        with pytest.raises(ValueError, match="two groups"):
            overlap_delta_max([IndexGroup(0, frozenset({1}))])
        with pytest.raises(ValueError, match="two groups"):
            overlap_delta_avg([IndexGroup(0, frozenset({1}))])

    def test_kernel_matches_naive_set_intersections(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            n_groups = int(rng.integers(2, 12))
            sets = [
                {int(v) for v in rng.choice(30, size=int(rng.integers(1, 8)), replace=False)}
                for _ in range(n_groups)
            ]
            offsets, members = group_csr(sorted(m) for m in sets)
            counts, jaccard_sum = kernels.pairwise_overlap_stats(offsets, members)
            expected_counts = [
                sum(1 for l, b in enumerate(sets) if l != k and a & b)
                for k, a in enumerate(sets)
            ]
            expected_jaccard = sum(
                len(a & b) / len(a | b)
                for k, a in enumerate(sets)
                for b in sets[k + 1:]
            )
            assert list(counts) == expected_counts
            assert jaccard_sum == pytest.approx(expected_jaccard, abs=1e-12)
