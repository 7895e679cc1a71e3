import math
import pickle
import re
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciarith.core import (
    _SUM_FIELDS,
    _parse_field,
    IndexGroup,
    IntervalPrediction,
    LabeledSample,
    SampleSet,
    SampleSubset,
    SplitAssignment,
    Threshold,
    columns_at,
    conformal_quantile,
    csr_offsets,
    extract_column,
    group_csr,
    group_sum,
    interval_bounds,
    kth_smallest,
    per_group,
    row_sum,
    samples_at,
    score_threshold,
    size_classes,
)


def sort_oracle(scores, alpha: Fraction) -> float:
    """Independent order-statistic oracle: full sort plus exact ceil."""
    n = len(scores)
    k = math.ceil((1 + n) * (1 - alpha))
    if k > n:
        return math.inf
    return sorted(scores)[k - 1]


class TestParseField:
    @pytest.mark.parametrize("token, kind, message", [
        ("abc", float, "line 7: column 'c': 'abc' is not numeric"),
        ("1.5", int, "line 7: column 'c': '1.5' is not an integer"),
        ("nan", int, "line 7: column 'c': 'nan' is not an integer"),
        ("-inf", float, "line 7: column 'c': '-inf' is not finite"),
    ])
    def test_bad_token_message(self, token, kind, message):
        with pytest.raises(ValueError) as err:
            _parse_field(token, 7, "column 'c'", kind)
        assert str(err.value) == message

    def test_parses_int_and_float(self):
        value = _parse_field(" 12 ", 1, "column 'c'", int)
        assert value == 12 and type(value) is int
        assert _parse_field("-2.5e1", 1, "column 'c'") == -25.0

    def test_non_finite_floats_only_on_request(self):
        assert _parse_field("inf", 1, "column 'c'", finite=False) == math.inf
        assert math.isnan(_parse_field("nan", 1, "column 'c'", finite=False))
        with pytest.raises(ValueError, match="'x' is not numeric"):
            _parse_field("x", 1, "column 'c'", finite=False)


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
    @pytest.mark.parametrize("scores, where", [
        ([1.0, math.nan, 2.0], "score 1: nan"),
        ([1.0, 2.0, -math.inf], "score 2: -inf"),
        ([[1.0, 2.0], [3.0, math.inf]], "score (1, 1): inf"),
    ])
    def test_non_finite_score_is_named_by_position(self, scores, where):
        with pytest.raises(ValueError, match=rf"^{re.escape(where)} is not finite$"):
            kth_smallest(scores, 0.1)

    def test_accepts_negative_scores(self):
        assert score_threshold([-3.0, -1.0, -2.0], 0.5).value == -2.0

    def test_threshold_invariant_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            Threshold(value=1.0, alpha=0.1, n=1)  # rank 2 > n forces +inf
        with pytest.raises(ValueError, match="inconsistent"):
            Threshold(value=math.inf, alpha=0.5, n=10)


# ---------------------------------------------------------------------------
# One bounds rule: only a quantile band padded by a negative threshold crosses
# ---------------------------------------------------------------------------

# far from overflow, so no sum of them is infinite or nan
_VALUES = st.floats(min_value=-1e100, max_value=1e100)
_PADS = st.floats(min_value=0.0, max_value=1e100) | st.just(math.inf)
_ALPHAS = st.floats(min_value=1e-6, max_value=1 - 1e-6)


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _unchanged(lower, upper):
    got = interval_bounds(lower, upper)
    return _same_bits(got[0], lower) and _same_bits(got[1], upper)


class TestIntervalBounds:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_VALUES, min_size=1, max_size=8), _PADS)
    def test_split_band_is_unchanged(self, pred, q):
        pred = np.array(pred)
        assert _unchanged(pred - q, pred + q)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(_VALUES, min_size=1, max_size=12), min_size=1, max_size=6), _PADS)
    def test_bonferroni_split_sums_are_unchanged(self, groups, q):
        offsets, members = group_csr(
            range(start, start + len(g))
            for start, g in zip(np.cumsum([0] + [len(g) for g in groups]), groups)
        )
        pred = np.concatenate(groups)
        plan = size_classes(offsets, members)
        assert _unchanged(per_group(lambda c: row_sum(c - q), plan, pred),
                          per_group(lambda c: row_sum(c + q), plan, pred))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_VALUES, _PADS), min_size=1, max_size=8), _ALPHAS)
    def test_normal_interval_is_unchanged(self, rows, alpha):
        center, spread = np.array(rows).T
        z = NormalDist().inv_cdf
        assert _unchanged(center + z(alpha / 2) * spread, center + z(1 - alpha / 2) * spread)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_VALUES, _PADS), min_size=1, max_size=8),
           st.floats(min_value=-1e100, max_value=1e100))
    def test_crossed_quantile_band_becomes_its_midpoint(self, bands, q):
        lo, width = np.array(bands).T
        lower, upper = lo - q, (lo + width) + q
        got_lower, got_upper = interval_bounds(lower, upper)
        crossed = lower > upper
        mid = 0.5 * (lower + upper)
        assert _same_bits(got_lower, np.where(crossed, mid, lower))
        assert _same_bits(got_upper, np.where(crossed, mid, upper))

    def test_crossed_band_example_and_nan(self):
        lower, upper = interval_bounds(np.array([1.0, 3.0]), np.array([2.0, 1.0]))
        assert lower.tolist() == [1.0, 2.0] and upper.tolist() == [2.0, 2.0]
        with pytest.raises(ValueError, match="^target 1: lower nan exceeds upper 1.0$"):
            interval_bounds(np.array([0.0, math.nan]), np.array([1.0, 1.0]))


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


# ---------------------------------------------------------------------------
# Group sums: row_sum replays np.sum's adds; per_group reduces through a plan
# ---------------------------------------------------------------------------

_SPECIAL = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1.7e308, -1.7e308, 5e-324])


def _same_sums(got, want):
    """Equal bit for bit but for a nan's sign bit, which operand order sets."""
    got, want = np.asarray(got), np.asarray(want)
    real = ~np.isnan(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got)[real], np.signbit(want)[real]))


def _order_sensitive_arrays(rng, shape):
    """Arrays of ``shape`` whose row sums depend on the order of the adds:
    mixed magnitudes, then with specials (±0, ±inf, nan, 1.7e308), signed
    zeros with every third row all -0.0, and sums that overflow."""
    mixed = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
    special = mixed.copy()
    hit = rng.random(shape) < 0.05
    special[hit] = rng.choice(_SPECIAL, hit.sum())
    zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    if zeros.size:
        zeros.reshape(-1, shape[-1])[::3] = -0.0
    overflow = np.where(rng.random(shape) < 0.3, 1.7e308, mixed)
    return mixed, special, zeros, overflow


class TestRowSum:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_equals_numpy_sum_bit_for_bit_at_every_length(self, ndim):
        # lengths on both sides of 8, of the 16 where np.sum takes over, of
        # 128 (numpy's pairwise block) and of every multiple of 8; rows of
        # up to 15 elements take the column adds from 2n^2 rows on
        rng = np.random.default_rng(ndim)
        for n in range(301):
            rows = 2 * n * n + 5 if n < 16 else 9
            shapes = {1: [(n,)], 2: [(rows, n), (4, n)], 3: [(3, rows // 3 + 1, n), (2, 2, n)]}
            for shape in shapes[ndim]:
                for x in _order_sensitive_arrays(rng, shape):
                    with np.errstate(over="ignore", invalid="ignore"):
                        got, want = row_sum(x), np.sum(x, axis=-1)
                    assert _same_sums(got, want), (n, shape)

    def test_other_layouts_go_to_numpy_sum(self):
        x = np.asfortranarray(_order_sensitive_arrays(np.random.default_rng(1), (300, 12))[0])
        assert _same_sums(row_sum(x), np.sum(x, axis=-1))


class TestPerGroup:
    def test_plan_reduces_each_group_as_its_own_sum(self):
        rng = np.random.default_rng(8)
        sizes = rng.integers(0, 20, 3000)  # about 150 groups of each size, size 0 included
        offsets = csr_offsets(sizes)
        members = rng.integers(0, 500, offsets[-1])
        a, b = _order_sensitive_arrays(rng, (2, 500))[0]
        plan = size_classes(offsets, members)
        assert [rows.shape[1] for _, rows in plan] == list(range(20))
        groups = [members[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
        want = np.array([np.sum(a[g]) for g in groups])
        assert per_group(row_sum, plan, a).tobytes() == want.tobytes()
        want = np.array([np.sum(a[g] - b[g]) for g in groups])
        assert per_group(lambda x, y: row_sum(x - y), plan, a, b).tobytes() == want.tobytes()

    def test_no_groups(self):
        plan = size_classes(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert plan == () and per_group(row_sum, plan, np.ones(3)).shape == (0,)


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


# ---------------------------------------------------------------------------
# The columnar gather against a record-by-record reading
# ---------------------------------------------------------------------------

_FINITE = st.floats(min_value=-1e6, max_value=1e6)
# mostly finite, sometimes absent or non-finite
_FIELD = st.one_of(_FINITE, _FINITE, _FINITE, st.none(),
                   st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def _records(draw):
    out = []
    for i in draw(st.lists(st.integers(-5, 40), unique=True, max_size=12)):
        label, pred, lo, hi = (draw(_FIELD) for _ in range(4))
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        out.append(LabeledSample(i, label=label, point_pred=pred, quant_lo=lo, quant_hi=hi))
    return out


def _read_records(samples, flds):
    """The fields read one record at a time, with extract_column's errors."""
    for fld in flds:
        if fld not in _SUM_FIELDS:
            raise ValueError(f"unknown field {fld!r}; expected one of {_SUM_FIELDS}")
    out = np.empty((len(flds), len(samples)))
    for row, fld in zip(out, flds):
        for k, s in enumerate(samples):
            v = getattr(s, fld)
            if v is None:
                raise ValueError(f"sample {s.index} has no {fld}")
            row[k] = v
        bad = [k for k, v in enumerate(row) if not math.isfinite(v)]
        if bad:
            raise ValueError(f"sample {samples[bad[0]].index} has non-finite {fld} {row[bad[0]]}")
    return out


def _outcome(fn):
    """The array ``fn`` returns, or the message of the ValueError it raises."""
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


def _same(got, want):
    if isinstance(want, str):
        return got == want
    return isinstance(got, np.ndarray) and got.flags.c_contiguous and np.array_equal(got, want)


class TestColumnarSampleSet:
    @settings(max_examples=300, deadline=None)
    @given(_records(), st.data())
    def test_gathers_match_the_record_path(self, records, data):
        known = [s.index for s in records]
        pick = st.sampled_from(known) | st.integers(-6, 42) if known else st.integers(-6, 42)
        ix = data.draw(st.lists(pick, max_size=6), label="indices")
        flds = data.draw(st.lists(st.sampled_from(_SUM_FIELDS), min_size=1, max_size=4),
                         label="fields")
        ss = SampleSet(records)
        by_index = {s.index: s for s in records}
        assert ss._columns is None  # construction builds no columns
        want = _outcome(lambda: _read_records(samples_at(by_index, ix), flds))
        assert _same(_outcome(lambda: extract_column(samples_at(by_index, ix), *flds)), want)
        assert _same(_outcome(lambda: extract_column(ss.subset(ix), *flds)), want)
        cols = ss._columns
        assert _same(_outcome(lambda: columns_at(ss, ix, *flds)), want)
        assert _same(_outcome(lambda: extract_column(list(ss.subset(ix)), *flds)), want)
        for fld in flds:
            assert _same(_outcome(lambda: ss.column(ix, fld)),
                         _outcome(lambda: _read_records(samples_at(by_index, ix), [fld])[0]))
        assert ss._columns is cols  # built at most once

    def test_subset_is_a_positioned_tuple(self):
        ss = SampleSet([LabeledSample(3, label=1.0), LabeledSample(5, label=2.0)])
        sub = ss.subset([5, 3, 5])
        assert isinstance(sub, tuple) and sub == (ss[5], ss[3], ss[5])
        assert sub.source is ss and sub.positions.tolist() == [1, 0, 1]
        again = pickle.loads(pickle.dumps(sub))
        assert isinstance(again, SampleSubset) and again == sub
        assert extract_column(again, "label").tolist() == [[2.0, 1.0, 2.0]]
        assert ss.subset([]) == () and extract_column(ss.subset([]), "label").shape == (1, 0)

    def test_non_integer_index_is_unknown(self):
        ss = SampleSet([LabeledSample(3, label=1.0)])
        for bad in (3.5, "3"):
            with pytest.raises(ValueError, match=f"^unknown sample index {bad}$"):
                ss.subset([bad])
        assert ss.column([3.0], "label").tolist() == [1.0]  # equal to 3, as in a dict

    @pytest.mark.parametrize("index, shown", [(1.5, "1.5"), (True, "True"), (2.0, "2.0")])
    def test_stored_index_must_be_an_integer(self, index, shown):
        # checked when the columns are built, never truncated to another index
        ss = SampleSet([LabeledSample(index, label=7.0), LabeledSample(3, label=1.0)])
        with pytest.raises(ValueError, match=f"^sample index: {shown} is not an integer$"):
            ss.column([1], "label")
        with pytest.raises(ValueError, match=f"^sample index: {shown} is not an integer$"):
            extract_column(list(ss), "label")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_sample_and_field(self, bad):
        ss = SampleSet([LabeledSample(3, label=1.0), LabeledSample(5, label=bad)])
        for samples in (ss.subset([3, 5]), list(ss)):
            with pytest.raises(ValueError, match=f"^sample 5 has non-finite label {bad}$"):
                extract_column(samples, "label")
        assert ss.column([3], "label").tolist() == [1.0]  # only gathered values count
