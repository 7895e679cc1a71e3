"""The array engine against a naive per-target oracle, bit for bit.

The oracle is the per-target loop the engine replaced: one
``score_threshold(np.delete(...))`` per target, the stratified pool
rebuilt per target, one seeded group-sampling draw per target, normal
and Bonferroni intervals one target at a time, and every group sum a
separate ``np.sum``. The engine and the record adapters must reproduce
its bounds exactly, for all ten methods, on five fixed cases and on
cases hypothesis draws.
"""

import dataclasses
import math
import re
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ciarith.baselines import (
    bonferroni_predict,
    group_sampling_predict,
    group_sampling_threshold,
    iqr_sigma,
    normal_hetero_iqr_predict,
    normal_homoscedastic_predict,
)
from ciarith.cia import (
    GroupSplitView,
    StrataSpec,
    cia_predict,
    split_groups,
    stratified_cia_predict,
    stratified_thresholds,
    symmetric_split,
)
from ciarith.core import (
    IndexGroup,
    LabeledSample,
    SampleSet,
    SampleSubset,
    SplitAssignment,
    group_csr,
    loo_thresholds,
    score_threshold,
)
from ciarith.experiments import (
    METHOD_IDS,
    ExperimentConfig,
    _STREAM_GSAMP,
    _STREAM_SPLIT,
    _Prep,
    _Session,
    derive_seed,
)
from ciarith.scoring import split_score

_NORMAL = NormalDist()
SEED = 5
REP = 3


# ---------------------------------------------------------------------------
# The oracle: one target at a time, the formulas written out inline
# ---------------------------------------------------------------------------


def _oracle_interval(kind, q, sums):
    if kind == "split":
        return sums[0] - q, sums[0] + q
    lower, upper = sums[0] - q, sums[1] + q
    if lower > upper:
        lower = upper = 0.5 * (lower + upper)
    return lower, upper


def _oracle_strat_threshold(scores, cal_sizes, m, strata, alpha):
    buckets = strata.bucket_index_array(cal_sizes)
    counts = np.bincount(buckets, minlength=strata.n_buckets)
    lo, hi = strata.merged_range(counts, int(strata.bucket_index_array(m)))
    return score_threshold(scores[(buckets >= lo) & (buckets <= hi)], alpha).value, lo < hi


def oracle(prep, members, is_cal, method, alpha, log, seed=SEED):
    """Per-target bounds of ``method`` in rep ``REP`` of an experiment
    seeded ``seed``; raises ValueError as the method would."""
    y, y_hat, sigma = prep.y, prep.y_hat, prep.sigma_iqr
    qlo, qhi = prep.quant[alpha]
    cal = [m[is_cal[m]] for m in members]
    test = [m[~is_cal[m]] for m in members]
    targets = [t for t in range(len(members)) if test[t].size]
    cal_rows = prep.universe[is_cal[prep.universe]]
    kind = "cqr" if "cqr" in method else "split"
    scores = np.array([
        (abs(float(np.sum(y[c] - y_hat[c]))) if kind == "split"
         else float(max(np.sum(qlo[c] - y[c]), np.sum(y[c] - qhi[c]))))
        if c.size else 0.0
        for c in cal
    ])
    cal_sizes = np.array([c.size for c in cal])
    strata = StrataSpec.from_cal_sizes(cal_sizes)
    out = []
    for pos, t in enumerate(targets):
        m = test[t].size
        sums = ((float(np.sum(y_hat[test[t]])),) if kind == "split"
                else (float(np.sum(qlo[test[t]])), float(np.sum(qhi[test[t]]))))
        if method.startswith("cia_"):
            if method.endswith("_strat"):
                q, merged = _oracle_strat_threshold(
                    np.delete(scores, t), np.delete(cal_sizes, t), m, strata, alpha
                )
                log["merged"] |= merged
            else:
                q = score_threshold(np.delete(scores, t), alpha).value
            log["infinite"] |= q == math.inf
            bounds = _oracle_interval(kind, q, sums)
            log["collapsed"] |= kind == "cqr" and bounds[0] == bounds[1]
        elif method.startswith("group_"):
            rng = np.random.default_rng(
                derive_seed(seed, _STREAM_GSAMP, REP, METHOD_IDS.index(method), pos)
            )
            n_cal = cal_rows.size
            if n_cal < m:
                raise ValueError("too few calibration samples")
            chunks = cal_rows[rng.permutation(n_cal)[: (n_cal // m) * m]].reshape(-1, m)
            if kind == "split":
                draws = np.abs((y[chunks] - y_hat[chunks]).sum(axis=1))
            else:
                draws = np.maximum((qlo[chunks] - y[chunks]).sum(axis=1),
                                   (y[chunks] - qhi[chunks]).sum(axis=1))
            bounds = _oracle_interval(kind, score_threshold(draws, alpha).value, sums)
        elif method.startswith("normal_"):
            if method == "normal_homo":
                resid = y_hat[cal_rows] - y[cal_rows]
                if resid.size < 2:
                    raise ValueError("too few calibration samples")
                spread = math.sqrt(m) * math.sqrt(float(np.sum(resid**2)) / (resid.size - 1))
            else:
                spread = math.sqrt(float(np.sum(sigma[test[t]] ** 2)))
            bounds = (sums[0] + _NORMAL.inv_cdf(alpha / 2) * spread,
                      sums[0] + _NORMAL.inv_cdf(1 - alpha / 2) * spread)
        else:
            if kind == "split":
                per_sample = np.abs(y[cal_rows] - y_hat[cal_rows])
                lo_col = hi_col = y_hat[test[t]]
            else:
                per_sample = np.maximum(qlo[cal_rows] - y[cal_rows], y[cal_rows] - qhi[cal_rows])
                lo_col, hi_col = qlo[test[t]], qhi[test[t]]
            q = score_threshold(per_sample, alpha / m).value
            lower, upper = float(np.sum(lo_col - q)), float(np.sum(hi_col + q))
            if lower > upper:
                lower = upper = 0.5 * (lower + upper)
            bounds = (lower, upper)
        if not bounds[0] <= bounds[1]:
            raise ValueError("crossed bounds")
        out.append(bounds)
    return np.array([b[0] for b in out]), np.array([b[1] for b in out])


# ---------------------------------------------------------------------------
# Fixtures: one experiment prep whose split exercises every corner
# ---------------------------------------------------------------------------


def make_prep(rng_seed, n_rows, n_groups, alphas, nan_row=None, single_share=0.25):
    """A prep over ``n_rows`` universe rows and ``n_groups`` groups.

    A ``single_share`` of the groups are singletons, so about half of
    those have an empty calibration side. Quantile bands are wide, which
    makes the band thresholds strongly negative, except on half of the
    singletons: their narrow bands cross once padded by such a threshold.
    """
    rng = np.random.default_rng(rng_seed)
    universe = np.arange(n_rows)
    y = rng.standard_normal(n_rows)
    y_hat = y + 0.5 * rng.standard_normal(n_rows)
    if nan_row is not None:
        y_hat[nan_row] = np.nan
    n_single = int(n_groups * single_share)
    perm = rng.permutation(n_rows)
    half = np.full(n_rows, 4.0)
    half[perm[: n_single // 2]] = 0.05
    quant = {a: (y_hat - half, y_hat + half) for a in alphas}
    q25 = y_hat - rng.uniform(0.1, 1.0, n_rows)
    sigma = iqr_sigma(q25, 2 * y_hat - q25)
    members = [np.sort(perm[i:i + 1]) for i in range(n_single)]
    members += [np.sort(c) for c in np.array_split(perm[n_single:], n_groups - n_single)]
    prep = _Prep(universe=universe, y=y, y_hat=y_hat, quant=quant, sigma_iqr=sigma,
                 groups=group_csr(members))
    return prep, members, (q25, 2 * y_hat - q25)


# Each case's inputs, and the corners its split must reach.
CASES = {
    # 40 groups: every stratum is thinner than 20 and must merge
    "thin-strata": (
        dict(rng_seed=1, n_rows=160, n_groups=40, alphas=(0.1, 0.3)),
        {"merged", "collapsed", "empty-cal"},
    ),
    # 12 groups at alpha 0.05: k = ceil(12 * 0.95) = 12 > 11, the pool is +inf
    "infinite-pool": (
        dict(rng_seed=2, n_rows=60, n_groups=12, alphas=(0.05, 0.4)),
        {"infinite", "merged", "empty-cal"},
    ),
    "many-groups": (dict(rng_seed=3, n_rows=900, n_groups=150, alphas=(0.1,)), {"empty-cal"}),
    # sides of about 10 members: numpy sums 9 or more values pairwise, so a
    # gather that changes the summation order changes the last bits here
    "large-groups": (
        dict(rng_seed=5, n_rows=440, n_groups=24, alphas=(0.1,)), {"empty-cal"}
    ),
    # one nan prediction: the methods that read it must fail, in both
    "nan-prediction": (
        dict(rng_seed=4, n_rows=160, n_groups=40, alphas=(0.2,), nan_row=7), {"failed"}
    ),
}


def _engine(prep, alphas, seed=SEED):
    config = ExperimentConfig(alphas=alphas, reps=REP + 1, seed=seed, methods=METHOD_IDS)
    session = _Session(config, prep)
    return session, session._split(REP, *session._groups_for_rep(REP))


def _bounds_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return None


def _assignment(prep, seed=SEED):
    """The rep's split, drawn as the harness draws it, and its is-calibration mask."""
    assignment = symmetric_split(prep.universe.tolist(), derive_seed(seed, _STREAM_SPLIT, REP))
    is_cal = np.zeros(prep.y.size, dtype=bool)
    is_cal[sorted(assignment.cal)] = True
    return assignment, is_cal


def check_engine(spec, seed=SEED):
    """Assert the engine's bounds equal the oracle's for every method and
    level of ``spec``; returns the corners its split reached."""
    prep, members, _ = make_prep(**spec)
    session, split = _engine(prep, spec["alphas"], seed)
    _, is_cal = _assignment(prep, seed)
    log = dict(merged=False, infinite=False, collapsed=False, failed=False)
    for alpha in spec["alphas"]:
        for method in METHOD_IDS:
            expected = _bounds_or_error(oracle, prep, members, is_cal, method, alpha, log, seed)
            got = _bounds_or_error(session._bounds, method, alpha, REP, split)
            assert (got is None) == (expected is None), (method, alpha)
            if expected is None:
                log["failed"] = True
                continue
            assert np.array_equal(got[0], expected[0]), (method, alpha)
            assert np.array_equal(got[1], expected[1]), (method, alpha)
    log["empty-cal"] = any(not is_cal[members[t]].any() for t in split.targets)
    return {k for k, v in log.items() if v}


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_oracle_bitwise(case):
    spec, corners = CASES[case]
    reached = check_engine(spec)
    assert corners <= reached
    assert ("failed" in reached) == ("failed" in corners)


# A seed of 2 or 3 entropy words gives each group_* target the 6- or
# 7-word entropy (seed, stream, rep, method, t): more words than the seed
# hash's pool of 4, hashed on the batched path's branch beyond the pool.
@pytest.mark.parametrize("seed", [2**32 + 5, 2**64 + 5])
@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_oracle_bitwise_at_multi_word_seeds(case, seed):
    reached = check_engine(CASES[case][0], seed)
    assert ("failed" in reached) == ("failed" in CASES[case][1])


# (case, container): a SampleSet with its subsets is gathered by position,
# a dict with lists record by record; both must match the oracle bit for bit
RECORD_CASES = [(case, container) for container in ("sampleset", "dict")
                for case in ("thin-strata", "infinite-pool", "large-groups")]


def check_records(spec, container):
    """Assert every record adapter's interval equals the oracle's, for every
    method and target at the first level of ``spec``; returns the views."""
    prep, members, (q25, q75) = make_prep(**spec)
    qlo, qhi = prep.quant[spec["alphas"][0]]
    alpha = spec["alphas"][0]
    records = [
        LabeledSample(index=i, label=float(prep.y[i]), point_pred=float(prep.y_hat[i]),
                      quant_lo=float(qlo[i]), quant_hi=float(qhi[i]))
        for i in prep.universe.tolist()
    ]
    if container == "sampleset":
        samples = SampleSet(records)
        subset = samples.subset
    else:
        samples = {s.index: s for s in records}
        subset = lambda ix: [samples[i] for i in ix]  # noqa: E731
    assignment, is_cal = _assignment(prep)
    views = split_groups(
        [IndexGroup(g, frozenset(m.tolist())) for g, m in enumerate(members)], assignment
    )
    strata = StrataSpec.from_cal_sizes([v.cal_size for v in views])
    cal = subset(sorted(assignment.cal))
    assert isinstance(cal, SampleSubset) == (container == "sampleset")
    targets = [v for v in views if v.test_size]
    log = dict(merged=False, infinite=False, collapsed=False)
    for method in METHOD_IDS:
        lower, upper = oracle(prep, members, is_cal, method, alpha, log)
        kind = "cqr" if "cqr" in method else "split"
        for pos, v in enumerate(targets):
            test = subset(v.test_members)
            gseed = derive_seed(SEED, _STREAM_GSAMP, REP, METHOD_IDS.index(method), pos)
            iv = {
                "cia": lambda: cia_predict(views, samples, v.group_id, alpha, kind),
                "cia_strat": lambda: stratified_cia_predict(
                    views, samples, v.group_id, alpha, kind, strata),
                "group": lambda: group_sampling_predict(cal, test, alpha, kind,
                                                        rng_seed=gseed),
                "normal_homo": lambda: normal_homoscedastic_predict(cal, test, alpha),
                "normal_hetero": lambda: normal_hetero_iqr_predict(
                    cal, test, alpha, lambda s: (q25[s.index], q75[s.index])),
                "bonf": lambda: bonferroni_predict(cal, test, alpha, kind),
            }[method.replace("_split", "").replace("_cqr", "")]()
            assert (iv.lower, iv.upper) == (lower[pos], upper[pos]), (method, v.group_id)
    return views


@pytest.mark.parametrize(
    "case, container", RECORD_CASES,
    ids=[case if c == "sampleset" else f"{case}-{c}" for case, c in RECORD_CASES],
)
def test_record_adapters_match_oracle_bitwise(case, container):
    views = check_records(CASES[case][0], container)
    if case == "large-groups":
        assert max(v.test_size for v in views) >= 9 and max(v.cal_size for v in views) >= 9


# Drawn cases. Any test side holds at most half the rows, so it never
# outgrows the calibration side group sampling draws from, and 2 rows per
# group give at least 4 calibration rows: no method fails on a drawn case.
@st.composite
def drawn_specs(draw):
    n_groups = draw(st.integers(4, 40))
    alpha_pcts = draw(st.lists(st.integers(2, 60), min_size=1, max_size=2, unique=True))
    return dict(
        rng_seed=draw(st.integers(0, 2**32 - 1)),
        n_rows=draw(st.integers(2 * n_groups, 6 * n_groups)),
        n_groups=n_groups,
        alphas=tuple(a / 100 for a in alpha_pcts),
        # up to 60% singletons, about half of them with an empty calibration side
        single_share=draw(st.floats(0.0, 0.6)),
    )


@settings(max_examples=25, deadline=None)
@given(drawn_specs(), st.sampled_from(["sampleset", "dict"]))
def test_drawn_cases_match_oracle_bitwise(spec, container):
    reached = check_engine(spec)
    assert "failed" not in reached
    for corner in sorted(reached):
        event(corner)
    check_records(spec, container)


# ---------------------------------------------------------------------------
# Record adapters name a non-finite field by its sample
# ---------------------------------------------------------------------------

# Eight groups of five; even indices calibrate. Target group 0 has test
# members 1 and 3 and calibration member 0; index 6 sits on group 1's
# calibration side.
_TARGET_TEST, _TARGET_CAL, _OTHER_CAL = 1, 0, 6


def _adapter_call(name, kind):
    def call(views, samples, cal, test):
        return {
            "cia": lambda: cia_predict(views, samples, 0, 0.2, kind),
            "cia_strat": lambda: stratified_cia_predict(views, samples, 0, 0.2, kind),
            "group": lambda: group_sampling_predict(cal, test, 0.2, kind),
            "bonf": lambda: bonferroni_predict(cal, test, 0.2, kind),
            "normal_homo": lambda: normal_homoscedastic_predict(cal, test, 0.2),
            "normal_hetero": lambda: normal_hetero_iqr_predict(
                cal, test, 0.2, lambda s: (-1.0, 1.0)),
        }[name]()
    return call


ADAPTERS = [(name, kind) for name in ("cia", "cia_strat", "group", "bonf")
            for kind in ("split", "cqr")] + [("normal_homo", "split"), ("normal_hetero", "split")]
NON_FINITE_CASES = [
    (name, kind, side, container, bad)
    for name, kind in ADAPTERS
    for side in ("test", "cal", "own_cal")
    if not (name == "normal_hetero" and side != "test")  # reads no calibration record
    for container in ("sampleset", "dict")
    for bad in (math.nan, -math.inf)
]


@pytest.mark.parametrize("name, kind, side, container, bad", NON_FINITE_CASES)
def test_record_adapters_name_non_finite_field(name, kind, side, container, bad):
    rng = np.random.default_rng(11)
    y = rng.standard_normal(40)
    records = [LabeledSample(i, label=float(y[i]), point_pred=0.0, quant_lo=-1.0, quant_hi=1.0)
               for i in range(40)]
    if side == "test":
        at, fld = _TARGET_TEST, "quant_lo" if kind == "cqr" else "point_pred"
    else:
        at, fld = _OTHER_CAL if side == "cal" else _TARGET_CAL, "label"
    records[at] = dataclasses.replace(records[at], **{fld: bad})
    assignment = SplitAssignment(cal=frozenset(range(0, 40, 2)), test=frozenset(range(1, 40, 2)))
    views = split_groups([IndexGroup(g, frozenset(range(5 * g, 5 * g + 5))) for g in range(8)],
                         assignment)
    if container == "sampleset":
        samples = SampleSet(records)
        subset = samples.subset
    else:
        samples = {s.index: s for s in records}
        subset = lambda ix: [samples[i] for i in ix]  # noqa: E731
    cal, test = subset(sorted(assignment.cal)), subset(views[0].test_members)
    with pytest.raises(ValueError, match=rf"^sample {at} has non-finite {fld} {bad}$"):
        _adapter_call(name, kind)(views, samples, cal, test)


def test_stratified_thresholds_match_per_target_pools():
    # small pools and bounds, so removing a target often drops its own
    # bucket below the bound and changes the merge
    rng = np.random.default_rng(77)
    for _ in range(400):
        G = int(rng.integers(2, 25))
        scores = rng.integers(0, 6, size=G).astype(float)
        cal_sizes = rng.integers(0, 7, size=G)
        test_sizes = rng.integers(1, 7, size=G)
        strata = StrataSpec(cuts=(1, 3), min_bucket_count=int(rng.integers(1, 8)))
        alpha = float(rng.uniform(0.05, 0.6))
        got = stratified_thresholds(scores, cal_sizes, test_sizes, np.arange(G), strata, alpha)
        expected = [
            _oracle_strat_threshold(np.delete(scores, t), np.delete(cal_sizes, t),
                                    test_sizes[t], strata, alpha)[0]
            for t in range(G)
        ]
        assert np.array_equal(got, expected)


# the stratified engine with a cut spec, and with one bucket
_SPECS = {"strat": StrataSpec((2,)), "one-bucket": StrataSpec(())}


@pytest.mark.parametrize("at", [-1, -2, 5, 6])
@pytest.mark.parametrize("engine", ["loo", "strat", "one-bucket"])
def test_leave_out_position_outside_the_pool_is_named(engine, at):
    scores, G = np.arange(5.0), 5
    with pytest.raises(ValueError, match=rf"^leave-out position {at} is outside \[0, {G}\)$"):
        if engine == "loo":
            loo_thresholds(scores, 0.2, [0, at])
        else:
            stratified_thresholds(scores, [1, 2, 3, 4, 5], [1, 1], [0, at], _SPECS[engine], 0.2)


@pytest.mark.parametrize("value", [1.5, True, np.float64(1.0)])
@pytest.mark.parametrize("engine", ["loo", "strat", "one-bucket"])
def test_leave_out_position_that_is_not_an_integer_is_named(engine, value):
    # 1.5 and True once read as position 1
    scores = np.arange(1.0, 5.0)
    message = rf"^leave-out position: {re.escape(repr(value))} is not an integer$"
    with pytest.raises(ValueError, match=message):
        if engine == "loo":
            loo_thresholds(scores, 0.5, [value])
        else:
            stratified_thresholds(scores, [1, 2, 3, 4], [1], [value], _SPECS[engine], 0.5)


def test_leave_out_arrays_pass_only_as_integers():
    # signed-integer arrays take the fast path; bool and float arrays do not
    scores = np.arange(1.0, 5.0)
    want = loo_thresholds(scores, 0.5, [1, 3])
    assert np.array_equal(loo_thresholds(scores, 0.5, np.array([1, 3], dtype=np.int32)), want)
    for bad, shown in [(np.array([True, False]), "True"), (np.array([1.5, 3.0]), "1.5")]:
        with pytest.raises(ValueError, match=rf"^leave-out position: {shown} is not an integer$"):
            loo_thresholds(scores, 0.5, bad)


@pytest.mark.parametrize("value", [1.5, True])
def test_test_size_that_is_not_an_integer_is_named(value):
    message = rf"^test size: {re.escape(repr(value))} is not an integer$"
    for strata in _SPECS.values():
        with pytest.raises(ValueError, match=message):
            stratified_thresholds(np.arange(4.0), [1, 2, 3, 4], [value], [0], strata, 0.5)
    with pytest.raises(ValueError, match=message):
        group_sampling_threshold([np.zeros(4), np.zeros(4)], [value], 0.5, split_score, None,
                                 [np.random.default_rng(0)])


@pytest.mark.parametrize("engine", ["strat", "one-bucket"])
def test_empty_test_side_is_rejected(engine):
    with pytest.raises(ValueError, match="^stratified prediction needs a non-empty test side$"):
        stratified_thresholds(np.arange(4.0), [1, 2, 3, 4], [1, 0], [0, 1], _SPECS[engine], 0.5)


def test_stratified_thresholds_check_alpha_where_no_target_is_in_its_pool():
    # the target's own bucket (size 5) lies outside its merged range (size 1)
    strata = StrataSpec((1,), min_bucket_count=1)
    args = (np.arange(4.0), [1, 1, 1, 5], [1], [3], strata)
    assert stratified_thresholds(*args, 0.5)[0] == 1.0  # 2nd smallest of {0, 1, 2}
    with pytest.raises(ValueError, match="alpha must be in"):
        stratified_thresholds(*args, 1.5)


@pytest.mark.parametrize("value, message", [
    (1.5, "calibration size: 1.5 is not an integer"),
    (True, "calibration size: True is not an integer"),
    (-1, "calibration size must be >= 0, got -1"),
])
@pytest.mark.parametrize("engine", ["strat", "one-bucket"])
def test_calibration_size_that_is_not_a_count_is_named(engine, value, message):
    # 1.5 and True once read as size 1, and -1 as a size in bucket 0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        stratified_thresholds(np.arange(4.0), [value, 2, 3, 4], [1], [0], _SPECS[engine], 0.5)


@pytest.mark.parametrize("n_scores, test_sizes, leave_out, message", [
    # one test size once broadcast over three targets, two read from uninitialised memory
    (6, [1], [0, 3, 5], "1 test sizes for 3 leave-out positions"),
    (6, [1, 3, 1], [0], "3 test sizes for 1 leave-out positions"),  # once a bare IndexError
    (3, [1], [0], "3 scores for 6 calibration sizes"),  # once a threshold from a scoreless group
])
@pytest.mark.parametrize("engine", ["strat", "one-bucket"])
def test_lengths_that_do_not_pair_up_are_named(engine, n_scores, test_sizes, leave_out, message):
    scores, cal_sizes = np.arange(n_scores, dtype=float), [1, 1, 3, 3, 3, 3]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        stratified_thresholds(scores, cal_sizes, test_sizes, leave_out, _SPECS[engine], 0.5)


@st.composite
def one_bucket_cases(draw):
    """A small pool with tied scores, empty calibration sides at score 0,
    and targets drawn with repeats from it."""
    G = draw(st.integers(1, 10))
    cal_sizes = np.array(draw(st.lists(st.integers(0, 5), min_size=G, max_size=G)))
    scores = np.array(draw(st.lists(st.integers(0, 3), min_size=G, max_size=G)), dtype=float)
    scores[cal_sizes == 0] = 0.0  # an empty calibration side scores the empty sum
    leave_out = np.array(draw(st.lists(st.integers(0, G - 1), max_size=2 * G)), dtype=np.int64)
    test_sizes = draw(st.lists(st.integers(1, 5), min_size=leave_out.size,
                               max_size=leave_out.size))
    return scores, cal_sizes, test_sizes, leave_out, draw(st.integers(1, 99)) / 100


@settings(max_examples=300, deadline=None)
@given(one_bucket_cases())
def test_one_bucket_is_leave_one_out_and_the_all_merged_pool(case):
    scores, cal_sizes, test_sizes, leave_out, alpha = case
    one = stratified_thresholds(scores, cal_sizes, test_sizes, leave_out, StrataSpec(()), alpha)
    # a bound above the pool merges every bucket, so each target pools with every group
    merged = StrataSpec((1, 3), min_bucket_count=scores.size + 1)
    want = loo_thresholds(scores, alpha, leave_out)
    assert one.dtype == want.dtype and one.tobytes() == want.tobytes()
    got = stratified_thresholds(scores, cal_sizes, test_sizes, leave_out, merged, alpha)
    assert got.tobytes() == want.tobytes()
    event(f"sentinel selected: {bool(np.isinf(want).any())}")
    event(f"empty calibration side: {bool((cal_sizes == 0).any())}")


# ---------------------------------------------------------------------------
# Theorem 1's rank argument with the randomness taken out
# ---------------------------------------------------------------------------


def _rank(G, a):
    """k = ceil(G (1 - a/100)), exactly."""
    return -((-G * (100 - a)) // 100)


def _count_covered(scores, q):
    return int(np.sum(np.asarray(scores) <= q))


def _one_score_per_group(scores):
    """Group t scores s_t on one calibration sample and has one test
    sample predicted 0, so its interval is [-q_t, q_t]."""
    samples, views = [], []
    for g, s in enumerate(scores):
        samples += [LabeledSample(2 * g, label=s, point_pred=0.0),
                    LabeledSample(2 * g + 1, label=0.0, point_pred=0.0)]
        views.append(GroupSplitView(g, (2 * g,), (2 * g + 1,)))
    return views, SampleSet(samples)


SCORES = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
ALPHA_PCT = st.integers(min_value=1, max_value=99)


@settings(max_examples=200, deadline=None)
@given(st.lists(SCORES, min_size=1, max_size=40, unique=True), ALPHA_PCT)
def test_distinct_scores_exactly_k_targets_covered(scores, a):
    G, alpha = len(scores), a / 100
    q = loo_thresholds(scores, alpha, np.arange(G))
    assert _count_covered(scores, q) == min(_rank(G, a), G)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5).map(float), min_size=1, max_size=40), ALPHA_PCT)
def test_tied_scores_at_least_k_targets_covered(scores, a):
    G, alpha = len(scores), a / 100
    q = loo_thresholds(scores, alpha, np.arange(G))
    assert _count_covered(scores, q) >= min(_rank(G, a), G)
    assert np.array_equal(
        q, [score_threshold(np.delete(scores, t), alpha).value for t in range(G)]
    )


@settings(max_examples=50, deadline=None)
@given(st.lists(SCORES, min_size=1, max_size=12, unique=True), ALPHA_PCT)
def test_cia_predict_covers_exactly_k_targets(scores, a):
    G, alpha = len(scores), a / 100
    views, samples = _one_score_per_group(scores)
    upper = [cia_predict(views, samples, g, alpha).upper for g in range(G)]
    assert _count_covered(scores, upper) == min(_rank(G, a), G)
    if _rank(G, a) > G - 1:  # the +inf sentinel: every target covered
        assert all(u == math.inf for u in upper)
