import logging
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciarith import models
from ciarith.core import LabeledSample
from ciarith.models import (
    FittedModel,
    fit,
    fit_arrays,
    neighbor_labels,
    predict_point,
    predict_quantiles,
)
from conftest import child_env


def rows(X, y):
    return [
        LabeledSample(index=i, features=np.asarray(x, dtype=float), label=float(v))
        for i, (x, v) in enumerate(zip(X, y))
    ]


class TestMeanModel:
    def test_predicts_global_mean(self):
        m = fit(rows([[0.0], [1.0], [2.0]], [1, 2, 3]), "mean")
        assert predict_point(m, np.array([9.0])) == pytest.approx(2.0)

    def test_constant_everywhere(self):
        m = fit(rows([[0.0], [1.0]], [5, 7]), "mean")
        out = predict_point(m, np.array([[0.0], [100.0], [-3.0]]))
        assert np.allclose(out, 6.0)


class TestLinearModel:
    def test_recovers_exact_linear_relation(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-3, 3, size=(40, 1))
        y = 2 * x[:, 0] + 1
        m = fit(rows(x, y), "linear_ls")
        preds = predict_point(m, x)
        assert np.max(np.abs(preds - y)) < 1e-8

    def test_intercept_at_origin_matches_closed_form(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 2))
        y = X @ np.array([1.5, -0.5]) + 0.25 + 0.01 * rng.normal(size=60)
        m = fit(rows(X, y), "linear_ls")
        # closed-form least squares on the standardized design as the oracle
        mu, sd = X.mean(axis=0), X.std(axis=0)
        Z = (X - mu) / sd
        A = np.hstack([Z, np.ones((60, 1))])
        coef = np.linalg.solve(A.T @ A, A.T @ y)
        origin = (np.zeros(2) - mu) / sd
        assert predict_point(m, np.zeros(2)) == pytest.approx(
            float(origin @ coef[:-1] + coef[-1]), abs=1e-9
        )

    def test_singular_design_uses_ridge_with_diagnostic(self, caplog):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])  # collinear
        y = np.array([1.0, 2.0, 3.0, 4.0])
        with caplog.at_level(logging.WARNING, logger="ciarith.models"):
            m = fit_arrays(X, y, "linear_ls")
        assert any("ridge" in r.message for r in caplog.records)
        assert np.isfinite(predict_point(m, np.array([1.0, 2.0])))


class TestKnnModel:
    def test_k_equals_n_predicts_global_mean(self):
        m = fit(rows([[0.0], [1.0], [2.0]], [1, 2, 6]), "knn", k_neighbors=3)
        assert predict_point(m, np.array([0.5])) == pytest.approx(3.0)

    def test_k1_at_training_point_returns_its_label(self):
        X = [[0.0], [5.0], [10.0]]
        m = fit(rows(X, [1, 2, 3]), "knn", k_neighbors=1)
        assert predict_point(m, np.array([5.0])) == 2.0

    def test_deterministic_under_feature_ties(self):
        # identical features: stable ordering must always pick lower indices
        X = [[1.0], [1.0], [1.0], [1.0]]
        m = fit(rows(X, [10, 20, 30, 40]), "knn", k_neighbors=2)
        assert predict_point(m, np.array([1.0])) == pytest.approx(15.0)

    def test_default_k_is_sqrt_n(self):
        m = fit(rows([[float(i)] for i in range(100)], range(100)), "knn")
        assert m.k_neighbors == 10


class TestQuantiles:
    def _four_neighbor_model(self):
        return fit(rows([[0.0], [0.0], [0.0], [0.0]], [0, 1, 2, 3]), "knn", k_neighbors=4)

    def test_lower_interpolation_order_statistic(self):
        m = self._four_neighbor_model()
        # ceil(4*0.25)=1st and ceil(4*0.75)=3rd smallest of {0,1,2,3}
        assert predict_quantiles(m, np.array([0.0]), (0.25, 0.75)) == (0.0, 2.0)

    def test_constant_neighbors(self):
        m = fit(rows([[0.0]] * 3, [7, 7, 7]), "knn", k_neighbors=3)
        lo, hi = predict_quantiles(m, np.array([0.0]), (0.1, 0.9))
        assert lo == hi == 7.0

    def test_degenerate_levels_collapse(self):
        m = self._four_neighbor_model()
        lo, hi = predict_quantiles(m, np.array([0.0]), (0.5, 0.5))
        assert lo == hi == 1.0  # ceil(4*0.5)=2nd smallest

    def test_single_neighbor(self):
        m = fit(rows([[0.0], [9.0]], [3, 8]), "knn", k_neighbors=1)
        assert predict_quantiles(m, np.array([0.1]), (0.05, 0.95)) == (3.0, 3.0)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(3)
        m = fit(rows(rng.normal(size=(30, 2)), rng.normal(size=30)), "knn", k_neighbors=9)
        x = rng.normal(size=2)
        levels = np.sort(rng.uniform(0, 1, size=6))
        qs = [predict_quantiles(m, x, (lv, 1.0))[0] for lv in levels]
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_band_contains_point_prediction_for_symmetric_neighbors(self):
        m = fit(rows([[0.0]] * 5, [-2, -1, 0, 1, 2]), "knn", k_neighbors=5)
        lo, hi = predict_quantiles(m, np.array([0.0]), (0.2, 0.8))
        point = predict_point(m, np.array([0.0]))
        assert lo <= point <= hi

    def test_non_knn_model_rejected(self):
        m = fit(rows([[0.0], [1.0]], [0, 1]), "mean")
        with pytest.raises(ValueError, match="quantiles"):
            predict_quantiles(m, np.array([0.0]), (0.25, 0.75))

    def test_inverted_levels_rejected(self):
        m = self._four_neighbor_model()
        with pytest.raises(ValueError, match="exceeds"):
            predict_quantiles(m, np.array([0.0]), (0.9, 0.1))


def full_sort_oracle(model, queries, sliced=False):
    """Neighbour labels by a full stable argsort of every distance row; the
    product is one call, or ``sliced`` one call per slice of the planner."""
    Ztr, ytr = model.params
    Z = (np.atleast_2d(queries) - model.feat_mean) / model.feat_scale
    if sliced:
        bounds = models._query_slices(Z.shape[0], *Ztr.shape)
        product = np.vstack([Z[lo:hi] @ Ztr.T for lo, hi in bounds])
    else:
        product = Z @ Ztr.T
    d2 = (Z**2).sum(axis=1)[:, None] + (Ztr**2).sum(axis=1)[None, :] - 2.0 * product
    return ytr[np.argsort(d2, axis=1, kind="stable")[:, : model.k_neighbors]]


def assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_oracle(model, queries, levels, sliced=False):
    oracle = full_sort_oracle(model, queries, sliced)
    assert_same_bits(neighbor_labels(model, queries), oracle)
    single = np.ndim(queries) == 1
    point = oracle.mean(axis=1)
    assert_same_bits(predict_point(model, queries), point[0] if single else point)
    ranked = np.sort(oracle, axis=1)
    k = ranked.shape[1]
    for lv in levels:
        lo, hi = (ranked[:, max(1, math.ceil(k * q - 1e-12)) - 1] for q in lv)
        got = predict_quantiles(model, queries, lv)
        assert_same_bits(got, (lo[0], hi[0]) if single else (lo, hi))


LEVELS = [(0.0, 1.0), (0.05, 0.95), (0.25, 0.75), (0.5, 0.5)]


@st.composite
def tied_knn_cases(draw):
    """Integer features on a small grid, so distances tie at the k-th place."""
    n_train = draw(st.integers(1, 30))
    width = draw(st.integers(1, 3))
    grid = st.integers(-2, 2)
    X = np.array(draw(st.lists(st.lists(grid, min_size=width, max_size=width),
                               min_size=n_train, max_size=n_train)), dtype=float)
    y = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n_train,
                               max_size=n_train, unique=True)))
    k = draw(st.integers(1, n_train))
    rows = draw(st.lists(st.lists(grid, min_size=width, max_size=width),
                         min_size=1, max_size=8))
    queries = np.array(rows, dtype=float)
    if draw(st.booleans()):
        queries = queries[0]
    level = draw(st.floats(0.0, 1.0))
    return fit_arrays(X, y, "knn", k_neighbors=k), queries, (level, 1.0)


_THREAD_PROBE = """
import hashlib

import numpy as np

from ciarith import models

digest = hashlib.sha256()
nearest = models._nearest


def spy(d, k):
    digest.update(np.ascontiguousarray(d).tobytes())
    return nearest(d, k)


models._nearest = spy
rng = np.random.default_rng(0)
model = models.fit_arrays(rng.normal(size=(2436, 2)), rng.normal(size=2436), "knn")
models.neighbor_labels(model, rng.normal(size=(1044, 2)))
print(digest.hexdigest())
"""


class TestNeighbourSelection:
    """The partial selection equals the first k columns of a full stable sort."""

    @settings(max_examples=300, deadline=None)
    @given(tied_knn_cases())
    def test_matches_full_sort_under_ties(self, case):
        model, queries, drawn = case
        assert_matches_oracle(model, queries, LEVELS + [drawn])

    def test_matches_full_sort_across_query_blocks(self):
        # more query rows than one slice, most of them tied at the k-th distance
        rng = np.random.default_rng(5)
        X = rng.integers(-3, 4, size=(400, 2)).astype(float)
        y = rng.normal(size=400)
        queries = rng.integers(-3, 4, size=(700, 2)).astype(float)
        assert len(models._query_slices(700, 400, 2)) > 1
        for k in (1, 7, 20, 399, 400):
            model = fit_arrays(X, y, "knn", k_neighbors=k)
            assert_matches_oracle(model, queries, LEVELS, sliced=True)

    def test_matches_the_formula_taken_slice_by_slice_bit_for_bit(self):
        # z-scored features from a coarse grid, so true distances often tie
        # and the rounding of each operation decides the order; 700 query
        # rows take several slices
        rng = np.random.default_rng(11)
        grid = [-0.7, 0.1, 0.3, 1.1]
        X, queries = rng.choice(grid, size=(500, 3)), rng.choice(grid, size=(700, 3))
        y = rng.normal(size=500)
        assert len(models._query_slices(700, 500, 3)) > 1
        for k in (1, 9, 60, 500):
            model = fit_arrays(X, y, "knn", k_neighbors=k)
            oracle = full_sort_oracle(model, queries, sliced=True)
            assert_same_bits(neighbor_labels(model, queries), oracle)

    @pytest.mark.parametrize("slice_rows", [1, 2, 5, 40])
    def test_slices_match_the_one_gemm_formula_on_exact_inputs(self, monkeypatch, slice_rows):
        # integer-valued Z and Ztr (mean 0, scale 1) keep every product and
        # sum exact, so any split of the GEMM gives the formula's bits
        rng = np.random.default_rng(3)
        Ztr = rng.integers(-3, 4, size=(120, 2)).astype(float)
        y = rng.normal(size=120)
        queries = rng.integers(-3, 4, size=(101, 2)).astype(float)
        monkeypatch.setattr(models, "_SLICE_CELLS", slice_rows * 120 * 2)
        assert len(models._query_slices(101, 120, 2)) > 1
        for k in (1, 7, 120):
            model = FittedModel("knn", np.zeros(2), np.ones(2), (Ztr, y), k_neighbors=k)
            assert_matches_oracle(model, queries, LEVELS)
            assert_matches_oracle(model, queries[0], LEVELS)

    def test_no_slice_has_one_row_unless_one_query_row(self, monkeypatch):
        monkeypatch.setattr(models, "_SLICE_CELLS", 60)
        # 5, 2, 3, 2, 0 and 0 rows fit; a zero-width row counts as one feature
        for n_train, width in ((6, 2), (10, 3), (20, 0), (30, 1), (40, 2), (10**6, 3)):
            fit_rows = models._SLICE_CELLS // (n_train * max(width, 1))
            for n_query in range(40):
                slices = models._query_slices(n_query, n_train, width)
                sizes = [hi - lo for lo, hi in slices]
                assert [lo for lo, _ in slices] == [0, *np.cumsum(sizes)[:-1].tolist()]
                assert sum(sizes) == n_query and max(sizes) - min(sizes) <= 1
                assert min(sizes) >= 2 or n_query < 2
                if n_query <= fit_rows:
                    assert len(slices) == 1
                assert max(sizes) <= max(fit_rows, 3)

    def test_zero_width_features_give_the_first_training_rows(self):
        # every distance is 0, so the k nearest are the k lowest indices
        y = np.array([3.0, -1.0, 2.5, 7.0, 0.5])
        model = fit_arrays(np.empty((5, 0)), y, "knn")
        assert model.k_neighbors == 2
        assert_same_bits(neighbor_labels(model, np.empty((3, 0))), np.tile([3.0, -1.0], (3, 1)))
        assert_same_bits(neighbor_labels(model, np.empty(0)), [[3.0, -1.0]])
        assert_same_bits(predict_point(model, np.empty((3, 0))), np.ones(3))
        assert_same_bits(predict_quantiles(model, np.empty((3, 0)), (0.1, 0.9)),
                         (np.full(3, -1.0), np.full(3, 3.0)))
        model = fit_arrays(np.empty((5, 0)), y, "knn", k_neighbors=4)
        assert_same_bits(neighbor_labels(model, np.empty((2, 0))), np.tile(y[:4], (2, 1)))

    def test_distances_do_not_depend_on_the_blas_thread_count(self):
        # the paths-grid30 shape; a child per OpenBLAS thread count, one after
        # the other, hashes every distance slice handed to the selection (a
        # BLAS other than OpenBLAS ignores the variable, and the test holds)
        digests = []
        for threads in ("1", "2"):
            env = dict(child_env(), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.split()[-1])
        assert digests[0] == digests[1]

    def test_non_knn_model_has_no_neighbours(self):
        m = fit(rows([[0.0], [1.0]], [0, 1]), "linear_ls")
        with pytest.raises(ValueError, match="neighbours"):
            neighbor_labels(m, np.array([0.0]))


class TestFitValidation:
    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty"):
            fit([], "mean")

    def test_inconsistent_feature_width(self):
        bad = [
            LabeledSample(0, features=np.array([1.0]), label=0.0),
            LabeledSample(1, features=np.array([1.0, 2.0]), label=0.0),
        ]
        with pytest.raises(ValueError, match="features"):
            fit(bad, "mean")

    @pytest.mark.parametrize("k", [0, -5])
    def test_non_positive_k_rejected(self, k):
        with pytest.raises(ValueError, match="k_neighbors"):
            fit_arrays(np.zeros((4, 1)), np.arange(4.0), "knn", k_neighbors=k)

    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_non_integer_k_rejected_at_fit(self, k):
        # not at predict time, as a bare TypeError from the neighbour selection
        with pytest.raises(ValueError, match=rf"^k_neighbors: {k!r} is not an integer$"):
            fit_arrays(np.zeros((4, 1)), np.arange(4.0), "knn", k_neighbors=k)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            fit(rows([[0.0]], [1]), "forest")

    def test_deterministic_given_order_and_seed(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        m1 = fit_arrays(X, y, "knn", k_neighbors=5)
        m2 = fit_arrays(X, y, "knn", k_neighbors=5)
        q = rng.normal(size=(4, 3))
        assert np.array_equal(predict_point(m1, q), predict_point(m2, q))

    @pytest.mark.parametrize("kind", ["mean", "linear_ls", "knn"])
    def test_non_finite_training_feature_names_row_and_column(self, kind):
        X = np.arange(10.0).reshape(5, 2)
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match=r"^row 3, feature 1: nan is not finite$"):
            fit_arrays(X, np.arange(5.0), kind)

    @pytest.mark.parametrize("kind", ["mean", "linear_ls", "knn"])
    def test_non_finite_training_label_names_row(self, kind):
        y = np.arange(5.0)
        y[2] = -np.inf
        with pytest.raises(ValueError, match=r"^row 2: label -inf is not finite$"):
            fit_arrays(np.arange(5.0)[:, None], y, kind)

    def test_fit_names_the_sample_index(self):
        train = [LabeledSample(40 + i, features=np.array([float(i), 1.0]), label=float(i))
                 for i in range(4)]
        train[2] = LabeledSample(42, features=np.array([2.0, np.inf]), label=2.0)
        with pytest.raises(ValueError, match=r"^sample 42, feature 1: inf is not finite$"):
            fit(train, "knn")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["linear_ls", "knn"])
    def test_non_finite_query_row_rejected(self, kind, bad):
        m = fit_arrays(np.arange(20.0).reshape(10, 2), np.arange(10.0), kind, k_neighbors=3)
        queries = np.zeros((3, 2))
        queries[1, 0] = bad
        calls = [lambda q: predict_point(m, q)]
        if kind == "knn":
            calls += [lambda q: predict_quantiles(m, q, (0.1, 0.9)),
                      lambda q: neighbor_labels(m, q)]
        for call in calls:
            with pytest.raises(ValueError, match=rf"^query row 1, feature 0: {bad} is"):
                call(queries)
            with pytest.raises(ValueError, match=r"^query row 0, feature 0: "):
                call(queries[1])

    def test_feature_width_mismatch_at_predict(self):
        m = fit(rows([[0.0, 1.0]], [1]), "mean")
        with pytest.raises(ValueError, match="width"):
            predict_point(m, np.array([0.0]))
