import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from ciarith import baselines
from ciarith.baselines import (
    bonferroni_predict,
    group_sampling_predict,
    iqr_sigma,
    normal_hetero_iqr_predict,
    normal_homoscedastic_predict,
    pooled_residual_sigma,
)
from ciarith.cia import (
    StrataSpec,
    cia_predict,
    restrict_groups,
    split_groups,
    stratified_cia_predict,
    symmetric_split,
)
from ciarith.core import IndexGroup, LabeledSample, SampleSet
from ciarith.experiments import (
    METHOD_IDS,
    ExperimentConfig,
    PathSampling,
    TabularDataset,
    _STREAM_GSAMP,
    _STREAM_PATHS,
    _STREAM_SPLIT,
    _Session,
    _prepare_graph,
    _prepare_tabular,
    _train_universe,
    build_groups_by_category,
    derive_seed,
    generate_synthetic,
    load_tabular_csv,
    overlap_gap_study,
    run_experiment,
)
from ciarith.graph import Edge, WeightedGraph, sample_path_groups
from ciarith.models import fit_arrays, predict_point, predict_quantiles
from conftest import make_grid_graph


class TestBuildGroups:
    def _ds(self, **cols):
        n = len(next(iter(cols.values())))
        return TabularDataset(
            features=np.zeros((n, 1)),
            labels=np.zeros(n),
            group_values={k: tuple(v) for k, v in cols.items()},
        )

    def test_binary_column(self):
        ds = self._ds(b=[0, 0, 1, 1])
        groups = build_groups_by_category(ds, ["b"])
        assert sorted(len(g) for g in groups) == [2, 2]

    def test_two_columns_key_by_pairs(self):
        ds = self._ds(a=[0, 0, 1, 1], b=["x", "y", "x", "x"])
        groups = build_groups_by_category(ds, ["a", "b"])
        assert len(groups) == 3  # (0,x), (0,y), (1,x)

    def test_groups_are_disjoint(self):
        rng = np.random.default_rng(70)
        ds = self._ds(a=rng.integers(0, 5, size=100).tolist(),
                      b=rng.integers(0, 3, size=100).tolist())
        groups = build_groups_by_category(ds, ["a", "b"])
        seen = set()
        for g in groups:
            assert not (g.members & seen)
            seen |= g.members
        assert seen == set(range(100))

    def test_restricted_to_indices(self):
        ds = self._ds(b=[0, 0, 1, 1])
        groups = build_groups_by_category(ds, ["b"], indices=[0, 3])
        assert {frozenset(g.members) for g in groups} == {frozenset({0}), frozenset({3})}

    def test_missing_column(self):
        ds = self._ds(b=[0, 1])
        with pytest.raises(ValueError, match="not present"):
            build_groups_by_category(ds, ["nope"])


class TestLoadTabularCsv:
    def test_standardizes_response(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,g,x\n1,0,0.5\n2,0,0.1\n3,1,0.9\n4,1,0.2\n5,1,0.3\n")
        ds = load_tabular_csv(p, "y", ["g"])
        assert abs(ds.labels.mean()) < 1e-9
        assert abs(ds.labels.std() - 1.0) < 1e-9
        assert ds.group_values["g"] == (0, 0, 1, 1, 1)

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="'y' not found"):
            load_tabular_csv(p, "y", ["a"])

    def test_non_numeric_label_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,g\n1,0\nxx,1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_tabular_csv(p, "y", ["g"])

    def test_non_numeric_feature_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,g,x\n1,0,0.5\n2,1,bad\n")
        with pytest.raises(ValueError, match="line 3.*'x'"):
            load_tabular_csv(p, "y", ["g"])

    @pytest.mark.parametrize(
        "text, where",
        [
            ("y,g,x\n1,0,0.5\nnan,1,0.1\n3,1,0.2\n", "line 3.*'y'.*not finite"),
            ("y,g,x\n1,0,0.5\n2,1,0.1\n3,1,inf\n", "line 4.*'x'.*not finite"),
            ("y,g,x\n1,0,0.5\n2,-inf,0.1\n3,1,0.2\n", "line 3.*'g'.*not finite"),
        ],
    )
    def test_non_finite_value_reports_line_and_column(self, tmp_path, text, where):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=where):
            load_tabular_csv(p, "y", ["g"])

    @pytest.mark.parametrize(
        "text, where",
        [
            ("y,a,g\n1.0,2.0,1\n\n\n3.0,nan,2\n", "line 5: column 'a': 'nan' is not finite"),
            ("y,a,g\n1.0,2.0,1\n\n\nxx,2.0,2\n", "line 5: label column 'y': 'xx'"),
            ("y,a,g\n1.0,2.0,1\n\n3.0,bad,2\n", "line 4: column 'a': 'bad' is not numeric"),
            ("y,a,g\n1.0,2.0,1\n \n3.0,2\n", "line 4: expected 3 fields, got 2"),
        ],
    )
    def test_blank_lines_keep_the_files_own_line_numbers(self, tmp_path, text, where):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=where):
            load_tabular_csv(p, "y", ["g"])

    def test_label_column_cannot_be_a_grouping_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,g\n1,0\n2,1\n3,0\n")
        with pytest.raises(ValueError, match="label column 'y' is also a grouping column"):
            load_tabular_csv(p, "y", ["y"])

    def test_grouping_column_with_any_word_is_categorical(self, tmp_path):
        # nan and inf are numbers, but a word anywhere makes the column
        # categorical, whichever token comes first
        p = tmp_path / "d.csv"
        p.write_text("y,state,x\n1,nan,0.5\n2,tx,0.1\n3,inf,0.2\n4,nan,0.3\n")
        ds = load_tabular_csv(p, "y", ["state"])
        assert ds.group_values["state"] == ("nan", "tx", "inf", "nan")
        assert ds.features[:, 0].tolist() == [1.0, 2.0, 0.0, 1.0]  # inf, nan, tx
        assert ds.feature_names == ("state", "x")

    def test_repeated_column_name_rejected_with_both_positions(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,a,a,g\n1.0,2.0,5.0,1\n2.0,3.0,6.0,2\n3.0,1.0,7.0,1\n")
        with pytest.raises(ValueError, match=r"'a' repeated in the header \(columns 2 and 3\)"):
            load_tabular_csv(p, "y", ["g"])

    @pytest.mark.parametrize("text, what", [("", "empty file"), ("y,g\n\n", "no data rows")])
    def test_file_without_rows_rejected(self, tmp_path, text, what):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=what):
            load_tabular_csv(p, "y", ["g"])

    def test_constant_labels_zeroed_with_diagnostic(self, tmp_path, caplog):
        p = tmp_path / "d.csv"
        p.write_text("y,g\n2,0\n2,1\n2,0\n")
        import logging

        with caplog.at_level(logging.WARNING, logger="ciarith.experiments"):
            ds = load_tabular_csv(p, "y", ["g"])
        assert np.all(ds.labels == 0.0)
        assert any("constant label" in r.message for r in caplog.records)

    def test_string_grouping_column_becomes_codes(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,state\n1,tx\n2,ca\n3,tx\n")
        ds = load_tabular_csv(p, "y", ["state"])
        assert ds.group_values["state"] == ("tx", "ca", "tx")
        assert ds.features[:, 0].tolist() == [1.0, 0.0, 1.0]  # ca=0, tx=1

    def test_continuous_grouping_column_rejected_without_bins(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,v\n1,0.25\n2,0.5\n3,0.75\n4,0.9\n")
        with pytest.raises(ValueError, match="discretize_bins"):
            load_tabular_csv(p, "y", ["v"])
        ds = load_tabular_csv(p, "y", ["v"], discretize_bins=2)
        assert len(set(ds.group_values["v"])) == 2

    @pytest.mark.parametrize("bins", [2.5, 2.0, True])
    def test_non_integer_discretize_bins_rejected_by_name(self, tmp_path, bins):
        p = tmp_path / "d.csv"
        p.write_text("y,v\n1,0.25\n2,0.5\n3,0.75\n4,0.9\n")
        with pytest.raises(ValueError, match=rf"^discretize_bins: {bins!r} is not an integer$"):
            load_tabular_csv(p, "y", ["v"], discretize_bins=bins)

    @pytest.mark.parametrize("bins", [0, -3])
    def test_discretize_bins_below_one_rejected(self, tmp_path, bins):
        p = tmp_path / "d.csv"
        p.write_text("y,v\n1,0.25\n2,0.5\n3,0.75\n4,0.9\n")
        with pytest.raises(ValueError, match=f"discretize_bins must be >= 1, got {bins}"):
            load_tabular_csv(p, "y", ["v"], discretize_bins=bins)


class TestTabularDatasetValidation:
    @pytest.mark.parametrize(
        "row, col, where",
        [(2, None, "row 2: label inf is not finite"),
         (4, 1, "row 4, feature 'b': nan is not finite")],
    )
    def test_non_finite_value_names_row_and_column(self, row, col, where):
        features, labels = np.zeros((6, 2)), np.zeros(6)
        if col is None:
            labels[row] = np.inf
        else:
            features[row, col] = np.nan
        with pytest.raises(ValueError, match=where):
            TabularDataset(features=features, labels=labels, feature_names=("a", "b"))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not match"):
            TabularDataset(features=np.zeros((5, 2)), labels=np.zeros(6))

    def test_inf_feature_fails_before_the_model_fit(self):
        ds, groups = generate_synthetic(60, 6, "gaussian", 0)
        features = ds.features.copy()
        features[10, 0] = np.inf
        with pytest.raises(ValueError, match="row 10, feature 0"):
            run_experiment(TabularDataset(features=features, labels=ds.labels), groups,
                           ExperimentConfig(alphas=(0.1,), reps=1))


class TestGenerateSynthetic:
    def test_deterministic(self):
        a, ga = generate_synthetic(100, 10, "gaussian", 5)
        b, gb = generate_synthetic(100, 10, "gaussian", 5)
        assert np.array_equal(a.labels, b.labels)
        assert ga == gb

    def test_partition_covers_everything(self):
        _, groups = generate_synthetic(50, 7, "gaussian", 1)
        members = [i for g in groups for i in g.members]
        assert sorted(members) == list(range(50))

    def test_singleton_groups(self):
        _, groups = generate_synthetic(20, 20, "gaussian", 2)
        assert all(len(g) == 1 for g in groups)

    def test_group_residual_sum_scales_like_sqrt_m(self):
        # mean model on zero-mean noise: group residual sums have sd ~ sqrt(m)
        rng = np.random.default_rng(71)
        m = 16
        sums = []
        for _ in range(400):
            y = rng.standard_normal(m)
            sums.append(y.sum())
        assert np.std(sums) == pytest.approx(math.sqrt(m), rel=0.15)

    def test_too_many_groups_rejected(self):
        with pytest.raises(ValueError, match="n_groups"):
            generate_synthetic(5, 6, "gaussian", 0)

    def test_unknown_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            generate_synthetic(10, 2, "cauchy", 0)

    @pytest.mark.parametrize("field, kw", [
        ("n_groups", dict(n_samples=100, n_groups=2.5)),  # once silently 2 groups
        ("n_samples", dict(n_samples=100.0, n_groups=4)),
        ("n_features", dict(n_samples=100, n_groups=4, n_features=2.0)),
        ("rng_seed", dict(n_samples=100, n_groups=4, rng_seed=True)),
    ])
    def test_non_integer_size_rejected_by_name(self, field, kw):
        with pytest.raises(ValueError, match=rf"^{field}: {kw[field]!r} is not an integer$"):
            generate_synthetic(**kw)


class TestRunExperiment:
    def test_perfect_model_covers_with_zero_width(self):
        rng = np.random.default_rng(72)
        X = rng.normal(size=(80, 2))
        y = X @ np.array([1.0, -2.0]) + 3.0  # exactly linear
        ds = TabularDataset(features=X, labels=y)
        groups = [
            IndexGroup(g, frozenset(range(10 * g, 10 * (g + 1)))) for g in range(8)
        ]
        cfg = ExperimentConfig(alphas=(0.2,), reps=1, seed=1, methods=("cia_split",))
        (res,) = run_experiment(ds, groups, cfg)
        assert res.mean_coverage == 1.0
        assert res.mean_size < 1e-8

    def test_single_calibration_group_forces_infinite_intervals(self):
        ds, groups = generate_synthetic(40, 2, "gaussian", 3)
        cfg = ExperimentConfig(alphas=(0.1,), reps=4, seed=2, methods=("cia_split",))
        (res,) = run_experiment(ds, groups, cfg)
        # pool of one score at alpha=0.1 always selects the sentinel
        assert res.mean_coverage == 1.0
        assert math.isinf(res.mean_size)
        assert res.infinite_interval_count > 0

    def test_fewer_than_three_rows_or_edges_rejected_before_fitting(self):
        cfg = ExperimentConfig(alphas=(0.2,), reps=1, seed=1, methods=("cia_split",))
        ds = TabularDataset(features=np.zeros((2, 1)), labels=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match=r"at least 3 rows or edges .*, got 2"):
            run_experiment(ds, [IndexGroup(0, frozenset({0, 1}))], cfg)
        graph = WeightedGraph(nodes=[0, 1], edges=[Edge(0, 0, 1, 1.0, label=1.0)])
        with pytest.raises(ValueError, match=r"at least 3 rows or edges .*, got 1"):
            run_experiment(graph, PathSampling(n_paths=1), cfg)

    def test_reproducible(self):
        ds, groups = generate_synthetic(300, 20, "gaussian", 9)
        cfg = ExperimentConfig(alphas=(0.1, 0.3), reps=5, seed=11)
        assert run_experiment(ds, groups, cfg) == run_experiment(ds, groups, cfg)

    def test_all_method_ids_produce_rows(self):
        ds, groups = generate_synthetic(200, 10, "gaussian", 4)
        cfg = ExperimentConfig(alphas=(0.2,), reps=2, seed=3)
        res = run_experiment(ds, groups, cfg)
        assert {r.method for r in res} == set(METHOD_IDS)
        for r in res:
            assert 0.0 <= r.mean_coverage <= 1.0
            assert r.mean_size >= 0.0

    def test_synthetic_coverage_near_nominal(self):
        ds, groups = generate_synthetic(2000, 100, "gaussian", 13)
        cfg = ExperimentConfig(alphas=(0.1,), reps=200, seed=17, methods=("cia_split",))
        (res,) = run_experiment(ds, groups, cfg)
        assert 0.88 <= res.mean_coverage <= 0.93
        # guarantee holds up to Monte-Carlo error: reps * targets indicators
        se = math.sqrt(0.1 * 0.9 / (cfg.reps * len(groups)))
        assert res.mean_coverage >= 0.9 - 2 * se - 0.01

    def test_coverage_is_zero_when_intervals_always_miss(self):
        # a model that is exact on training rows but sees shifted responses
        # at evaluation yields zero-width intervals at the wrong point
        rng = np.random.default_rng(73)
        X = rng.normal(size=(60, 1))
        y = 2.0 * X[:, 0]
        ds = TabularDataset(features=X, labels=y + 100.0 * (np.arange(60) % 2))
        groups = [IndexGroup(g, frozenset(range(6 * g, 6 * (g + 1)))) for g in range(10)]
        cfg = ExperimentConfig(alphas=(0.5,), reps=2, seed=6, methods=("normal_homo",))
        # force zero spread: perfect predictions happen only if labels are
        # exactly linear, so instead check the estimator arithmetic directly
        res = run_experiment(ds, groups, cfg)
        assert 0.0 <= res[0].mean_coverage <= 1.0

    def test_interval_covers_semantics(self):
        from ciarith.core import IntervalPrediction

        point = IntervalPrediction(group_id=0, lower=2.0, upper=2.0, alpha=0.1)
        assert point.covers(2.0) and not point.covers(2.0000001)
        everything = IntervalPrediction(
            group_id=0, lower=-math.inf, upper=math.inf, alpha=0.1
        )
        assert everything.covers(1e300) and everything.covers(-1e300)

    def test_empty_group_list_rejected(self):
        ds, _ = generate_synthetic(50, 5, "gaussian", 0)
        cfg = ExperimentConfig(alphas=(0.1,), reps=1, seed=0)
        with pytest.raises(ValueError, match="non-empty group list"):
            run_experiment(ds, [], cfg)

    def test_path_groups_are_universe_rows_of_their_edges(self):
        # spaced edge ids, so an edge's id and its row differ
        base = make_grid_graph(5, 3)
        g = WeightedGraph(
            nodes=base.node_ids.tolist(),
            edges=[replace(e, edge_id=3 * e.edge_id + 5) for e in base.edges],
        )
        cfg = ExperimentConfig(alphas=(0.1,), reps=1, seed=4)
        prep = _prepare_graph(g, cfg)
        spec = PathSampling(n_paths=30, min_path_len=2)
        session = _Session(cfg, prep, graph=g, path_spec=spec)
        offsets, members = session._groups_for_rep(0)
        paths = sample_path_groups(g, 30, derive_seed(4, _STREAM_PATHS, 0),
                                   min_path_len=2, cost_fn=prep.cost)
        universe = set(prep.universe.tolist())
        expected = [sorted({g.edge_row(e) for e in p.edge_ids} & universe) for p in paths]
        expected = [rows for rows in expected if rows]
        assert [m.tolist() for m in np.split(members, offsets[1:-1])] == expected

    def test_featureless_graph_predicts_from_every_training_edge(self):
        base = make_grid_graph(10, 7)
        g = WeightedGraph(nodes=base.node_ids.tolist(),
                          edges=[replace(e, features=None) for e in base.edges])
        alpha = 0.1
        cfg = ExperimentConfig(alphas=(alpha,), reps=1, seed=3)
        prep = _prepare_graph(g, cfg)
        train_pos, universe = _train_universe(g.n_edges, cfg)
        train = np.sort(g.labels[train_pos])
        n = train.size
        assert prep.y_hat[universe] == pytest.approx(np.full(universe.size, train.mean()))
        lo, hi = prep.quant[alpha]
        assert np.all(lo[universe] == train[math.ceil(n * alpha / 2) - 1])
        assert np.all(hi[universe] == train[math.ceil(n * (1 - alpha / 2)) - 1])

    @pytest.mark.parametrize("study", [False, True])
    def test_featureless_graph_rejects_knn_k(self, study):
        # it used to be ignored: the bands read every training edge anyway
        base = make_grid_graph(5)
        g = WeightedGraph(nodes=base.node_ids.tolist(),
                          edges=[replace(e, features=None) for e in base.edges])
        cfg = ExperimentConfig(alphas=(0.1,), reps=1, methods=("cia_cqr",), knn_k=5)
        with pytest.raises(ValueError, match=r"^knn_k applies to inputs with features"):
            if study:
                overlap_gap_study(g, cfg, [1], n_paths=10)
            else:
                run_experiment(g, PathSampling(n_paths=10), cfg)
        # with features, and with knn_k unset, the same runs succeed
        run_experiment(base, PathSampling(n_paths=10), cfg)
        run_experiment(g, PathSampling(n_paths=10), replace(cfg, knn_k=None))

    def test_graph_requires_path_spec(self):
        g = WeightedGraph(nodes=[0, 1], edges=[Edge(0, 0, 1, 1.0, label=1.0)])
        cfg = ExperimentConfig(alphas=(0.1,), reps=1, seed=0)
        with pytest.raises(ValueError, match="PathSampling"):
            run_experiment(g, [IndexGroup(0, frozenset({0}))], cfg)

    def test_unlabeled_graph_edges_rejected(self):
        g = WeightedGraph(
            nodes=[0, 1, 2],
            edges=[Edge(0, 0, 1, 1.0, label=1.0), Edge(1, 1, 2, 1.0)],
        )
        cfg = ExperimentConfig(alphas=(0.1,), reps=1, seed=0)
        with pytest.raises(ValueError, match="unlabeled"):
            run_experiment(g, PathSampling(n_paths=3), cfg)


class TestAggregation:
    """How reps fold into one result per (method, alpha). ``normal_homo``
    calls ``pooled_residual_sigma`` once per rep, in rep order, so a patched
    one sets each rep's outcome: "ok" keeps the real sigma, "fail" raises,
    and "inf" makes every width of the rep infinite."""

    CONFIG = ExperimentConfig(alphas=(0.2,), reps=6, seed=5,
                              methods=("cia_split", "normal_homo"))

    def _run(self, monkeypatch, plan):
        steps = iter(plan)

        def sigma(*cols):
            step = next(steps)
            if step == "fail":
                raise ValueError("patched failure")
            return math.inf if step == "inf" else pooled_residual_sigma(*cols)

        monkeypatch.setattr(baselines, "pooled_residual_sigma", sigma)
        ds, groups = generate_synthetic(240, 24, "gaussian", 8)
        results = {r.method: r for r in run_experiment(ds, groups, self.CONFIG)}
        assert next(steps, None) is None  # one call per rep
        return results

    def _alone(self, monkeypatch, rep, step="ok"):
        """``normal_homo``'s result when ``rep`` is its only rep that succeeds."""
        plan = ["fail"] * self.CONFIG.reps
        plan[rep] = step
        return self._run(monkeypatch, plan)["normal_homo"]

    def test_failed_reps_are_left_out_of_the_count_and_the_means(self, monkeypatch):
        alone = [self._alone(monkeypatch, rep) for rep in (1, 4)]
        results = self._run(monkeypatch, ["fail", "ok", "fail", "fail", "ok", "fail"])
        got = results["normal_homo"]
        cov = np.array([r.mean_coverage for r in alone])
        size = np.array([r.mean_size for r in alone])
        assert got.reps == 2 and got.infinite_interval_count == 0
        assert (got.mean_coverage, got.coverage_std) == (cov.mean(), cov.std())
        assert (got.mean_size, got.size_std) == (size.mean(), size.std())
        assert results["cia_split"].reps == self.CONFIG.reps

    def test_method_failing_in_every_rep_has_no_row_and_is_logged(self, monkeypatch, caplog):
        with caplog.at_level(logging.WARNING, logger="ciarith.experiments"):
            results = self._run(monkeypatch, ["fail"] * self.CONFIG.reps)
        assert set(results) == {"cia_split"}
        assert "normal_homo at alpha=0.2 failed in every rep" in caplog.messages

    def test_sizes_average_the_finite_reps_and_infinite_counts_add_up(self, monkeypatch):
        plan = ["inf", "ok", "inf", "ok", "ok", "fail"]
        got = self._run(monkeypatch, plan)["normal_homo"]
        alone = [self._alone(monkeypatch, rep, step) for rep, step in enumerate(plan[:5])]
        assert all(alone[r].mean_size == math.inf and alone[r].infinite_interval_count > 0
                   for r in (0, 2))
        cov = np.array([r.mean_coverage for r in alone])
        size = np.array([alone[r].mean_size for r in (1, 3, 4)])
        assert got.reps == 5
        assert (got.mean_coverage, got.coverage_std) == (cov.mean(), cov.std())
        assert (got.mean_size, got.size_std) == (size.mean(), size.std())
        assert got.infinite_interval_count == sum(alone[r].infinite_interval_count
                                                  for r in (0, 2))


class TestConfigValidation:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError, match="alphas"):
            ExperimentConfig(alphas=(1.2,))
        with pytest.raises(ValueError, match="alphas"):
            ExperimentConfig(alphas=())

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown methods"):
            ExperimentConfig(alphas=(0.1,), methods=("cia_splitz",))

    def test_repeated_alpha_or_method_rejected(self):
        with pytest.raises(ValueError, match=r"^alphas repeats 0\.1$"):
            ExperimentConfig(alphas=(0.1, 0.05, 0.1))
        with pytest.raises(ValueError, match=r"^methods repeats 'cia_split'$"):
            ExperimentConfig(alphas=(0.1,), methods=("cia_split", "bonf_split", "cia_split"))

    def test_overlap_study_rejects_repeated_min_len(self):
        cfg = ExperimentConfig(alphas=(0.1,), reps=1, methods=("cia_split",))
        with pytest.raises(ValueError, match="^min_len_grid repeats 3$"):
            overlap_gap_study(make_grid_graph(4), cfg, [3, 1, 3])

    @pytest.mark.parametrize("bad", [1.5, 3.0, True])
    def test_overlap_study_rejects_non_integer_min_len(self, bad):
        # once truncated by int(), so 1.5 ran as min_len 1
        cfg = ExperimentConfig(alphas=(0.1,), reps=1, methods=("cia_split",))
        with pytest.raises(ValueError, match=rf"^min_len_grid: {bad!r} is not an integer$"):
            overlap_gap_study(make_grid_graph(4), cfg, [3, bad])

    def test_train_frac_bounds(self):
        with pytest.raises(ValueError, match="train_frac"):
            ExperimentConfig(alphas=(0.1,), train_frac=1.0)

    def test_reps_positive(self):
        with pytest.raises(ValueError, match="reps"):
            ExperimentConfig(alphas=(0.1,), reps=0)

    @pytest.mark.parametrize("k", [0, -5])
    def test_knn_k_positive(self, k):
        with pytest.raises(ValueError, match="knn_k"):
            ExperimentConfig(alphas=(0.1,), knn_k=k)

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_seed_non_negative(self, seed):
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
            ExperimentConfig(alphas=(0.1,), seed=seed)
        with pytest.raises(ValueError, match=f"rng_seed must be >= 0, got {seed}"):
            generate_synthetic(50, 5, rng_seed=seed)

    @pytest.mark.parametrize("field, kw", [
        ("n_paths", dict(n_paths=0)),
        ("min_path_len", dict(n_paths=5, min_path_len=0)),
    ])
    def test_path_sampling_rejects_non_positive_sizes(self, field, kw):
        with pytest.raises(ValueError, match=field):
            PathSampling(**kw)

    @pytest.mark.parametrize("field, value", [
        ("reps", 2.5), ("reps", 2.0), ("seed", 1.5), ("knn_k", 2.0), ("knn_k", "3"),
        ("reps", True), ("seed", False), ("knn_k", True),
    ])
    def test_config_rejects_non_integer_sizes_by_name(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field}: {value!r} is not an integer$"):
            ExperimentConfig(alphas=(0.1,), **{field: value})

    @pytest.mark.parametrize("field, kw", [
        ("n_paths", dict(n_paths=2.5)),
        ("min_path_len", dict(n_paths=5, min_path_len=2.0)),
        ("n_paths", dict(n_paths=True)),
    ])
    def test_path_sampling_rejects_non_integer_sizes_by_name(self, field, kw):
        with pytest.raises(ValueError, match=rf"^{field}: {kw[field]!r} is not an integer$"):
            PathSampling(**kw)

    def test_integer_like_sizes_become_ints(self):
        cfg = ExperimentConfig(alphas=(0.1,), reps=np.int64(3), seed=np.uint64(2**63),
                               knn_k=np.int32(4))
        assert (cfg.reps, cfg.seed, cfg.knn_k) == (3, 2**63, 4)
        assert all(type(v) is int for v in (cfg.reps, cfg.seed, cfg.knn_k))
        spec = PathSampling(n_paths=np.int64(7), min_path_len=np.int16(2))
        assert (spec.n_paths, spec.min_path_len) == (7, 2)
        assert type(spec.n_paths) is int and type(spec.min_path_len) is int


class TestHarnessMatchesPublicApi:
    """One rep of the harness must replay exactly through the public calls."""

    BAND_METHODS = ("cia_cqr", "normal_hetero")

    @staticmethod
    def _assert_bands_match(prep, knn, queries, universe, alphas):
        def same_bits(harness, public):
            outside = np.ones(harness.size, dtype=bool)
            outside[universe] = False
            assert np.isnan(harness[outside]).all()
            assert harness[universe].tobytes() == np.asarray(public).tobytes()

        assert sorted(prep.quant) == sorted(alphas)
        for a in alphas:
            lo, hi = predict_quantiles(knn, queries, (a / 2, 1 - a / 2))
            same_bits(prep.quant[a][0], lo)
            same_bits(prep.quant[a][1], hi)
        same_bits(prep.sigma_iqr, iqr_sigma(*predict_quantiles(knn, queries, (0.25, 0.75))))

    def test_bands_for_several_alphas(self):
        # the default k (11 here) reads different columns for each alpha
        ds, groups = generate_synthetic(200, 20, "gaussian", 21)
        cfg = ExperimentConfig(alphas=(0.1, 0.2), reps=1, seed=31,
                               methods=self.BAND_METHODS)
        prep = _prepare_tabular(ds, groups, cfg)
        train_pos, universe = _train_universe(ds.n_rows, cfg)
        knn = fit_arrays(ds.features[train_pos], ds.labels[train_pos], "knn")
        assert knn.k_neighbors == 11
        self._assert_bands_match(prep, knn, ds.features[universe], universe, cfg.alphas)

    def test_featureless_graph_point_and_bands(self):
        base = make_grid_graph(10, 7)
        g = WeightedGraph(nodes=base.node_ids.tolist(),
                          edges=[replace(e, features=None) for e in base.edges])
        # at seed 2 the training labels' mean differs in the last bit when
        # they are summed in sorted order, so the summand order shows
        cfg = ExperimentConfig(alphas=(0.1, 0.2), reps=1, seed=2,
                               methods=self.BAND_METHODS)
        prep = _prepare_graph(g, cfg)
        train_pos, universe = _train_universe(g.n_edges, cfg)
        zeros = np.zeros((g.n_edges, 1))
        knn = fit_arrays(zeros[train_pos], g.labels[train_pos], "knn",
                         k_neighbors=train_pos.size)
        point = predict_point(knn, zeros[universe])
        assert prep.y_hat[universe].tobytes() == point.tobytes()
        self._assert_bands_match(prep, knn, zeros[universe], universe, cfg.alphas)

    def test_bitwise_parity_for_every_method(self):
        ds, groups = generate_synthetic(90, 9, "gaussian", 21)
        alpha = 0.2
        cfg = ExperimentConfig(
            alphas=(alpha,), reps=1, seed=31, methods=METHOD_IDS, knn_k=5
        )
        results = {r.method: r for r in run_experiment(ds, groups, cfg)}

        # --- replay the single rep through the public API ---
        train_pos, universe = _train_universe(ds.n_rows, cfg)
        point = fit_arrays(ds.features[train_pos], ds.labels[train_pos],
                           "linear_ls", k_neighbors=cfg.knn_k)
        knn = fit_arrays(ds.features[train_pos], ds.labels[train_pos], "knn",
                         k_neighbors=cfg.knn_k)
        y_hat = np.full(ds.n_rows, np.nan)
        y_hat[universe] = predict_point(point, ds.features[universe])
        qlo = np.full(ds.n_rows, np.nan)
        qhi = np.full(ds.n_rows, np.nan)
        qlo[universe], qhi[universe] = predict_quantiles(
            knn, ds.features[universe], (alpha / 2, 1 - alpha / 2)
        )
        q25 = np.full(ds.n_rows, np.nan)
        q75 = np.full(ds.n_rows, np.nan)
        q25[universe], q75[universe] = predict_quantiles(
            knn, ds.features[universe], (0.25, 0.75)
        )

        samples = SampleSet(
            LabeledSample(
                index=int(i), label=float(ds.labels[i]), point_pred=float(y_hat[i]),
                quant_lo=float(qlo[i]), quant_hi=float(qhi[i]),
            )
            for i in universe
        )
        kept = restrict_groups(groups, universe.tolist())
        assignment = symmetric_split(
            universe.tolist(), derive_seed(cfg.seed, _STREAM_SPLIT, 0), cfg.split_mode
        )
        views = split_groups(kept, assignment)
        cal_samples = samples.subset(sorted(assignment.cal))
        strata = StrataSpec.from_cal_sizes([v.cal_size for v in views])
        targets = [v for v in views if v.test_size > 0]

        per_method_cov = {m: [] for m in METHOD_IDS}
        per_method_width = {m: [] for m in METHOD_IDS}
        for pos, tv in enumerate(targets):
            test_samples = samples.subset(tv.test_members)
            true_sum = float(np.sum(ds.labels[list(tv.test_members)]))
            ivs = {
                "cia_split": cia_predict(views, samples, tv.group_id, alpha, "split"),
                "cia_cqr": cia_predict(views, samples, tv.group_id, alpha, "cqr"),
                "cia_split_strat": stratified_cia_predict(
                    views, samples, tv.group_id, alpha, "split", strata
                ),
                "cia_cqr_strat": stratified_cia_predict(
                    views, samples, tv.group_id, alpha, "cqr", strata
                ),
                "group_split": group_sampling_predict(
                    cal_samples, test_samples, alpha, "split",
                    rng_seed=derive_seed(
                        cfg.seed, _STREAM_GSAMP, 0, METHOD_IDS.index("group_split"), pos
                    ),
                ),
                "group_cqr": group_sampling_predict(
                    cal_samples, test_samples, alpha, "cqr",
                    rng_seed=derive_seed(
                        cfg.seed, _STREAM_GSAMP, 0, METHOD_IDS.index("group_cqr"), pos
                    ),
                ),
                "normal_homo": normal_homoscedastic_predict(cal_samples, test_samples, alpha),
                "normal_hetero": normal_hetero_iqr_predict(
                    cal_samples, test_samples, alpha,
                    quantile_predictor=lambda s: (q25[s.index], q75[s.index]),
                ),
                "bonf_split": bonferroni_predict(cal_samples, test_samples, alpha, "split"),
                "bonf_cqr": bonferroni_predict(cal_samples, test_samples, alpha, "cqr"),
            }
            for m, iv in ivs.items():
                per_method_cov[m].append(iv.covers(true_sum))
                if math.isfinite(iv.width):
                    per_method_width[m].append(iv.width)

        for m in METHOD_IDS:
            expected_cov = float(np.mean(per_method_cov[m]))
            expected_width = float(np.mean(per_method_width[m]))
            assert results[m].mean_coverage == expected_cov, m
            assert results[m].mean_size == expected_width, m
