"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is budgeted to finish in a few minutes.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from ciarith.baselines import group_sampling_predict, normal_homoscedastic_predict
from ciarith.cia import (
    StrataSpec,
    cia_predict,
    split_groups,
    stratified_cia_predict,
    stratified_thresholds,
    symmetric_split,
)
from ciarith.cli import main
from ciarith.core import (
    IndexGroup,
    LabeledSample,
    SampleSet,
    SplitAssignment,
    conformal_quantile,
)
from ciarith.experiments import (
    ExperimentConfig,
    derive_seed,
    generate_synthetic,
    run_experiment,
)
from ciarith.graph import dijkstra
from ciarith.report import read_results_csv
from ciarith.scoring import split_group_score

from conftest import child_env, make_grid_graph
from test_graph import brute_force_cost, path_cost, random_graph


def sample(idx, y=0.0, pred=0.0, lo=None, hi=None):
    return LabeledSample(index=idx, label=y, point_pred=pred, quant_lo=lo, quant_hi=hi)


def spearman(x, y):
    """Rank correlation without ties handling (inputs here are tie-free)."""
    rx = np.argsort(np.argsort(x))
    ry = np.argsort(np.argsort(y))
    return float(np.corrcoef(rx, ry)[0, 1])


def test_a1_theorem1_coverage_on_synthetic_disjoint(tmp_path):
    out = tmp_path / "a1"
    start = time.monotonic()
    rc = main(
        ["simulate", "--n", "4000", "--groups", "200", "--noise", "gaussian",
         "--alpha", "0.1", "--reps", "300", "--out", str(out)]
    )
    elapsed = time.monotonic() - start
    assert rc == 0
    rows = {r.method: r for r in read_results_csv(out / "results.csv")}
    cov_split = rows["cia_split"].mean_coverage
    cov_cqr = rows["cia_cqr"].mean_coverage
    assert 0.88 <= cov_split <= 1.0, cov_split
    assert 0.88 <= cov_cqr <= 1.0, cov_cqr
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds budget"
    print(
        f"\nPASS A1: coverage cia_split={cov_split:.4f} cia_cqr={cov_cqr:.4f} "
        f"in [0.88, 1.00]; runtime {elapsed:.1f}s < 120s"
    )


def test_a2_quantile_matches_full_sort_oracle():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        a = int(rng.integers(1, 100))
        scores = (
            rng.integers(0, 6, size=n).astype(float)
            if rng.random() < 0.3
            else rng.uniform(0, 10, size=n)
        )
        alpha = Fraction(a, 100)
        k = math.ceil((1 + n) * (1 - alpha))
        expected = math.inf if k > n else sorted(scores)[k - 1]
        assert conformal_quantile(scores, float(alpha)).value == expected

    checked = 0
    for n in range(0, 31):
        scores = list(np.linspace(0.0, 2.0, n))
        for a in range(1, 100):
            alpha = Fraction(a, 100)
            k = math.ceil((1 + n) * (1 - alpha))
            assert conformal_quantile(scores, float(alpha)).is_infinite == (k > n)
            checked += 1
    print(f"\nPASS A2: 1000 random instances exact; sentinel rule on {checked} grid points")


def test_a3_rank_swap_invariance():
    rng = np.random.default_rng(303)
    for _ in range(100):
        n_groups = int(rng.integers(2, 10))
        idx = 0
        groups, samples = [], []
        for g in range(n_groups):
            members = []
            for _ in range(int(rng.integers(1, 7))):
                samples.append(sample(idx, y=float(rng.normal()), pred=float(rng.normal())))
                members.append(idx)
                idx += 1
            groups.append(IndexGroup(g, frozenset(members)))
        assignment = symmetric_split(range(idx), int(rng.integers(1 << 30)), "bernoulli")
        ss = SampleSet(samples)
        views = split_groups(groups, assignment)
        target = int(rng.integers(n_groups))
        tv = views[target]
        swapped = SplitAssignment(
            cal=(assignment.cal - set(tv.cal_members)) | set(tv.test_members),
            test=(assignment.test - set(tv.test_members)) | set(tv.cal_members),
        )
        before = [
            split_group_score(ss.subset(v.cal_members))
            for v in views if v.group_id != target
        ]
        after = [
            split_group_score(ss.subset(v.cal_members))
            for v in split_groups(groups, swapped) if v.group_id != target
        ]
        assert before == after  # bit-exact
    print("\nPASS A3: 100 random instances, non-target scores bit-exact under swap")


def test_a4_theorem2_bound_and_overlap_correlation(tmp_path):
    from ciarith.graph import save_edge_list

    graph_csv = tmp_path / "grid10.csv"
    save_edge_list(make_grid_graph(10, rng_seed=0), graph_csv)
    out = tmp_path / "a4"
    start = time.monotonic()
    rc = main(
        ["overlap-study", "--graph", str(graph_csv), "--min-len-grid", "1,3,5,8",
         "--alpha", "0.1", "--reps", "50", "--seed", "7", "--out", str(out)]
    )
    elapsed = time.monotonic() - start
    assert rc == 0
    import csv

    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for r in rows:
        cov = float(r["coverage_mean"])
        d_max = float(r["delta_max"])
        assert cov >= 1 - 0.1 - d_max - 0.03, r
    d_avg = [float(r["delta_avg"]) for r in rows]
    gap = [float(r["coverage_gap"]) for r in rows]
    rho = spearman(d_avg, gap)
    assert rho > 0, (d_avg, gap)
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds budget"
    print(
        f"\nPASS A4: all rows respect coverage >= 1-alpha-delta_max-0.03; "
        f"spearman(delta_avg, gap)={rho:.2f} > 0; runtime {elapsed:.1f}s < 300s"
    )


def test_a5_method_ordering():
    # Bonferroni pays width against the engine when groups pool >= 3 unknowns
    wins = 0
    med_sizes = []
    for s in range(100):
        ds, groups = generate_synthetic(600, 30, "gaussian", rng_seed=2000 + s)
        cfg = ExperimentConfig(
            alphas=(0.1,), reps=2, seed=s, methods=("cia_split", "bonf_split")
        )
        res = {r.method: r for r in run_experiment(ds, groups, cfg)}
        wins += res["bonf_split"].mean_size > res["cia_split"].mean_size
        universe = 600 - int(600 * cfg.train_frac)
        med_sizes.append(universe / 30 / 2)  # expected test members per group
    assert float(np.median(med_sizes)) >= 3
    assert wins >= 95, wins

    # the pooled-variance normal interval misses under heavy-tailed noise:
    # small training and calibration sets, group sums of several labels
    covs = []
    for s in range(400):
        ds, groups = generate_synthetic(60, 3, "student_t", rng_seed=1000 + s,
                                        n_features=1)
        cfg = ExperimentConfig(alphas=(0.1,), reps=1, seed=s,
                               methods=("normal_homo",), train_frac=0.4)
        (res,) = run_experiment(ds, groups, cfg)
        covs.append(res.mean_coverage)
    homo_cov = float(np.mean(covs))
    assert homo_cov < 1 - 0.1 - 0.03, homo_cov
    print(
        f"\nPASS A5: bonferroni wider than engine in {wins}/100 seeds (>=95); "
        f"normal_homo coverage {homo_cov:.4f} < 0.87 under t(3) noise"
    )


def test_a6_degeneracies():
    rng = np.random.default_rng(606)

    # (a) singleton groups + group sampling with K = |cal| is plain split CP
    for trial in range(20):
        n = int(rng.integers(5, 50))
        cal = [sample(i, y=float(rng.normal()), pred=float(rng.normal())) for i in range(n)]
        test = sample(999, y=0.0, pred=float(rng.normal()))
        iv = group_sampling_predict(cal, [test], 0.1, "split", K=n, rng_seed=trial)
        scores = sorted(abs(s.label - s.point_pred) for s in cal)
        k = math.ceil((1 + n) * 0.9)
        q = math.inf if k > n else scores[k - 1]
        assert (iv.lower, iv.upper) == (test.point_pred - q, test.point_pred + q)

    # (b) one all-covering stratum reproduces the unstratified engine
    # (c) collapsed quantile bands reproduce the split score
    for trial in range(30):
        n_groups = int(rng.integers(2, 8))
        idx = 0
        samples, views_members = [], []
        for g in range(n_groups):
            members = []
            for _ in range(int(rng.integers(1, 5))):
                y = float(rng.normal())
                p = float(rng.normal())
                samples.append(sample(idx, y=y, pred=p, lo=p, hi=p))
                members.append(idx)
                idx += 1
            views_members.append(members)
        ss = SampleSet(samples)
        assignment = symmetric_split(range(idx), trial, "bernoulli")
        groups = [IndexGroup(g, frozenset(m)) for g, m in enumerate(views_members)]
        views = split_groups(groups, assignment)
        tgt = next((v.group_id for v in views if v.test_size > 0), None)
        if tgt is None:
            continue
        plain = cia_predict(views, ss, tgt, 0.2, "split")
        strat = stratified_cia_predict(views, ss, tgt, 0.2, "split", StrataSpec(()))
        assert (plain.lower, plain.upper) == (strat.lower, strat.upper)
        cqr = cia_predict(views, ss, tgt, 0.2, "cqr")
        assert (plain.lower, plain.upper) == (cqr.lower, cqr.upper)
    print("\nPASS A6: split-CP, single-stratum, and collapsed-band degeneracies bit-exact")


def test_a7_dijkstra_against_exhaustive_enumeration():
    rng = np.random.default_rng(707)
    n_reachable = 0
    for _ in range(1000):
        g = random_graph(rng)
        s, t = (int(v) for v in rng.integers(g.n_nodes, size=2))
        p = dijkstra(g, s, t)
        expected = brute_force_cost(g, s, t)
        if p is None:
            assert expected is None
            continue
        n_reachable += 1
        g.validate_path(p)
        assert path_cost(g, p) == pytest.approx(expected, abs=1e-9)
        # subpath optimality: every prefix is itself a shortest path
        at, cost = s, 0.0
        for eid in p.edge_ids:
            e = g.edges[g.edge_row(eid)]
            cost += e.cost
            at = e.dst
            assert cost == pytest.approx(brute_force_cost(g, s, at), abs=1e-9)
    assert n_reachable > 300
    print(f"\nPASS A7: 1000 graphs vs exhaustive oracle ({n_reachable} reachable pairs)")


def test_a8_stratified_per_stratum_coverage():
    rng = np.random.default_rng(808)
    n_groups = 150
    sizes = rng.integers(1, 11, size=n_groups)
    n = int(sizes.sum())
    perm = rng.permutation(n)
    members, at = [], 0
    for s in sizes:
        members.append(np.sort(perm[at:at + s]))
        at += s
    y = rng.standard_normal(n)  # predictions are identically zero

    hits, totals = {}, {}
    for rep in range(300):
        a = symmetric_split(range(n), derive_seed(808, 1, rep), "balanced")
        is_cal = np.zeros(n, bool)
        is_cal[list(a.cal)] = True
        cal = [m[is_cal[m]] for m in members]
        test = [m[~is_cal[m]] for m in members]
        scores = np.array([abs(y[c].sum()) if c.size else 0.0 for c in cal])
        cal_sizes = np.array([c.size for c in cal])
        strata = StrataSpec.from_cal_sizes(cal_sizes)
        for t in range(n_groups):
            m_t = test[t].size
            if m_t == 0:
                continue
            q = stratified_thresholds(scores, cal_sizes, [m_t], [t], strata, 0.1)[0]
            j = int(strata.bucket_index_array(m_t))
            hits[j] = hits.get(j, 0) + (abs(y[test[t]].sum()) <= q)
            totals[j] = totals.get(j, 0) + 1
    assert len(totals) == 4
    report = []
    for j in sorted(totals):
        cov = hits[j] / totals[j]
        assert cov >= 1 - 0.1 - 0.04, (j, cov)
        report.append(f"stratum{j}={cov:.4f}")
    print(f"\nPASS A8: per-stratum coverage {' '.join(report)} all >= 0.86")


def test_a9_cli_reproducibility(tmp_path):
    base = [
        sys.executable, "-m", "ciarith.cli", "simulate", "--n", "300",
        "--groups", "20", "--noise", "gaussian", "--alpha", "0.1,0.05",
        "--reps", "5", "--seed", "11",
        "--methods", "cia_split,cia_cqr,bonf_split,normal_homo",
    ]
    for d in ("r1", "r2"):
        proc = subprocess.run(
            base + ["--out", str(tmp_path / d)], capture_output=True, text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
    b1 = (tmp_path / "r1/results.csv").read_bytes()
    b2 = (tmp_path / "r2/results.csv").read_bytes()
    assert b1 == b2
    print(f"\nPASS A9: two CLI runs byte-identical ({len(b1)} bytes)")
