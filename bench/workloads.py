"""Benchmark workloads: seeded input generators plus the timed calls.

Each workload has three parts. ``setup`` turns the seed into inputs and
is timed as set-up. ``run`` is the timed part: it calls the public
``ciarith`` entry point and writes the report files. ``account`` runs
after the timer stops; it counts evaluations and checks the output.

Inputs are generated here, never by the program's own fixtures. Calls
go through module attributes (``ciarith.run_experiment``) so the tracer
can wrap them from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import ciarith
import ciarith.report

ALPHA = 0.1
# The A4 acceptance study runs at experiment seed 7; seed 0 reproduces it.
A4_SEED = 7
MIN_LENS = (1, 3, 5, 8)
SCORE_KINDS = ("split", "cqr")
# z_{0.95}: the record-api quantile bands are nominal 90% bands.
_Z90 = 1.6448536269514722


@dataclass
class Outcome:
    """What one run produced, counted after the timer stopped."""

    output: Path  # the file whose sha256 is the run's fingerprint
    attempted: int
    failed: int
    reps_done: int
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict[str, dict[str, Any]]  # "full" is benchmarked, "tiny" is for smoke tests
    setup: Callable[[dict, int, Path], Any]
    run: Callable[[dict, int, Any, Path], Any]
    account: Callable[[dict, int, Any, Path], Outcome]


def make_grid_graph(k: int, rng_seed: int) -> ciarith.WeightedGraph:
    """k x k four-neighbour grid; the same draws as the test suite's grid graphs."""
    rng = np.random.default_rng(rng_seed)
    edges = []
    for r in range(k):
        for c in range(k):
            u = r * k + c
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < k and 0 <= cc < k:
                    x1 = float(rng.uniform(0.1, 1.0))
                    x2 = float(rng.uniform(0.1, 1.0))
                    label = max(0.5 + x1 + 0.5 * x2 + 0.1 * float(rng.normal()), 0.01)
                    edges.append(
                        ciarith.Edge(len(edges), u, rr * k + cc, cost=label,
                                     features=(x1, x2), label=label)
                    )
    return ciarith.WeightedGraph(nodes=range(k * k), edges=edges)


def _grid_setup(p: dict, seed: int, work: Path) -> ciarith.WeightedGraph:
    # the CLI reads graphs from an edge list, so the benchmark does too
    path = work / "graph.csv"
    ciarith.save_edge_list(make_grid_graph(p["grid"], seed), path)
    return ciarith.load_edge_list(path)


def _account_harness(results, reps: int, methods, out: Path) -> Outcome:
    done = {(r.method, r.alpha): r.reps for r in results}
    per_method = [done.get((m, ALPHA), 0) for m in methods]
    return Outcome(
        output=out / "results.csv",
        attempted=reps * len(methods),
        failed=sum(reps - d for d in per_method),
        reps_done=min(per_method),
    )


# -- tabular-disjoint: the A1 `simulate` shape ------------------------------


def _tabular_setup(p, seed, work):
    return ciarith.generate_synthetic(p["n"], p["groups"], "gaussian", rng_seed=seed)


def _tabular_run(p, seed, inputs, out):
    dataset, groups = inputs
    config = ciarith.ExperimentConfig(alphas=(ALPHA,), reps=p["reps"], seed=seed)
    results = ciarith.run_experiment(dataset, groups, config)
    ciarith.report.emit_report(results, out)
    return results


def _tabular_account(p, seed, results, out):
    outcome = _account_harness(results, p["reps"], ciarith.METHOD_IDS, out)
    if p["check_coverage"]:
        coverage = {r.method: r.mean_coverage for r in results}
        for method in ("cia_split", "cia_cqr"):
            cov = coverage.get(method, math.nan)
            if not 0.88 <= cov <= 1.0:  # the A1 (Theorem 1) bound
                outcome.problems.append(f"{method} coverage {cov} outside [0.88, 1.0]")
    return outcome


# -- paths-grid30: path-cost on a 30 x 30 grid ------------------------------


def _paths_run(p, seed, graph, out):
    config = ciarith.ExperimentConfig(alphas=(ALPHA,), reps=p["reps"], seed=seed)
    spec = ciarith.PathSampling(n_paths=p["paths"], min_path_len=1)
    results = ciarith.run_experiment(graph, spec, config)
    ciarith.report.emit_report(results, out)
    return results


def _paths_account(p, seed, results, out):
    return _account_harness(results, p["reps"], ciarith.METHOD_IDS, out)


# -- overlap-grid10: the A4 overlap study -----------------------------------


def _overlap_run(p, seed, graph, out):
    config = ciarith.ExperimentConfig(
        alphas=(ALPHA,), reps=p["reps"], seed=A4_SEED + seed, methods=("cia_split",)
    )
    rows = ciarith.overlap_gap_study(graph, config, MIN_LENS, n_paths=p["paths"])
    ciarith.report.write_overlap_report(rows, out)
    return rows


def _overlap_account(p, seed, rows, out):
    reps = p["reps"]
    by_len = {r.min_len: r for r in rows}
    done = [by_len[m].reps if m in by_len else 0 for m in MIN_LENS]
    outcome = Outcome(
        output=out / "results.csv",
        attempted=reps * len(MIN_LENS),
        failed=sum(reps - d for d in done),
        reps_done=sum(done),
    )
    for m in MIN_LENS:
        if m not in by_len:
            outcome.problems.append(f"min_len {m}: no row")
    for r in rows:
        bound = 1 - r.alpha - r.delta_max - 0.03  # the A4 (Theorem 2) bound
        if r.coverage < bound:
            outcome.problems.append(f"min_len {r.min_len}: coverage {r.coverage} < {bound}")
    return outcome


# -- record-api: the record-level library path ------------------------------


def _records_setup(p, seed, work):
    rng = np.random.default_rng(seed)
    n = p["n"]
    mean = 0.5 + rng.standard_normal(n)
    sigma = rng.uniform(0.5, 1.5, n)
    y = mean + sigma * rng.standard_normal(n)
    pred = mean + 0.1 * rng.standard_normal(n)
    samples = ciarith.SampleSet(
        ciarith.LabeledSample(
            index=i, label=float(y[i]), point_pred=float(pred[i]),
            quant_lo=float(pred[i] - _Z90 * sigma[i]),
            quant_hi=float(pred[i] + _Z90 * sigma[i]),
        )
        for i in range(n)
    )
    groups = [
        ciarith.IndexGroup(group_id=g, members=frozenset(chunk.tolist()))
        for g, chunk in enumerate(np.array_split(rng.permutation(n), p["groups"]))
    ]
    return samples, groups


def _records_run(p, seed, inputs, out):
    samples, groups = inputs
    lines = ["rep,group_id,method,lower,upper"]
    attempted = failed = reps_done = 0
    for rep in range(p["reps"]):
        rep_failed = 0

        def evaluate(label, gid, fn, *args, **kwargs):
            nonlocal rep_failed
            try:
                iv = fn(*args, **kwargs)
            except ValueError as exc:
                rep_failed += 1
                lines.append(f"{rep},{gid},{label},error,{type(exc).__name__}")
            else:
                lines.append(f"{rep},{gid},{label},{iv.lower!r},{iv.upper!r}")

        assignment = ciarith.symmetric_split(range(len(samples)), 1000 * seed + rep)
        views = ciarith.split_groups(groups, assignment)
        cal = samples.subset(sorted(assignment.cal))
        targets = [v for v in views if v.test_size > 0]
        for v in targets:
            gid = v.group_id
            test = samples.subset(v.test_members)
            for kind in SCORE_KINDS:
                evaluate(f"cia_{kind}", gid, ciarith.cia_predict,
                         views, samples, gid, ALPHA, kind)
                evaluate(f"cia_{kind}_strat", gid, ciarith.stratified_cia_predict,
                         views, samples, gid, ALPHA, kind)
                evaluate(f"group_{kind}", gid, ciarith.group_sampling_predict,
                         cal, test, ALPHA, kind, rng_seed=1000 * seed + rep, group_id=gid)
                evaluate(f"bonf_{kind}", gid, ciarith.bonferroni_predict,
                         cal, test, ALPHA, kind, group_id=gid)
            evaluate("normal_homo", gid, ciarith.normal_homoscedastic_predict,
                     cal, test, ALPHA, group_id=gid)
        attempted += len(targets) * _RECORD_EVALS_PER_TARGET
        failed += rep_failed
        reps_done += rep_failed == 0
    out.mkdir(parents=True, exist_ok=True)
    (out / "intervals.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return attempted, failed, reps_done


def _records_account(p, seed, result, out):
    attempted, failed, reps_done = result
    return Outcome(output=out / "intervals.csv", attempted=attempted, failed=failed,
                   reps_done=reps_done)


# per target: four functions with both score kinds, plus the normal interval
_RECORD_EVALS_PER_TARGET = 4 * len(SCORE_KINDS) + 1


# Why each workload exists, and what it should and should not move: README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tabular-disjoint",
            sizes={
                # 40 reps keep the A1 coverage mean about 3.7 sd inside its bound
                "full": dict(n=4000, groups=200, reps=40, check_coverage=True),
                "tiny": dict(n=300, groups=20, reps=2, check_coverage=False),
            },
            setup=_tabular_setup,
            run=_tabular_run,
            account=_tabular_account,
        ),
        Workload(
            name="paths-grid30",
            sizes={
                # two reps, so the rep pool runs two threads
                "full": dict(grid=30, paths=2000, reps=2),
                "tiny": dict(grid=6, paths=40, reps=2),
            },
            setup=_grid_setup,
            run=_paths_run,
            account=_paths_account,
        ),
        Workload(
            name="overlap-grid10",
            sizes={
                "full": dict(grid=10, paths=100, reps=10),
                "tiny": dict(grid=6, paths=20, reps=2),
            },
            setup=_grid_setup,
            run=_overlap_run,
            account=_overlap_account,
        ),
        Workload(
            name="record-api",
            sizes={
                "full": dict(n=2000, groups=200, reps=1),
                "tiny": dict(n=200, groups=20, reps=2),
            },
            setup=_records_setup,
            run=_records_run,
            account=_records_account,
        ),
    )
}
