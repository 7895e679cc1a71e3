"""Command-line experiment runner.

Four subcommands: ``group-avg`` (category averages on tabular data),
``path-cost`` (shortest-path cost sums on an edge-list graph),
``simulate`` (synthetic data with known properties), and
``overlap-study`` (coverage gap versus group overlap on a graph).
Each writes results.csv and SVG charts into --out and exits 0; failures
emit one JSON line on stderr and a nonzero exit code.

The first three share one command body, :func:`_cmd_experiment`; each
supplies only an ``inputs`` function that builds its ``(data, grouping)``.
``overlap-study`` has its own body, because its table has other columns.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .experiments import (
    METHOD_IDS,
    ExperimentConfig,
    PathSampling,
    build_groups_by_category,
    generate_synthetic,
    load_tabular_csv,
    overlap_gap_study,
    run_experiment,
)
from .graph import load_edge_list
from .report import emit_report, write_overlap_report

__all__ = ["main"]

logger = logging.getLogger(__name__)


def _alphas(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _methods(text: str) -> tuple[str, ...]:
    if text.strip() == "all":
        return METHOD_IDS
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _add_common(p: argparse.ArgumentParser, default_methods: str = "all") -> None:
    p.add_argument("--alpha", type=_alphas, default=(0.1,),
                   help="comma-separated miscoverage levels (default 0.1)")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", type=_methods, default=_methods(default_methods),
                   help=f"comma-separated subset of {','.join(METHOD_IDS)}, or 'all'")
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--split", choices=("balanced", "bernoulli"), default="balanced")
    p.add_argument("--knn-k", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--log-level", choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                   default="WARNING", help="lowest level of log records on stderr "
                   "(default WARNING)")


def _config(args) -> ExperimentConfig:
    return ExperimentConfig(
        alphas=args.alpha,
        reps=args.reps,
        seed=args.seed,
        methods=args.methods,
        train_frac=args.train_frac,
        split_mode=args.split,
        knn_k=args.knn_k,
    )


def _print_results(results) -> None:
    print(f"{'method':<16} {'alpha':>6} {'coverage':>9} {'size':>12} {'reps':>5}")
    for r in results:
        size = "inf" if r.mean_size == float("inf") else f"{r.mean_size:.4f}"
        print(
            f"{r.method:<16} {r.alpha:>6.3f} {r.mean_coverage:>9.4f} "
            f"{size:>12} {r.reps:>5}"
        )


def _tabular_inputs(args):
    dataset = load_tabular_csv(
        args.data, args.label, args.group_by, discretize_bins=args.discretize_bins
    )
    return dataset, build_groups_by_category(dataset, args.group_by)


def _graph_inputs(args):
    return (load_edge_list(args.graph),
            PathSampling(n_paths=args.paths, min_path_len=args.min_len))


def _synthetic_inputs(args):
    return generate_synthetic(
        args.n, args.groups, noise_kind=args.noise, rng_seed=args.seed,
        n_features=args.features,
    )


def _cmd_experiment(args) -> int:
    data, grouping = args.inputs(args)
    results = run_experiment(data, grouping, _config(args))
    paths = emit_report(results, args.out)
    _print_results(results)
    print(f"wrote {paths['results']}")
    return 0


def _cmd_overlap_study(args) -> int:
    graph = load_edge_list(args.graph)
    rows = overlap_gap_study(
        graph, _config(args), args.min_len_grid, n_paths=args.paths
    )
    if not rows:
        raise ValueError("overlap study produced no rows")
    paths = write_overlap_report(rows, args.out)
    print(f"{'min_len':>7} {'method':<16} {'delta_avg':>10} {'delta_max':>10} "
          f"{'coverage':>9} {'gap':>8}")
    for r in sorted(rows, key=lambda r: (r.method, r.alpha, r.min_len)):
        print(
            f"{r.min_len:>7} {r.method:<16} {r.delta_avg:>10.4f} {r.delta_max:>10.4f} "
            f"{r.coverage:>9.4f} {r.coverage_gap:>8.4f}"
        )
    print(f"wrote {paths['results']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ciarith",
        description="Prediction intervals for sums of labels over index groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group-avg", help="category-average experiment on a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--label", required=True, help="response column name")
    p.add_argument("--group-by", type=lambda s: tuple(s.split(",")), required=True)
    p.add_argument("--discretize-bins", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_experiment, inputs=_tabular_inputs)

    p = sub.add_parser("path-cost", help="path-cost experiment on an edge-list CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--paths", type=int, default=2000)
    p.add_argument("--min-len", type=int, default=1)
    _add_common(p)
    p.set_defaults(fn=_cmd_experiment, inputs=_graph_inputs)

    p = sub.add_parser("simulate", help="synthetic-data experiment")
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--groups", type=int, default=300)
    p.add_argument("--noise", choices=("gaussian", "student_t"), default="gaussian")
    p.add_argument("--features", type=int, default=3)
    _add_common(p)
    p.set_defaults(fn=_cmd_experiment, inputs=_synthetic_inputs)

    p = sub.add_parser("overlap-study", help="overlap vs coverage-gap study")
    p.add_argument("--graph", required=True)
    p.add_argument("--min-len-grid", type=_int_list, default=(1, 3, 5, 8))
    p.add_argument("--paths", type=int, default=100)
    _add_common(p, default_methods="cia_split")
    p.set_defaults(fn=_cmd_overlap_study)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except Exception as exc:  # surface one machine-readable line
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
