"""The repository benchmark: one command, one workload, medians over fresh processes.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]

Workloads: tabular-disjoint, paths-grid30, overlap-grid10, record-api (see
bench/README.md). The load is a closed loop with one client: runs go one
after another, each in a fresh ``bench/worker.py`` process with every
``CIA_*`` variable removed from its environment. Runs stop when the next
one would likely end after ``--seconds``, once ``MIN_RUNS`` are done.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
each a median over the runs. With ``--trace 1`` one traced run comes
first and the last line carries the per-layer metrics; the untraced runs
after it give the baseline for ``trace.overhead_s`` and must reproduce
the traced run's fingerprint. Lines before the last one are for people:
the run facts, a metric table with sample counts, and the fingerprints.

The exit code is 0 when a result was printed, even if a check failed
(``"correct": false``); it is 2 when nothing could be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from tracer import SPANS_FILE, per_layer_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
REFERENCE = BENCH / "reference.json"

WORKLOAD_NAMES = ("tabular-disjoint", "paths-grid30", "overlap-grid10", "record-api")
DEFAULT_SEED = 0
MIN_RUNS = 2
RUN_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "reps_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _spawn(args, trace: bool, env: dict) -> tuple[dict | None, str]:
    """One run in a fresh process; returns (record, error text)."""
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--trace", str(int(trace)),
           "--size", args.size]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"run timed out after {RUN_TIMEOUT_S} s"
    finally:
        if (out / SPANS_FILE).exists():
            (out / SPANS_FILE).replace(_spans_path(args))
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    return json.loads(lines[-1]), ""


def _spans_path(args) -> Path:
    return WORK / f"{args.workload}-seed{args.seed}-{args.size}.spans.jsonl"


def _git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _reference(args) -> str | None:
    if args.seed != DEFAULT_SEED or args.size != "full":
        return None
    try:
        ref = json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return None
    return ref.get("fingerprints", {}).get(args.workload)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ciarith benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is a seconds-long smoke size for the benchmark's tests")
    args = ap.parse_args(argv)

    if not (SRC / "ciarith" / "__init__.py").is_file():
        print(f"error: no ciarith sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("CIA_")}
    cleared = sorted(os.environ.keys() - env.keys())

    errors: list[str] = []
    traced = None
    if args.trace:
        traced, err = _spawn(args, True, env)
        if traced is None:
            errors.append(f"traced run: {err}")
    runs: list[dict] = []
    crashed = 0
    start = time.monotonic()
    while crashed <= MIN_RUNS:
        rec, err = _spawn(args, False, env)
        if rec is None:
            crashed += 1
            errors.append(err)
        else:
            runs.append(rec)
        done = len(runs) + crashed
        elapsed = time.monotonic() - start
        # stop before a run that would end past --seconds, going by the mean so far
        if done >= MIN_RUNS and elapsed + elapsed / done > args.seconds:
            break
    if not runs or (args.trace and traced is None):
        for e in errors:
            print(e, file=sys.stderr)
        print("error: no run completed; nothing to report", file=sys.stderr)
        return 2

    # correctness: one fingerprint per seed, the reference one at the default seed
    reference = _reference(args)
    prints = Counter(r["fingerprint"] for r in runs)
    expected = reference or prints.most_common(1)[0][0]
    measured = runs + ([traced] if traced else [])
    attempted = failed = 0
    for rec in measured:
        attempted += rec["attempted"]
        bad = list(rec["problems"])
        if rec["fingerprint"] != expected:
            bad.append(f"fingerprint {rec['fingerprint']} != {expected}")
        errors.extend(bad)
        failed += rec["attempted"] if bad else rec["failed"]
    nominal = max(r["attempted"] for r in measured)
    attempted += crashed * nominal
    failed += crashed * nominal
    correct = not errors

    walls = [r["wall_s"] for r in runs]
    setups = [s for r in runs for s in r["setup_s"]]
    samples = {
        "wall_s": walls,
        "reps_per_s": [r["reps_done"] / r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    facts = dict(runs[0]["facts"])
    facts.update(
        workload=args.workload, seed=args.seed, size=args.size, trace=args.trace,
        nproc=os.cpu_count(), commit=_git_commit(), cleared_env=cleared,
        runs=len(runs), crashed_runs=crashed, setup_samples=len(setups),
    )
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"{'metric':<16} {'median':>12} {'unit':<6} {'n':>3}  min .. max")
    for name, unit in END_TO_END_UNITS.items():
        vals = samples[name]
        print(f"{name:<16} {statistics.median(vals):>12.6g} {unit:<6} {len(vals):>3}  "
              f"{min(vals):.6g} .. {max(vals):.6g}")
    ratio = failed / attempted
    print(f"{'failed_ops_ratio':<16} {ratio:>12.6g} {'ratio':<6} {len(measured) + crashed:>3}"
          f"  ({failed} of {attempted} evaluations)")
    print(f"fingerprint {expected} ({'reference' if reference else 'majority of runs'})")
    for e in errors:
        print(f"check failed: {e}")

    if args.trace:
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
        print(f"spans written to {_spans_path(args)}")
        if traced["untraced_functions"]:
            print("not found, reported as 0: " + ", ".join(traced["untraced_functions"]))
    else:
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
