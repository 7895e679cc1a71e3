"""Run one workload once in this process and print the measurements as JSON.

run.py starts this in a fresh interpreter for every run, so each run pays
its own imports and starts from cold caches, as a CLI invocation does.

    python3 bench/worker.py --workload NAME --seed N --out DIR [--trace 0|1] [--size full|tiny]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import ciarith  # noqa: E402
import ciarith.kernels  # noqa: E402
import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# several set-ups per run, so the reported set-up time is a median
SETUP_REPEATS = 5


def _blas_facts() -> dict:
    """The BLAS numpy links against and its thread count, where readable."""
    facts: dict = {"threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["name"] = blas.get("name")
        facts["version"] = blas.get("version")
    except (KeyError, TypeError, AttributeError):
        facts["name"] = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = int(fn())
                return facts
    return facts


def fingerprint(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def run_once(workload: str, seed: int, size: str, trace: bool, out: Path) -> dict:
    """Set up ``SETUP_REPEATS`` times, run once, account, and return the record.

    A traced run traces only the last set-up and the run, so its layer
    figures cover one set-up, as ``setup_s`` does.
    """
    w = workloads.WORKLOADS[workload]
    p = w.sizes[size]
    out.mkdir(parents=True, exist_ok=True)
    report_dir = out / "report"
    setup_s = []

    def set_up():
        t0 = time.perf_counter()
        inputs = w.setup(p, seed, out)
        setup_s.append(time.perf_counter() - t0)
        return inputs

    for _ in range(SETUP_REPEATS - 1):
        set_up()
    tr = tracing.Tracer() if trace else None
    with tr or contextlib.nullcontext():
        inputs = set_up()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        result = w.run(p, seed, inputs, report_dir)
        wall_s = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    outcome = w.account(p, seed, result, report_dir)
    record = {
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "reps_done": outcome.reps_done,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "fingerprint": fingerprint(outcome.output),
        "facts": {
            "backend": ciarith.kernels.BACKEND,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "blas": _blas_facts(),
        },
    }
    if tr is not None:
        tr.write_spans(out / tracing.SPANS_FILE)
        layers = tr.metrics()
        layers["experiments.failed_evals"] = outcome.failed
        record["layers"] = layers
        record["untraced_functions"] = tr.missing
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not Path(ciarith.__file__).resolve().is_relative_to(SRC):
        print(f"error: ciarith imported from {ciarith.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if any(k.startswith("CIA_") for k in os.environ):
        print("error: CIA_* variables must be cleared by the runner", file=sys.stderr)
        return 2
    record = run_once(args.workload, args.seed, args.size, bool(args.trace), args.out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
