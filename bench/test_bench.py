"""Tests of the benchmark itself: smoke runs, tracing and determinism.

    python -m pytest -q bench
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import ciarith  # noqa: E402
import ciarith.experiments  # noqa: E402
import ciarith.graph  # noqa: E402

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS, WORKLOAD_NAMES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".nodes_labeled", ".path_draws", ".paths_accepted",
                  ".incidence_bytes", ".failed_evals")


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _bindings() -> dict:
    """Every value bound in a ciarith module or a traced class."""
    out = {}
    mods = [m for n, m in sys.modules.items() if n == "ciarith" or n.startswith("ciarith.")]
    for ns in mods + [ciarith.graph.WeightedGraph, ciarith.experiments._Session]:
        for k, v in vars(ns).items():
            out[(id(ns), k)] = v
    return out


def test_benchmark_json_names_what_the_runner_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.per_layer_units()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(name):
    result = _result(_bench("--workload", name, "--size", "tiny", "--seconds", "0",
                            "--seed", "3"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = _result(_bench("--workload", "overlap-grid10", "--size", "tiny",
                            "--seconds", "0", "--trace", "1"))
    assert result["correct"] is True  # includes traced == untraced fingerprints
    assert {k: v["unit"] for k, v in result["metrics"].items()} == tracing.per_layer_units()
    metrics = result["metrics"]
    assert metrics["kernels.pairwise_overlap_stats.calls"]["value"] > 0
    spans_file = ROOT / ".bench_run" / "overlap-grid10-seed0-tiny.spans.jsonl"
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    per_name = Counter(s["name"] for s in spans)
    for name, _, _ in tracing.SPANS:
        assert per_name[name] == metrics[f"{name}.calls"]["value"]
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert all(s["start"] <= s["end"] for s in spans)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tracing_keeps_output_and_counts_repeat(name, tmp_path):
    plain = worker.run_once(name, 1, "tiny", False, tmp_path / "plain")
    first = worker.run_once(name, 1, "tiny", True, tmp_path / "first")
    second = worker.run_once(name, 1, "tiny", True, tmp_path / "second")
    assert plain["fingerprint"] == first["fingerprint"] == second["fingerprint"]
    counts = {k: v for k, v in first["layers"].items() if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: second["layers"][k] for k in counts}
    assert first["layers"].keys() | {"trace.overhead_s"} == tracing.per_layer_units().keys()
    layers = first["layers"]
    if name in ("tabular-disjoint", "record-api"):  # no graph work on these
        assert layers["graph.dijkstra.calls"] == 0
        assert layers["kernels.dijkstra_arrays.calls"] == 0
    else:
        assert layers["graph.path_draws"] >= layers["graph.paths_accepted"] > 0
        assert layers["kernels.dijkstra_arrays.nodes_labeled"] > 0
    if name == "record-api":
        assert layers["scoring.split_score.calls"] > 0
        assert layers["cia.cia_predict.calls"] > 0


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    before = _bindings()
    with tracing.Tracer():
        wrapped = ciarith.core.score_threshold
        assert wrapped is not before[(id(ciarith.core), "score_threshold")]
        assert ciarith.experiments.score_threshold is wrapped
        assert ciarith.baselines.score_threshold is wrapped
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    worker.run_once("paths-grid30", 0, "tiny", True, tmp_path)
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_self_time_subtracts_the_union_of_children():
    parent = tracing._Span("p", None)
    parent.start, parent.end = 0.0, 10.0
    spans = [parent]
    for lo, hi in ((1.0, 3.0), (2.0, 5.0), (9.0, 12.0)):  # overlapping, as pool threads are
        child = tracing._Span("c", parent)
        child.start, child.end = lo, hi
        spans.append(child)
    self_s, calls = tracing.self_times(spans)
    assert self_s["p"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_s["c"] == pytest.approx(2.0 + 3.0 + 3.0)
    assert calls == {"p": 1, "c": 3}
    # tracer work inside the parent comes off its self time like a child
    self_s, _ = tracing.self_times(spans, [(parent, 4.0, 6.0), (parent, 7.0, 8.0)])
    assert self_s["p"] == pytest.approx(10.0 - 5.0 - 1.0 - 1.0)


def test_grid_recipe_reproduces_the_test_graphs():
    spec = importlib.util.spec_from_file_location("_conftest_grid", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    for k in (6, 10):
        assert workloads.make_grid_graph(k, 0) == conftest.make_grid_graph(k, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "record-api",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
