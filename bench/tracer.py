"""Outside-in tracer: per-layer spans and counts without touching ``src/``.

The tracer wraps the public functions each ``ciarith`` layer exports. A
function is wrapped in every module namespace that binds it, because a
caller looks the name up in its own module: ``score_threshold`` is bound
in ``core``, ``cia``, ``baselines`` and ``experiments``, and wrapping
only ``core`` would miss the harness's calls.

Each wrapped call records a span (name, start, end, parent). Spans are
kept in memory, one list per thread; once tracing stops they are reduced
to metrics and written out as JSON lines. The rep pool runs reps on
worker threads; a span opened on a thread with no open span takes the
main thread's innermost open span as its parent, so the harness entry
point's self time excludes the reps its pool ran.

Self time is a span's duration minus the union of its children's
intervals and of the tracer's own work inside it: the result hooks that
derive counts run after a child span closes, and their time is taken
out of the enclosing span. Durations are wall time, so a thread waiting
for the GIL counts that wait, and self times summed over the pool's
threads can exceed the run's wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# where a traced run leaves its spans, inside the run's output directory
SPANS_FILE = "spans.jsonl"

# Timed functions: (span name, module, attribute in that module).
SPANS = (
    ("models.fit_arrays", "ciarith.models", "fit_arrays"),
    ("models.predict_point", "ciarith.models", "predict_point"),
    ("models.predict_quantiles", "ciarith.models", "predict_quantiles"),
    ("graph.load_edge_list", "ciarith.graph", "load_edge_list"),
    ("graph.sample_path_groups", "ciarith.graph", "sample_path_groups"),
    ("graph.dijkstra", "ciarith.graph", "dijkstra"),
    ("kernels.dijkstra_arrays", "ciarith.kernels", "dijkstra_arrays"),
    ("kernels.pairwise_overlap_stats", "ciarith.kernels", "pairwise_overlap_stats"),
    ("cia.symmetric_split", "ciarith.cia", "symmetric_split"),
    ("cia.restrict_groups", "ciarith.cia", "restrict_groups"),
    ("cia._stratified_threshold_value", "ciarith.cia", "_stratified_threshold_value"),
    ("cia.interval_from_threshold", "ciarith.cia", "interval_from_threshold"),
    ("cia.overlap_delta_avg", "ciarith.cia", "overlap_delta_avg"),
    ("cia.overlap_delta_max", "ciarith.cia", "overlap_delta_max"),
    ("cia.split_groups", "ciarith.cia", "split_groups"),
    ("cia.cia_predict", "ciarith.cia", "cia_predict"),
    ("cia.stratified_cia_predict", "ciarith.cia", "stratified_cia_predict"),
    ("core.score_threshold", "ciarith.core", "score_threshold"),
    ("core.extract_column", "ciarith.core", "extract_column"),
    ("scoring.split_score", "ciarith.scoring", "split_score"),
    ("scoring.cqr_score", "ciarith.scoring", "cqr_score"),
    ("baselines.group_sampling_threshold", "ciarith.baselines", "group_sampling_threshold"),
    ("baselines.bonferroni_interval", "ciarith.baselines", "bonferroni_interval"),
    ("baselines.normal_interval", "ciarith.baselines", "normal_interval"),
    ("baselines.group_sampling_predict", "ciarith.baselines", "group_sampling_predict"),
    ("baselines.bonferroni_predict", "ciarith.baselines", "bonferroni_predict"),
    ("experiments.derive_seed", "ciarith.experiments", "derive_seed"),
    ("report.emit_report", "ciarith.report", "emit_report"),
    ("report.write_overlap_report", "ciarith.report", "write_overlap_report"),
)

# The harness: entry points plus the per-rep body the pool threads run.
# Their self time is the per-target Python loops and np.delete calls.
HARNESS = "experiments.harness"
HARNESS_TARGETS = (
    ("ciarith.experiments", "run_experiment"),
    ("ciarith.experiments", "overlap_gap_study"),
    ("ciarith.experiments", "_Session.run_rep"),
)

# Called too often and too briefly to time: counted only.
COUNTED = (("graph.WeightedGraph.edge_row", "ciarith.graph", "WeightedGraph.edge_row"),)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order.

    ``experiments.failed_evals`` is filled by the worker from the run's
    outcome and ``trace.overhead_s`` by the runner; the rest by
    :meth:`Tracer.metrics`.
    """
    units: dict[str, str] = {}
    for name, _, _ in SPANS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units[f"{HARNESS}.self_s"] = "s"
    for name, _, _ in COUNTED:
        units[f"{name}.calls"] = "count"
    units.update({
        "graph.path_draws": "count",
        "graph.paths_accepted": "count",
        "graph.path_accept_ratio": "ratio",
        "kernels.dijkstra_arrays.nodes_labeled": "count",
        "kernels.pairwise_overlap_stats.incidence_bytes": "bytes_computed",
        "experiments.failed_evals": "count",
        "trace.overhead_s": "s",
    })
    return units


class _Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name: str, parent: "_Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, gaps=()) -> tuple[Counter, Counter]:
    """(self seconds, calls) per span name.

    ``gaps`` are (span, start, end) intervals of tracer work inside a
    span; they are subtracted like children. A child's interval is
    clipped to its parent's, so a pool thread that outlives its parent
    span is not subtracted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    for s, lo, hi in gaps:
        children[s].append((lo, hi))
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for s in spans:
        kids = [
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(s, ())
            if hi > s.start and lo < s.end
        ]
        self_s[s.name] += (s.end - s.start) - _covered(kids)
        calls[s.name] += 1
    return self_s, calls


class Tracer:
    """Install wrappers with :meth:`install`, take them out with :meth:`remove`.

    Use it as a context manager so the original functions come back even
    when the traced run raises.
    """

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._span_lists: list[list[_Span]] = []
        self._gap_lists: list[list[tuple[_Span, float, float]]] = []
        self._main_stack: list[_Span] = []
        self._t0 = 0.0
        self._counts: Counter = Counter()
        # itertools.count: next() is atomic under the GIL, so no lock per call
        self._call_counters: dict[str, itertools.count] = {}
        self._overlap_inputs: list[tuple[int, np.ndarray]] = []
        self.missing: list[str] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def install(self) -> None:
        self._main_stack = self._thread_state()[0]
        self._t0 = time.perf_counter()
        hooks = {
            "graph.sample_path_groups": self._on_sample_paths,
            "kernels.dijkstra_arrays": self._on_dijkstra_arrays,
            "kernels.pairwise_overlap_stats": self._on_overlap_stats,
        }
        for name, module, attr in SPANS:
            self._patch(name, module, attr, self._timed(name, hooks.get(name)))
        for module, attr in HARNESS_TARGETS:
            self._patch(HARNESS, module, attr, self._timed(HARNESS, None))
        for name, module, attr in COUNTED:
            self._patch(name, module, attr, self._counted(name))

    def remove(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        # next() on a count returns how many times the wrapper advanced it
        for name, tally in self._call_counters.items():
            self._counts[name] += next(tally)
        self._call_counters.clear()

    def _patch(self, name, module, attr, make_wrapper) -> None:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.missing.append(name)
            return
        owner_name, _, key = attr.rpartition(".")
        if owner_name:  # a method: patch the class, which every instance sees
            owner = getattr(mod, owner_name, None)
            original = vars(owner).get(key) if owner is not None else None
            if original is None:
                self.missing.append(name)
                return
            self._set(owner, key, original, make_wrapper(original))
            return
        original = getattr(mod, key, None)
        if original is None:
            self.missing.append(name)
            return
        wrapper = make_wrapper(original)
        for n, ns in list(sys.modules.items()):
            if ns is None or not (n == "ciarith" or n.startswith("ciarith.")):
                continue
            for k, v in list(vars(ns).items()):
                if v is original:
                    self._set(ns, k, original, wrapper)

    def _set(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    # -- recording ---------------------------------------------------------

    def _thread_state(self) -> tuple[list[_Span], list[_Span], list]:
        local = self._local
        try:
            return local.stack, local.spans, local.gaps
        except AttributeError:
            local.stack, local.spans, local.gaps = [], [], []
            with self._lock:
                self._span_lists.append(local.spans)
                self._gap_lists.append(local.gaps)
            return local.stack, local.spans, local.gaps

    def _timed(self, name, on_result):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack, spans, gaps = self._thread_state()
                if stack:
                    parent = stack[-1]
                else:
                    main = self._main_stack
                    parent = main[-1] if main else None
                span = _Span(name, parent)
                spans.append(span)
                stack.append(span)
                span.start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    stack.pop()
                if on_result is not None:
                    hook_start = time.perf_counter()
                    on_result(args, kwargs, result)
                    if span.parent is not None:
                        gaps.append((span.parent, hook_start, time.perf_counter()))
                return result

            return traced

        return make

    def _counted(self, name):
        tally = self._call_counters.setdefault(name, itertools.count())

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                next(tally)
                return fn(*args, **kwargs)

            return counted

        return make

    def _on_sample_paths(self, args, kwargs, paths) -> None:
        with self._lock:
            self._counts["graph.paths_accepted"] += len(paths)

    def _on_dijkstra_arrays(self, args, kwargs, result) -> None:
        labeled = int(np.count_nonzero(np.isfinite(result[0])))
        with self._lock:
            self._counts["kernels.dijkstra_arrays.nodes_labeled"] += labeled

    def _on_overlap_stats(self, args, kwargs, result) -> None:
        # keep the inputs; the distinct-member count U is taken after tracing
        offsets = args[0] if args else kwargs["offsets"]
        members = args[1] if len(args) > 1 else kwargs["members"]
        with self._lock:
            self._overlap_inputs.append((len(offsets) - 1, members))

    # -- reduction ---------------------------------------------------------

    def spans(self) -> list[_Span]:
        with self._lock:
            return [s for lst in self._span_lists for s in lst]

    def write_spans(self, path) -> None:
        """One JSON line per span: id, parent id, thread index, name, and
        start and end in seconds since :meth:`install`."""
        with self._lock:
            lists = list(self._span_lists)
        ids = {s: i for i, s in enumerate(s for lst in lists for s in lst)}
        with open(path, "w", encoding="utf-8") as fh:
            for thread, lst in enumerate(lists):
                for s in lst:
                    fh.write(json.dumps({
                        "id": ids[s], "parent": ids.get(s.parent), "thread": thread,
                        "name": s.name, "start": s.start - self._t0, "end": s.end - self._t0,
                    }) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer values for every metric :func:`per_layer_units` lists,
        except the two the worker and runner fill in. Call it after
        :meth:`remove`, which collects the call counts."""
        spans = self.spans()
        with self._lock:
            gaps = [g for lst in self._gap_lists for g in lst]
        self_s, calls = self_times(spans, gaps)
        out: dict[str, float] = {}
        for name, _, _ in SPANS:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        out[f"{HARNESS}.self_s"] = self_s[HARNESS]
        for name, _, _ in COUNTED:
            out[f"{name}.calls"] = self._counts[name]
        draws = sum(
            1 for s in spans
            if s.name == "graph.dijkstra" and s.parent is not None
            and s.parent.name == "graph.sample_path_groups"
        )
        accepted = self._counts["graph.paths_accepted"]
        out["graph.path_draws"] = draws
        out["graph.paths_accepted"] = accepted
        out["graph.path_accept_ratio"] = accepted / draws if draws else 0.0
        out["kernels.dijkstra_arrays.nodes_labeled"] = self._counts[
            "kernels.dijkstra_arrays.nodes_labeled"
        ]
        # the numpy backend's dense incidence matrix: G x U float32 cells
        out["kernels.pairwise_overlap_stats.incidence_bytes"] = max(
            (g * int(np.unique(members).size) * 4 for g, members in self._overlap_inputs),
            default=0,
        )
        return out
