import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ciarith import kernels
from ciarith.core import group_csr

from conftest import child_env


def edge_arrays(*edges):
    """(src, dst, cost) arrays of (u, v, cost) edges, one row each in order."""
    table = np.array(edges, dtype=float).reshape(len(edges), 3)
    return table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2]


def test_kernels_on_hand_computed_inputs():
    assert kernels.BACKEND == "numpy"
    src, dst, cost = edge_arrays((0, 1, 1.0), (1, 2, 2.0))
    dist, pred_edge = kernels.dijkstra_arrays(src, dst, cost, 3, [0])
    assert dist.shape == pred_edge.shape == (1, 3)
    assert dist[0, 2] == 3.0 and src[pred_edge[0, 2]] == 1 and pred_edge[0, 2] == 1
    offsets = np.array([0, 2, 4], dtype=np.int64)
    members = np.array([1, 2, 2, 3], dtype=np.int64)
    counts, jac = kernels.pairwise_overlap_stats(offsets, members)
    assert list(counts) == [1, 1] and abs(jac - 1 / 3) < 1e-12


def test_dijkstra_kernel_handles_stale_heap_entries():
    # node 1 is first reached at distance 5 (direct), then improved to 2 via
    # node 2; the improvement must replace the first label and its edge
    src, dst, cost = edge_arrays((0, 1, 5.0), (0, 2, 1.0), (1, 3, 1.0), (2, 1, 1.0))
    (dist,), (pred_edge,) = kernels.dijkstra_arrays(src, dst, cost, 4, [0])
    assert dist[1] == 2.0 and src[pred_edge[1]] == 2
    assert dist[3] == 3.0


def test_zero_cost_ties_go_to_fewer_hops():
    # nodes 3, 1 and 2 all sit at distance 1. Node 2's tight in-edges come
    # from 1 (edge 2) and from 3 (edge 3); 3 has a strictly closer
    # predecessor and 1 is one zero-cost hop past it, so 3 wins, although
    # (1, 2) is the smaller pair, which a heap search would pick here
    src, dst, cost = edge_arrays((0, 3, 1.0), (3, 1, 0.0), (1, 2, 0.0), (3, 2, 0.0))
    (dist,), (pred_edge,) = kernels.dijkstra_arrays(src, dst, cost, 4, [0])
    assert dist.tolist() == [0.0, 1.0, 1.0, 1.0]
    assert pred_edge.tolist() == [-1, 1, 3, 0]


def bellman_ford(n, edges, source):
    """Distances from ``source`` over (u, v, cost) edges, as Python floats."""
    dist = [math.inf] * n
    dist[source] = 0.0
    for _ in range(n):
        for u, v, c in edges:
            dist[v] = min(dist[v], dist[u] + c)
    return dist


@st.composite
def zero_cost_graphs(draw):
    """Up to 7 nodes; edges may repeat, loop, or cost 0, and sums of the
    costs round (0.1 + 0.2 != 0.3). Sparse draws leave nodes unreachable."""
    n = draw(st.integers(1, 7))
    node = st.integers(0, n - 1)
    cost = st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0])
    return n, draw(st.lists(st.tuples(node, node, cost), max_size=16))


@settings(max_examples=300, deadline=None)
@given(zero_cost_graphs())
@example((3, [(0, 1, 0.0), (1, 0, 0.0), (1, 2, 0.0), (2, 1, 0.0)]))  # a zero-cost cycle
@example((4, [(0, 1, 1.0), (0, 1, 1.0), (2, 3, 0.0)]))  # parallel; 2, 3 unreachable
def test_trees_against_bellman_ford(graph):
    n, edges = graph
    src, dst, cost = edge_arrays(*edges)
    dist, pred_edge = kernels.dijkstra_arrays(src, dst, cost, n, list(range(n)))
    assert dist.shape == pred_edge.shape == (n, n)
    positive = all(c > 0 for _, _, c in edges)
    for s in range(n):
        want = bellman_ford(n, edges, s)
        assert dist[s].tolist() == want  # bit for bit, inf where unreachable
        for v in range(n):
            if v == s or want[v] == math.inf:
                assert pred_edge[s, v] == -1
                continue
            path, at = [], v
            while at != s and len(path) < n:
                path.append(int(pred_edge[s, at]))
                assert path[-1] >= 0 and dst[path[-1]] == at
                at = int(src[path[-1]])
            assert at == s, "the predecessor walk must reach the root in < n hops"
            total = 0.0
            for e in reversed(path):
                total += cost[e]
            assert total == want[v]
            if positive:
                tight = [(u, e) for e, (u, w, c) in enumerate(edges)
                         if w == v and want[u] + c == want[v]]
                assert pred_edge[s, v] == min(tight)[1]


def test_overlap_kernel_empty_groups_edge_case():
    offsets = np.array([0, 0, 1], dtype=np.int64)
    members = np.array([4], dtype=np.int64)
    counts, jac = kernels.pairwise_overlap_stats(offsets, members)
    assert list(counts) == [0, 0] and jac == 0.0


# ---------------------------------------------------------------------------
# The sparse overlap kernel against the dense incidence-matrix oracle
# ---------------------------------------------------------------------------


def dense_overlap_stats(offsets, members):
    """The former kernel: a G x U float32 incidence matrix times its
    transpose, then a walk over the upper triangle in (k, l) order."""
    n_groups = offsets.shape[0] - 1
    sizes = np.diff(offsets)
    if members.size == 0:
        return np.zeros(n_groups, np.int64), 0.0
    uniq, inv = np.unique(members, return_inverse=True)
    incidence = np.zeros((n_groups, uniq.size), dtype=np.float32)
    rows = np.repeat(np.arange(n_groups), sizes)
    incidence[rows, inv] = 1.0
    inter = (incidence @ incidence.T).astype(np.float64)
    np.fill_diagonal(inter, 0.0)
    counts = (inter > 0).sum(axis=1).astype(np.int64)
    iu = np.triu_indices(n_groups, k=1)
    pair_inter = inter[iu]
    pair_union = sizes[iu[0]] + sizes[iu[1]] - pair_inter
    nonzero = pair_inter > 0
    jaccard_sum = float(np.sum(pair_inter[nonzero] / pair_union[nonzero]))
    return counts, jaccard_sum


@st.composite
def member_lists(draw):
    """Groups of distinct members, in any order, drawn from a small pool of
    ids (so groups overlap) that may be negative or far apart."""
    pool = draw(st.lists(st.integers(-5, 2**40), min_size=1, max_size=12, unique=True))
    member = st.sampled_from(pool)
    return draw(st.lists(st.lists(member, unique=True, max_size=len(pool)), max_size=12))


# A chunk of one key forces a carried group at every step; the module's own
# cap runs everything in one chunk.
CHUNK_CAPS = st.sampled_from([1, 2, 5, kernels._PAIR_CHUNK_KEYS])


@given(member_lists(), CHUNK_CAPS)
@example([[], [], [3]], 1)  # empty groups
@example([[0], [1], [0], [2]], 1)  # singleton groups
@example([[], [], []], 1)  # no members at all
@example([[7], [7, 1], [2, 7], [7], [7, 3, 4]], 1)  # one member shared by every group
@example([[7], [7, 1], [2, 7], [7], [7, 3, 4]], kernels._PAIR_CHUNK_KEYS)
@example([[1, 2, 3], [3, 2, 5]], 1)  # G = 2
@example([[1, 2, 3], [4, 5]], 1)  # G = 2, disjoint
@example([[1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6], [6]], 1)  # the (0, 1) count spans five chunks
def test_sparse_kernel_equals_dense_oracle(groups, cap):
    offsets, members = group_csr(groups)
    want_counts, want_sum = dense_overlap_stats(offsets, members)
    with mock.patch.object(kernels, "_PAIR_CHUNK_KEYS", cap):
        counts, jaccard_sum = kernels.pairwise_overlap_stats(offsets, members)
    assert counts.dtype == np.int64
    assert counts.tolist() == want_counts.tolist()
    assert isinstance(jaccard_sum, float)
    assert jaccard_sum == want_sum  # bit-equal: the terms are added in the same order


@pytest.mark.parametrize(
    "groups, group, member",
    [
        ([[2, 2], [2]], 0, 2),  # the sets {2} and {2}: the dense kernel read Jaccard 0.5
        ([[1], [4, 3, 4]], 1, 4),
        ([[5, 6], [6], [6, 9, 6]], 2, 6),
    ],
)
def test_repeated_member_in_a_group_fails_naming_it(groups, group, member):
    offsets, members = group_csr(groups)
    with pytest.raises(ValueError, match=rf"group {group} lists member {member} more than once"):
        kernels.pairwise_overlap_stats(offsets, members)


# ---------------------------------------------------------------------------
# Memory gates: the kernel's peak must not grow with the number of members
# ---------------------------------------------------------------------------


def child_peak_mb(script: str, *args: str) -> float:
    """Peak resident MB of a child running ``script``, which prints its own
    ``ru_maxrss`` last. The child reports its own peak (RUSAGE_SELF);
    RUSAGE_CHILDREN here would keep the largest peak of any earlier child
    of this test process. One child runs at a time."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=child_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, KiB on Linux
    return int(proc.stdout.split()[-1]) * scale / 2**20

# ru_maxrss budget of a child that imports numpy and ciarith, builds the
# groups and runs the kernel once. The interpreter with numpy alone sits near
# 30 MB; a dense G x U float32 incidence matrix at 2,000 x 100,000 would be
# 800 MB on its own.
MEMORY_BUDGET_MB = 200

_MEMORY_PROBE = """
import resource
import sys

import numpy as np

from ciarith import kernels

case = sys.argv[1]
rng = np.random.default_rng(0)
if case == "wide":
    # 2,000 groups of 100 distinct members out of 100,000
    n_groups, n_members, size = 2000, 100_000, 100
    members = np.concatenate(
        [rng.choice(n_members, size, replace=False) for _ in range(n_groups)]
    )
    offsets = np.arange(0, members.size + 1, size)
    per_member = np.bincount(members)
    assert (per_member > 0).sum() > 0.8 * n_members
    counts, jaccard_sum = kernels.pairwise_overlap_stats(offsets, members)
    # each intersecting pair shares at least one member
    assert 0 < counts.sum() <= (per_member * (per_member - 1)).sum()
    assert jaccard_sum > 0
else:
    # 3,000 groups {0, g + 1}: every pair shares member 0, and 4.5M pair keys
    n_groups = 3000
    members = np.stack([np.zeros(n_groups, np.int64), np.arange(1, n_groups + 1)], 1).ravel()
    offsets = np.arange(0, members.size + 1, 2)
    counts, jaccard_sum = kernels.pairwise_overlap_stats(offsets, members)
    assert (counts == n_groups - 1).all()
    pairs = n_groups * (n_groups - 1) // 2
    assert abs(jaccard_sum - pairs / 3) < 1e-9 * pairs
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.parametrize("case", ["wide", "one_member_in_every_group"])
def test_overlap_kernel_peak_memory_stays_within_budget(case):
    peak_mb = child_peak_mb(_MEMORY_PROBE, case)
    assert peak_mb < MEMORY_BUDGET_MB, f"peak {peak_mb:.0f} MB"


# ru_maxrss budget of a child that builds every shortest-path tree of a
# 40 x 40 grid (1,600 nodes, 6,240 edges). In one kernel call, the (sources
# x edges) temporaries of all 1,600 sources come to about 10M cells, and the
# child peaked near 380 MB; in blocks of _TREE_BLOCK_CELLS it peaked near
# 70 MB, 10 MB of which are the cached trees.
TREE_MEMORY_BUDGET_MB = 150

_TREE_PROBE = """
import resource

import numpy as np

from ciarith import graph

k = 40
rng = np.random.default_rng(0)
edges = []
for r in range(k):
    for c in range(k):
        for rr, cc in ((r, c + 1), (r + 1, c), (r, c - 1), (r - 1, c)):
            if 0 <= rr < k and 0 <= cc < k:
                cost = float(rng.uniform(0.5, 2.0))
                edges.append(graph.Edge(len(edges), r * k + c, rr * k + cc, cost))
g = graph.WeightedGraph(nodes=range(k * k), edges=edges)
assert g.n_nodes * g.n_edges > 30 * graph._TREE_BLOCK_CELLS
trees = g._trees_for(g.costs, range(g.n_nodes))[1]
assert len(trees) == g.n_nodes
assert len(graph.dijkstra(g, 0, k * k - 1)) >= 2 * (k - 1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_batched_trees_peak_memory_stays_within_budget():
    peak_mb = child_peak_mb(_TREE_PROBE)
    assert peak_mb < TREE_MEMORY_BUDGET_MB, f"peak {peak_mb:.0f} MB"


# ru_maxrss budget of a child that fits and predicts a featureless 40 x 40
# grid (6,240 edges) as the path-cost harness does. Reading the training
# mean and order statistics through a kNN over a zero column, with k = every
# training edge, built (universe x training) float64 arrays and peaked near
# 250 MB; read from the training labels directly it peaks near 50 MB.
FEATURELESS_MEMORY_BUDGET_MB = 150

_FEATURELESS_PROBE = """
import resource
import sys
from dataclasses import replace

sys.path.insert(0, sys.argv[1])
from conftest import make_grid_graph

from ciarith.experiments import METHOD_IDS, ExperimentConfig, _prepare_graph
from ciarith.graph import WeightedGraph

base = make_grid_graph(40)
g = WeightedGraph(nodes=base.node_ids.tolist(),
                  edges=[replace(e, features=None) for e in base.edges])
assert g.features is None and g.n_edges == 6240
prep = _prepare_graph(g, ExperimentConfig(alphas=(0.1,), reps=1, seed=0, methods=METHOD_IDS))
assert prep.universe.size > 1800 and set(prep.quant) == {0.1}
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_featureless_graph_setup_peak_memory_stays_within_budget():
    peak_mb = child_peak_mb(_FEATURELESS_PROBE, str(Path(__file__).parent))
    assert peak_mb < FEATURELESS_MEMORY_BUDGET_MB, f"peak {peak_mb:.0f} MB"


# ru_maxrss budget of a child that selects the neighbours of 3,000 query rows
# among 10,000 training rows. Distances and the GEMM product as two full
# (query x training) float64 matrices are 240 MB each; with the product taken
# in slices of models._SLICE_CELLS cells (8 rows here) and the distances
# formed in it, the largest buffer is 0.64 MB, next to the interpreter's 30 MB.
KNN_MEMORY_BUDGET_MB = 150

_KNN_PROBE = """
import resource

import numpy as np

from ciarith import models

rng = np.random.default_rng(0)
model = models.fit_arrays(rng.normal(size=(10_000, 3)), rng.normal(size=10_000), "knn")
labels = models.neighbor_labels(model, rng.normal(size=(3_000, 3)))
assert labels.shape == (3_000, model.k_neighbors) == (3_000, 100)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_knn_peak_memory_stays_within_budget():
    peak_mb = child_peak_mb(_KNN_PROBE)
    assert peak_mb < KNN_MEMORY_BUDGET_MB, f"peak {peak_mb:.0f} MB"


# ru_maxrss budget of a child that draws the calibration groups of 2,000
# group-sampling targets of test size 1 over 6,000 calibration rows. One
# (targets x n_cal) array of draws is 96 MB, and so is each gathered term and
# its row sums; in blocks of baselines._DRAW_BLOCK_CELLS cells each is 8 MiB.
GROUP_SAMPLING_MEMORY_BUDGET_MB = 150

_GROUP_SAMPLING_PROBE = """
import resource

import numpy as np

from ciarith import baselines, scoring

rng = np.random.default_rng(0)
y = rng.normal(size=6_000)
cols = (y, y + rng.normal(scale=0.1, size=6_000))
rngs = [np.random.default_rng(t) for t in range(2_000)]
q = baselines.group_sampling_threshold(
    cols, np.ones(2_000, np.int64), 0.1, scoring.split_score, None, rngs
)
assert q.shape == (2_000,) and np.isfinite(q).all()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_group_sampling_peak_memory_stays_within_budget():
    peak_mb = child_peak_mb(_GROUP_SAMPLING_PROBE)
    assert peak_mb < GROUP_SAMPLING_MEMORY_BUDGET_MB, f"peak {peak_mb:.0f} MB"
