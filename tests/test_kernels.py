import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ciarith import kernels
from ciarith.core import group_csr

from conftest import child_env


def test_kernels_on_hand_computed_inputs():
    assert kernels.BACKEND == "numpy"
    adj = [[(1, 0, 1.0)], [(2, 1, 2.0)], []]
    dist, pred_node, pred_edge = kernels.dijkstra_arrays(adj, 0, 2)
    assert dist[2] == 3.0 and pred_node[2] == 1 and pred_edge[2] == 1
    offsets = np.array([0, 2, 4], dtype=np.int64)
    members = np.array([1, 2, 2, 3], dtype=np.int64)
    counts, jac = kernels.pairwise_overlap_stats(offsets, members)
    assert list(counts) == [1, 1] and abs(jac - 1 / 3) < 1e-12


def test_dijkstra_kernel_handles_stale_heap_entries():
    # node 1 is first pushed at distance 5 (direct), then improved to 2 via
    # node 2; the stale 5-entry must be skipped when popped
    adj = [[(1, 0, 5.0), (2, 1, 1.0)], [(3, 2, 1.0)], [(1, 3, 1.0)], []]
    dist, pred_node, _ = kernels.dijkstra_arrays(adj, 0, 3)
    assert dist[1] == 2.0 and pred_node[1] == 2
    assert dist[3] == 3.0


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
# Memory gate: the kernel's peak must not grow with the number of members
# ---------------------------------------------------------------------------

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
    # the child reports its own peak (RUSAGE_SELF); RUSAGE_CHILDREN here would
    # keep the largest peak of any earlier child of this test process
    proc = subprocess.run(
        [sys.executable, "-c", _MEMORY_PROBE, case], env=child_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, KiB on Linux
    peak_mb = int(proc.stdout.split()[-1]) * scale / 2**20
    assert peak_mb < MEMORY_BUDGET_MB, f"peak {peak_mb:.0f} MB"
