import numpy as np

from ciarith import kernels


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
