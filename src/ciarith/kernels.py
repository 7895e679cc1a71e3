"""Hot kernels: single-source Dijkstra and pairwise group overlap.

Dijkstra is pure Python over per-node adjacency lists, because Python
indexes a list several times faster than a numpy array; the overlap
kernel is one numpy matrix product. :data:`BACKEND` names the
implementation for run reports; it is always ``"numpy"``.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = ["BACKEND", "dijkstra_arrays", "pairwise_overlap_stats"]

BACKEND = "numpy"


def dijkstra_arrays(adj, source: int, target: int):
    """Shortest paths from ``source`` over per-node adjacency lists.

    ``adj[u]`` lists one ``(v, edge row, cost)`` per out-edge of node u.
    Returns (dist, pred_node, pred_edge) as lists; pred_edge holds edge
    rows, -1 where unset. Entries are final for every node settled before
    the target was reached. The search stops when ``target`` is settled;
    pass ``target=-1`` to run it to completion and get the full
    shortest-path tree rooted at ``source``. A node's predecessor is fixed
    once it is settled and the heap order does not depend on the target,
    so the tree's path to any node equals the single-pair search's path to
    it. Distance ties go to the lexicographically smallest (predecessor
    node, edge) pair.
    """
    n = len(adj)
    dist = [math.inf] * n
    pred_node = [-1] * n
    pred_edge = [-1] * n
    done = [False] * n

    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == target:
            break
        for v, e, c in adj[u]:
            if done[v]:
                continue
            nd = d + c
            if nd < dist[v]:
                dist[v] = nd
                pred_node[v] = u
                pred_edge[v] = e
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and (
                u < pred_node[v] or (u == pred_node[v] and e < pred_edge[v])
            ):
                pred_node[v] = u
                pred_edge[v] = e
    return dist, pred_node, pred_edge


def pairwise_overlap_stats(offsets, members):
    """Per-group intersecting-neighbour counts and summed pairwise Jaccard.

    Groups arrive as a flat array of member ids plus CSR offsets.
    """
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
