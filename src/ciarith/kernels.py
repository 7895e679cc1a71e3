"""Hot numeric kernels with a numba fast path and a pure numpy/Python fallback.

numba is optional (the ``fast`` extra). The fallback is used when numba
cannot be imported, or when ``CIA_NUMBA=0`` is set in the environment to
force it (useful for debugging and as a smoke check that both backends
agree). The choice is made once at import time, and :data:`BACKEND`
reports the backend in use either way: ``"numba"`` or ``"numpy"``.

Kernels here are deliberately order-insensitive in their results: Dijkstra
breaks distance ties toward the lexicographically smallest (predecessor
node, edge) pair, so both backends return identical arrays.
"""

from __future__ import annotations

import heapq
import math
import os

import numpy as np

__all__ = ["BACKEND", "dijkstra_arrays", "pairwise_overlap_stats"]


def _env_wants_numba() -> bool:
    return os.environ.get("CIA_NUMBA", "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


# ---------------------------------------------------------------------------
# Dijkstra on a CSR adjacency: returns (dist, pred_node, pred_edge).
# pred_edge holds positions into the graph's edge arrays, -1 where unset.
# ---------------------------------------------------------------------------


def _dijkstra_numba_impl(indptr, adj_node, adj_edge, cost, source, target):
    n = indptr.shape[0] - 1
    dist = np.full(n, np.inf)
    pred_node = np.full(n, -1, np.int64)
    pred_edge = np.full(n, -1, np.int64)
    done = np.zeros(n, np.bool_)

    cap = adj_node.shape[0] + 1
    heap_key = np.empty(cap)
    heap_node = np.empty(cap, np.int64)
    size = 0

    # push source
    heap_key[0] = 0.0
    heap_node[0] = source
    size = 1
    dist[source] = 0.0

    while size > 0:
        # pop min
        d = heap_key[0]
        u = heap_node[0]
        size -= 1
        heap_key[0] = heap_key[size]
        heap_node[0] = heap_node[size]
        i = 0
        while True:
            left = 2 * i + 1
            right = left + 1
            smallest = i
            # (key, node) lexicographic order, mirroring heapq tuple ordering
            if left < size and (
                heap_key[left] < heap_key[smallest]
                or (
                    heap_key[left] == heap_key[smallest]
                    and heap_node[left] < heap_node[smallest]
                )
            ):
                smallest = left
            if right < size and (
                heap_key[right] < heap_key[smallest]
                or (
                    heap_key[right] == heap_key[smallest]
                    and heap_node[right] < heap_node[smallest]
                )
            ):
                smallest = right
            if smallest == i:
                break
            heap_key[i], heap_key[smallest] = heap_key[smallest], heap_key[i]
            heap_node[i], heap_node[smallest] = heap_node[smallest], heap_node[i]
            i = smallest

        if done[u]:
            continue
        done[u] = True
        if u == target:
            break

        for p in range(indptr[u], indptr[u + 1]):
            v = adj_node[p]
            if done[v]:
                continue
            e = adj_edge[p]
            nd = d + cost[e]
            if nd < dist[v]:
                dist[v] = nd
                pred_node[v] = u
                pred_edge[v] = e
                # push (nd, v)
                j = size
                heap_key[j] = nd
                heap_node[j] = v
                size += 1
                while j > 0:
                    parent = (j - 1) // 2
                    if heap_key[parent] < heap_key[j] or (
                        heap_key[parent] == heap_key[j]
                        and heap_node[parent] <= heap_node[j]
                    ):
                        break
                    heap_key[j], heap_key[parent] = heap_key[parent], heap_key[j]
                    heap_node[j], heap_node[parent] = heap_node[parent], heap_node[j]
                    j = parent
            elif nd == dist[v] and (
                u < pred_node[v] or (u == pred_node[v] and e < pred_edge[v])
            ):
                pred_node[v] = u
                pred_edge[v] = e
    return dist, pred_node, pred_edge


def _dijkstra_py(indptr, adj_node, adj_edge, cost, source, target):
    # indexing a list from Python is several times cheaper than an array
    indptr, adj_node, adj_edge, cost = (
        np.asarray(a).tolist() for a in (indptr, adj_node, adj_edge, cost)
    )
    n = len(indptr) - 1
    dist = [math.inf] * n
    pred_node = [-1] * n
    pred_edge = [-1] * n
    done = [False] * n

    source = int(source)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == target:
            break
        for p in range(indptr[u], indptr[u + 1]):
            v = adj_node[p]
            if done[v]:
                continue
            e = adj_edge[p]
            nd = d + cost[e]
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
    return (
        np.array(dist, dtype=float),
        np.array(pred_node, dtype=np.int64),
        np.array(pred_edge, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Pairwise group overlap: how many other groups each group intersects, and
# the sum of pairwise Jaccard similarities over unordered pairs.
# Groups arrive as a flat array of sorted member ids plus CSR offsets.
# ---------------------------------------------------------------------------


def _pairwise_overlap_numba_impl(offsets, members):
    n_groups = offsets.shape[0] - 1
    counts = np.zeros(n_groups, np.int64)
    jaccard_sum = 0.0
    for k in range(n_groups):
        ak, bk = offsets[k], offsets[k + 1]
        for l in range(k + 1, n_groups):
            al, bl = offsets[l], offsets[l + 1]
            i = ak
            j = al
            inter = 0
            while i < bk and j < bl:
                mi = members[i]
                mj = members[j]
                if mi == mj:
                    inter += 1
                    i += 1
                    j += 1
                elif mi < mj:
                    i += 1
                else:
                    j += 1
            if inter > 0:
                counts[k] += 1
                counts[l] += 1
                union = (bk - ak) + (bl - al) - inter
                jaccard_sum += inter / union
    return counts, jaccard_sum


def _pairwise_overlap_numpy(offsets, members):
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


if _env_wants_numba():
    try:
        from numba import njit

        BACKEND = "numba"
        _dijkstra_backend = njit(cache=True, nogil=True)(_dijkstra_numba_impl)
        _pairwise_overlap_backend = njit(cache=True, nogil=True)(
            _pairwise_overlap_numba_impl
        )
    except ImportError:  # numba is optional: the `fast` extra
        BACKEND = "numpy"
        _dijkstra_backend = _dijkstra_py
        _pairwise_overlap_backend = _pairwise_overlap_numpy
else:
    BACKEND = "numpy"
    _dijkstra_backend = _dijkstra_py
    _pairwise_overlap_backend = _pairwise_overlap_numpy


def dijkstra_arrays(indptr, adj_node, adj_edge, cost, source: int, target: int):
    """Shortest paths from ``source`` over a CSR adjacency.

    Returns (dist, pred_node, pred_edge); entries are final for every node
    settled before the target was reached. The search stops when
    ``target`` is settled; pass ``target=-1`` to run it to completion and
    get the full shortest-path tree rooted at ``source``. A node's
    predecessor is fixed once it is settled and the heap order does not
    depend on the target, so the tree's path to any node equals the
    single-pair search's path to it.
    """
    return _dijkstra_backend(indptr, adj_node, adj_edge, cost, source, target)


def pairwise_overlap_stats(offsets, members):
    """Per-group intersecting-neighbour counts and summed pairwise Jaccard."""
    return _pairwise_overlap_backend(offsets, members)
