"""Hot kernels in plain numpy: batched shortest-path trees and pairwise
group overlap. The tree kernel builds many trees at once over a (sources x
nodes) distance array. The overlap kernel counts the group pairs that share
a member without a group x member incidence matrix. :data:`BACKEND` names
the implementation for run reports; it is always ``"numpy"``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "dijkstra_arrays", "pairwise_overlap_stats"]

BACKEND = "numpy"

# pair keys emitted and counted per chunk by pairwise_overlap_stats; each
# key costs a few int64 scratch cells. A chunk takes at least one member's
# partners, so it holds max(this, G - 1) keys at most.
_PAIR_CHUNK_KEYS = 1 << 16


def dijkstra_arrays(src, dst, cost, n_nodes: int, sources):
    """``(dist, pred_edge)``, each (sources x nodes), of the shortest-path
    trees rooted at the node positions ``sources``: distances (inf where
    unreachable) and tree edge rows (-1 at roots and where unreachable) by
    :func:`ciarith.graph.dijkstra`'s tie rule. Edge row e runs from ``src[e]``
    to ``dst[e]`` at ``cost[e] >= 0``. Each round relaxes the out-edges of
    the (source, node) pairs improved in the last (Bellman-Ford) and keeps
    each pair's least candidate by sorting keys. With costs >= 0 rounding is
    monotone, so a distance is the left fold of the costs along a best path,
    as a heap search finds it, bit for bit. A round or a tie-rule pass
    gathers up to sources x edges cells."""
    n, n_src, n_edges = n_nodes, len(sources), src.size
    out_deg = np.bincount(src, minlength=n)
    out_rows, out_first = np.argsort(src, kind="stable"), np.cumsum(out_deg) - out_deg
    dist = np.full(n_src * n, np.inf)
    frontier = np.arange(n_src) * n + sources  # flat (source, node) keys
    dist[frontier] = 0.0
    while frontier.size:
        u = frontier % n
        deg = out_deg[u]
        ends = np.cumsum(deg)
        e = out_rows[np.repeat(out_first[u] - ends + deg, deg) + np.arange(ends[-1])]
        key = np.repeat(frontier - u, deg) + dst[e]
        nd = np.repeat(dist[frontier], deg) + cost[e]
        better = np.flatnonzero(nd < dist[key])
        better = better[np.argsort(key[better])]
        key, nd = key[better], nd[better]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        frontier = key[first]
        dist[frontier] = np.minimum.reduceat(nd, first)
    dist = dist.reshape(n_src, n)

    in_rows = np.lexsort((src, dst))  # stable: a node's first marked one is its least (u, e)
    in_src, in_dst = src[in_rows], dst[in_rows]
    first_in = np.flatnonzero(np.diff(in_dst, prepend=-1))
    has_in = in_dst[first_in]
    d_src, d_dst = dist[:, in_src], dist[:, in_dst]
    tight = d_src + cost[in_rows] == d_dst
    closer = tight & (d_src < d_dst)
    tight &= d_src == d_dst  # zero-cost hops; only unset, so finite, nodes take them
    pred = np.full((n_src, n), -1, np.int64)
    unset = np.isfinite(dist)
    unset[np.arange(n_src), sources] = False
    while unset.any():  # pass k also settles the nodes k zero-cost hops on
        marked = closer | tight & ~unset[:, in_src]
        pos = np.minimum.reduceat(np.where(marked, np.arange(n_edges), n_edges), first_in, axis=1)
        found = (pos < n_edges) & unset[:, has_in]
        if not found.any():
            break
        pred[:, has_in] = np.where(found, in_rows[np.minimum(pos, n_edges - 1)], pred[:, has_in])
        unset &= pred < 0
    return dist, pred


def pairwise_overlap_stats(offsets, members):
    """Per-group intersecting-neighbour counts and summed pairwise Jaccard.

    Groups arrive as a flat array of member ids plus CSR offsets: group g
    is ``members[offsets[g]:offsets[g + 1]]``. Returns ``(counts,
    jaccard_sum)``: ``counts[g]`` is how many other groups share a member
    with g, and ``jaccard_sum`` adds |a & b| / |a | b| over the intersecting
    pairs k < l, in (k, l) order.

    Only pairs that share a member are touched. The (member, group) pairs
    are stable-sorted by member, so each member's groups come out
    ascending, and every k < l pair of groups in one member's run becomes
    the key ``k * G + l``. Counting equal keys gives the intersection
    sizes; two bincounts over the distinct keys give ``counts``. The keys
    are emitted group by group (in CSR order) and counted in chunks, so
    the chunks cover ascending key ranges; only the last group a chunk
    reaches can go on in the next chunk, and its counts are merged into
    it. The Jaccard terms thus come out in (k, l) order and are added by
    one ``np.sum``, exactly as a dense G x G walk adds them.

    Precondition: a group lists each member once. A repeated member
    raises ValueError naming the group and the member.

    Memory does not depend on the number of distinct members. Besides a
    few arrays as long as ``members``, at most max(:data:`_PAIR_CHUNK_KEYS`,
    G) keys are emitted at once, one merged group of at most G counts is
    carried, and the result keeps one float per intersecting pair (twice,
    briefly, for the final sum).
    """
    n_groups = offsets.shape[0] - 1
    sizes = np.diff(offsets)
    counts = np.zeros(n_groups, np.int64)
    parts = []
    for keys, shared in _shared_pair_counts(sizes, members):
        row, col = np.divmod(keys, n_groups)
        counts += np.bincount(row, minlength=n_groups) + np.bincount(col, minlength=n_groups)
        parts.append(shared / (sizes[row] + sizes[col] - shared))
    return counts, float(np.sum(np.concatenate(parts))) if parts else 0.0


def _shared_pair_counts(sizes, members):
    """Yield ``(keys, shared)`` blocks over the group pairs k < l that
    share a member, in ascending key order: key ``k * G + l`` and ``shared``
    the number of members the two groups share."""
    n_groups, n = sizes.size, members.size
    if n == 0:
        return
    group_of = np.repeat(np.arange(n_groups), sizes)
    order = np.argsort(members, kind="stable")
    by_member = members[order]
    group_sorted = group_of[order]
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(by_member[1:], by_member[:-1], out=run_start[1:])
    repeated = np.flatnonzero(~run_start[1:] & (group_sorted[1:] == group_sorted[:-1]))
    if repeated.size:
        i = repeated[0]
        raise ValueError(f"group {group_sorted[i]} lists member {by_member[i]} more than once")
    run_ends = np.append(np.flatnonzero(run_start)[1:], n)
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    # per CSR entry: how many entries of its member's run follow it, i.e.
    # how many later groups share that member
    later = (run_ends[np.cumsum(run_start) - 1] - np.arange(n) - 1)[rank]
    active = np.flatnonzero(later)
    first_partner = rank[active] + 1
    n_partners = later[active]
    key_base = group_of[active] * n_groups
    ends = np.cumsum(n_partners)

    carry_keys = carry_shared = np.empty(0, np.int64)
    a = 0
    while a < active.size:
        emitted = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(ends, emitted + _PAIR_CHUNK_KEYS, side="right")))
        n_ab = n_partners[a:b]
        partner = np.repeat(first_partner[a:b] - (np.cumsum(n_ab) - n_ab), n_ab)
        partner += np.arange(partner.size)
        keys, shared = np.unique(
            np.repeat(key_base[a:b], n_ab) + group_sorted[partner], return_counts=True
        )
        if carry_keys.size:
            # the carried group's keys meet this chunk's lowest keys only
            head = int(np.searchsorted(keys, carry_keys[-1], side="right"))
            merged = np.union1d(carry_keys, keys[:head])
            total = np.zeros(merged.size, np.int64)
            total[np.searchsorted(merged, carry_keys)] += carry_shared
            total[np.searchsorted(merged, keys[:head])] += shared[:head]
            keys = np.concatenate((merged, keys[head:]))
            shared = np.concatenate((total, shared[head:]))
        # the groups before the next chunk's first group are complete
        cut = keys.size if b == active.size else int(np.searchsorted(keys, key_base[b]))
        carry_keys, carry_shared = keys[cut:], shared[cut:]
        if cut:
            yield keys[:cut], shared[:cut]
        a = b
