"""Directed weighted graphs, shortest paths, and edge-list CSV ingestion.

Edges are the samples of the path-cost application: each edge carries an
id (its sample index), a routing cost, and optionally a feature vector and
a true label. Paths double as index groups over edge ids.
"""

from __future__ import annotations

import csv
import logging
import math
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernels
from .core import IndexGroup, _parse_field, _read_csv

__all__ = [
    "Edge",
    "WeightedGraph",
    "PathGroup",
    "dijkstra",
    "sample_path_groups",
    "load_edge_list",
    "save_edge_list",
]

logger = logging.getLogger(__name__)

_HEADER_FIXED = ("edge_id", "src", "dst", "cost")

# Memory a graph may spend on cached shortest-path trees (4-byte pred_edge
# arrays of n_nodes entries each); past it the oldest tree is dropped.
_TREE_CACHE_BYTES = 64 * 2**20


@dataclass(frozen=True)
class Edge:
    edge_id: int
    src: int
    dst: int
    cost: float
    features: tuple[float, ...] | None = None
    label: float | None = None


@dataclass(frozen=True)
class PathGroup:
    """An s-t path as the ordered edge ids it traverses."""

    source: int
    target: int
    edge_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edge_ids)

    def as_index_group(self, group_id: int) -> IndexGroup:
        return IndexGroup(group_id=group_id, members=frozenset(self.edge_ids))


class WeightedGraph:
    """Immutable directed graph with non-negative edge costs.

    For one cost array at a time, the graph caches the adjacency lists its
    shortest-path searches walk and the trees behind :func:`dijkstra`.
    """

    def __init__(self, nodes: Iterable[int], edges: Sequence[Edge]):
        self.node_ids = np.array(sorted(set(int(n) for n in nodes)), dtype=np.int64)
        self._node_pos = {int(n): i for i, n in enumerate(self.node_ids)}
        # row order is edge-id order, so ties resolve toward smaller ids
        self.edges = tuple(sorted(edges, key=lambda e: e.edge_id))

        seen: set[int] = set()
        n_feat = None
        for e in self.edges:
            if e.edge_id in seen:
                raise ValueError(f"duplicate edge_id {e.edge_id}")
            seen.add(e.edge_id)
            if e.src not in self._node_pos or e.dst not in self._node_pos:
                raise ValueError(
                    f"edge {e.edge_id} references unknown node {e.src}->{e.dst}"
                )
            if not (math.isfinite(e.cost) and e.cost >= 0):
                raise ValueError(f"edge {e.edge_id} has invalid cost {e.cost}")
            if e.features is not None:
                if n_feat is None:
                    n_feat = len(e.features)
                elif len(e.features) != n_feat:
                    raise ValueError(
                        f"edge {e.edge_id} has {len(e.features)} features, "
                        f"expected {n_feat}"
                    )

        self.edge_ids = np.array([e.edge_id for e in self.edges], dtype=np.int64)
        self._edge_row = {int(e.edge_id): i for i, e in enumerate(self.edges)}
        self.costs = np.array([e.cost for e in self.edges], dtype=float)
        self.src_pos = np.array([self._node_pos[e.src] for e in self.edges], dtype=np.int64)
        self.dst_pos = np.array([self._node_pos[e.dst] for e in self.edges], dtype=np.int64)
        featured = [e for e in self.edges if e.features is not None]
        feats = np.array([e.features for e in featured], dtype=float).reshape(
            len(featured), n_feat or 0
        )
        bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
        if bad.size:
            raise ValueError(f"edge {featured[bad[0]].edge_id} has a non-finite feature")
        self.features = feats if featured and len(featured) == len(self.edges) else None
        # an absent label is nan; one given explicitly must be finite
        self.labels = np.array(
            [math.nan if e.label is None else e.label for e in self.edges], dtype=float
        )
        labeled = np.array([e.label is not None for e in self.edges], dtype=bool)
        bad = np.flatnonzero(labeled & ~np.isfinite(self.labels))
        if bad.size:
            e = self.edges[bad[0]]
            raise ValueError(f"edge {e.edge_id} has non-finite label {e.label}")
        # (read-only copy of the costs, their adjacency lists,
        # {source position: pred_edge})
        self._trees: tuple[np.ndarray | None, list | None, OrderedDict[int, array]] = (
            None, None, OrderedDict()
        )

    @property
    def n_nodes(self) -> int:
        return self.node_ids.size

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def node_position(self, node_id: int) -> int:
        try:
            return self._node_pos[int(node_id)]
        except KeyError:
            raise ValueError(f"unknown node {node_id}") from None

    def edge_row(self, edge_id: int) -> int:
        try:
            return self._edge_row[int(edge_id)]
        except KeyError:
            raise ValueError(f"unknown edge {edge_id}") from None

    def _adjacency(self, cost: np.ndarray) -> list[list[tuple[int, int, float]]]:
        """``adj[u]``: one (dst position, edge row, cost) per out-edge of
        node position u, in row order (the search's result does not depend
        on it)."""
        adj = [[] for _ in range(self.n_nodes)]
        rows = zip(self.src_pos.tolist(), self.dst_pos.tolist(), cost.tolist())
        for e, (u, v, c) in enumerate(rows):
            adj[u].append((v, e, c))
        return adj

    def _tree_cache(self, cost: np.ndarray):
        """(read-only copy of ``cost``, its adjacency, its cached trees by
        source position).

        ``cost`` is a validated array in edge-row order. Trees are cached
        for one cost array at a time, so costs that differ from the cached
        ones drop every tree. Passing the returned copy back skips both the
        comparison and the validation in :func:`dijkstra`.
        """
        entry = self._trees
        if entry[0] is not None and (cost is entry[0] or np.array_equal(cost, entry[0])):
            return entry
        copy = np.array(cost, dtype=float)
        copy.flags.writeable = False
        entry = (copy, self._adjacency(copy), OrderedDict())
        self._trees = entry
        return entry

    def _shortest_path_tree(self, source_pos: int, cost: np.ndarray) -> array:
        """``pred_edge`` of the full shortest-path tree rooted at
        ``source_pos`` under ``cost``, cached (see :meth:`_tree_cache`).

        Within :data:`_TREE_CACHE_BYTES` the oldest tree is evicted first.
        """
        _, adj, trees = self._tree_cache(cost)
        tree = trees.get(source_pos)
        if tree is None:
            tree = array("i", kernels.dijkstra_arrays(adj, source_pos, -1)[2])
            capacity = max(1, _TREE_CACHE_BYTES // (tree.itemsize * len(tree)))
            if len(trees) >= capacity:
                trees.popitem(last=False)
            trees[source_pos] = tree
        return tree

    def validate_path(self, path: PathGroup) -> None:
        """Check the chaining invariant; raises ValueError when broken."""
        at = path.source
        for eid in path.edge_ids:
            e = self.edges[self.edge_row(eid)]
            if e.src != at:
                raise ValueError(f"path breaks at edge {eid}: expected src {at}")
            at = e.dst
        if at != path.target:
            raise ValueError(f"path ends at {at}, expected {path.target}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            np.array_equal(self.node_ids, other.node_ids)
            and self.edges == other.edges
        )


def _cost_array(graph: WeightedGraph, cost_fn) -> np.ndarray:
    if cost_fn is None:
        cost = graph.costs
    elif callable(cost_fn):
        cost = np.array([cost_fn(e) for e in graph.edges], dtype=float)
    else:
        cost = np.asarray(cost_fn, dtype=float)
        if cost.shape != (graph.n_edges,):
            raise ValueError(
                f"cost array has shape {cost.shape}, expected ({graph.n_edges},)"
            )
    if cost.size and (not np.all(np.isfinite(cost)) or cost.min() < 0):
        raise ValueError("edge costs must be finite and non-negative")
    return cost


def dijkstra(
    graph: WeightedGraph,
    source: int,
    target: int,
    cost_fn: Callable[[Edge], float] | np.ndarray | None = None,
) -> PathGroup | None:
    """Minimum-cost path from source to target, or None when unreachable.

    ``cost_fn`` may be a per-edge callable, an array aligned with the
    graph's edge order, or None for the stored costs. Distance ties resolve
    toward the smallest (predecessor node, edge) pair, so results are
    reproducible across runs.

    The path is read from the full shortest-path tree rooted at
    ``source``, which the graph caches for the current costs (see
    :func:`sample_path_groups`), so later queries from the same source
    cost only the walk back from ``target``. A node's predecessor is fixed
    once it is settled, so the path is the one a search stopping at
    ``target`` would find.
    """
    s = graph.node_position(source)
    t = graph.node_position(target)
    if cost_fn is not None and cost_fn is graph._trees[0]:
        cost = cost_fn  # the graph's own copy, validated when it was made
    else:
        cost = _cost_array(graph, cost_fn)
    if s == t:
        return PathGroup(source=source, target=target, edge_ids=())
    pred_edge = graph._shortest_path_tree(s, cost)
    if pred_edge[t] < 0:
        return None
    edges, node_pos = graph.edges, graph._node_pos
    ids: list[int] = []
    at = t
    while at != s:
        e = edges[pred_edge[at]]
        ids.append(int(e.edge_id))
        at = node_pos[e.src]
    ids.reverse()
    return PathGroup(source=source, target=target, edge_ids=tuple(ids))


def sample_path_groups(
    graph: WeightedGraph,
    K: int,
    rng_seed: int,
    min_path_len: int = 1,
    cost_fn: Callable[[Edge], float] | np.ndarray | None = None,
    retry_factor: int = 100,
) -> list[PathGroup]:
    """K shortest paths between uniformly sampled distinct (s, t) node pairs.

    Pairs whose shortest path is missing or shorter than ``min_path_len``
    edges are skipped. Raises after ``retry_factor * K`` draws reporting
    how many paths were collected.

    Each path is read from the full shortest-path tree rooted at its
    source (see :func:`dijkstra`), so every distinct source costs one
    complete search. The trees are cached on the graph for the last cost
    array used: later calls with equal costs, such as the reps of an
    experiment, reuse them, and a call with other costs drops them. The
    costs are validated and compared once per call, not once per draw. A
    tree takes 4 bytes per node, and the cache keeps at most about 64 MB
    of them per graph, dropping the oldest first.
    """
    if min_path_len < 1:
        raise ValueError("min_path_len must be >= 1")
    if graph.n_nodes < 2:
        raise ValueError("need at least two nodes to sample paths")
    cost = graph._tree_cache(_cost_array(graph, cost_fn))[0]
    rng = np.random.default_rng(rng_seed)
    budget = retry_factor * K
    out: list[PathGroup] = []
    n = graph.n_nodes
    for _ in range(budget):
        if len(out) >= K:
            break
        s = int(rng.integers(n))
        t = int(rng.integers(n - 1))
        if t >= s:
            t += 1
        path = dijkstra(graph, int(graph.node_ids[s]), int(graph.node_ids[t]), cost)
        if path is not None and len(path) >= min_path_len:
            out.append(path)
    if len(out) < K:
        raise ValueError(
            f"collected only {len(out)} of {K} paths within {budget} draws "
            f"(min_path_len={min_path_len})"
        )
    return out


# ---------------------------------------------------------------------------
# Edge-list CSV: edge_id,src,dst,cost[,feat_0..feat_d][,label]
# ---------------------------------------------------------------------------


def load_edge_list(path) -> WeightedGraph:
    """Parse an edge-list CSV; malformed rows are reported with line numbers.

    ``edge_id``, ``src`` and ``dst`` are integers; ``cost``, the features
    and a non-empty ``label`` are finite numbers, and a cost is >= 0. A bad
    field raises ValueError reading ``line N: column 'c': 'tok' is not
    numeric | an integer | finite``, or ``line N: cost must be finite and
    >= 0, got c``.
    """
    with _read_csv(path) as (header, rows):
        if tuple(header[:4]) != _HEADER_FIXED:
            raise ValueError(
                f"{path}: header must start with {','.join(_HEADER_FIXED)}, got {header[:4]}"
            )
        extra = header[4:]
        has_label = bool(extra) and extra[-1] == "label"
        feat_cols = extra[:-1] if has_label else extra
        for d, name in enumerate(feat_cols):
            if name != f"feat_{d}":
                raise ValueError(f"{path}: unexpected column {name!r}; expected feat_{d}")
        feat_names = [f"column {c!r}" for c in feat_cols]

        edges: list[Edge] = []
        seen: dict[int, int] = {}
        for line_no, row in rows:
            eid = _parse_field(row[0], line_no, "column 'edge_id'", int)
            if eid in seen:
                raise ValueError(
                    f"line {line_no}: duplicate edge_id {eid} (first seen line {seen[eid]})"
                )
            seen[eid] = line_no
            src = _parse_field(row[1], line_no, "column 'src'", int)
            dst = _parse_field(row[2], line_no, "column 'dst'", int)
            cost = _parse_field(row[3], line_no, "column 'cost'")
            if cost < 0:
                raise ValueError(f"line {line_no}: cost must be finite and >= 0, got {cost}")
            feats = tuple([
                _parse_field(tok, line_no, name) for tok, name in zip(row[4:], feat_names)
            ]) or None
            tok = row[-1].strip() if has_label else ""
            label = _parse_field(tok, line_no, "column 'label'") if tok else None
            edges.append(Edge(eid, src, dst, cost, features=feats, label=label))
    nodes = {e.src for e in edges} | {e.dst for e in edges}
    return WeightedGraph(nodes=nodes, edges=edges)


def save_edge_list(graph: WeightedGraph, path) -> None:
    """Write the edge-list CSV so that a reload reproduces the graph exactly."""
    n_feat = graph.features.shape[1] if graph.features is not None else 0
    has_label = bool(graph.edges) and any(e.label is not None for e in graph.edges)
    header = list(_HEADER_FIXED) + [f"feat_{d}" for d in range(n_feat)]
    if has_label:
        header.append("label")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for e in graph.edges:
            # repr(float(v)): a numpy scalar's own repr is np.float64(...)
            row = [e.edge_id, e.src, e.dst, repr(float(e.cost))]
            if n_feat:
                row.extend(repr(float(v)) for v in e.features)
            if has_label:
                row.append("" if e.label is None else repr(float(e.label)))
            writer.writerow(row)
