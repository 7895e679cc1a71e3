"""Directed weighted graphs, shortest paths, and edge-list CSV ingestion.

Edges are the samples of the path-cost application: each edge carries an
id (its sample index), a routing cost, and optionally a feature vector and
a true label. Paths double as index groups over edge ids.
"""

from __future__ import annotations

import csv
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import kernels
from .core import IndexGroup, _check_finite, _index_array, _integer, _parse_field, _read_csv, _rng

__all__ = [
    "Edge",
    "WeightedGraph",
    "PathGroup",
    "dijkstra",
    "sample_path_groups",
    "load_edge_list",
    "save_edge_list",
]

_HEADER_FIXED = ("edge_id", "src", "dst", "cost")

# Memory a graph may spend on cached shortest-path trees (4-byte pred_edge
# arrays of n_nodes entries each); past it the oldest tree is dropped.
_TREE_CACHE_BYTES = 64 * 2**20

# (source x edge) cells of a kernels.dijkstra_arrays call, some 30 bytes each
_TREE_BLOCK_CELLS = 1 << 18


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
    """Immutable directed graph with non-negative edge costs; it caches the
    shortest-path trees behind :func:`dijkstra` for one cost array at a time.
    :meth:`_trees_for` is the one way to the costs and their trees.

    Each edge-table column is checked by the package's shared rule, and an
    error names its edge: ids (checked before the sort into id order) and
    endpoints by :func:`~ciarith.core._integer`'s, costs by :func:`dijkstra`'s,
    and features (one width, on all edges or none) and given labels must be
    finite. An absent label is nan.
    """

    def __init__(self, nodes: Iterable[int], edges: Iterable[Edge]):
        self.node_ids = np.array(sorted({_integer("node", n) for n in nodes}), dtype=np.int64)
        self._node_pos = {n: i for i, n in enumerate(self.node_ids.tolist())}
        edges = list(edges)
        ids = _index_array("edge_id", [e.edge_id for e in edges])
        # row order is edge-id order, so ties resolve toward smaller ids
        order = np.argsort(ids, kind="stable")
        self.edge_ids, self.edges = ids[order], tuple([edges[i] for i in order.tolist()])
        dup = np.flatnonzero(self.edge_ids[1:] == self.edge_ids[:-1])
        if dup.size:
            raise ValueError(f"duplicate edge_id {self.edge_ids[dup[0]]}")
        ends = _index_array("node", [e.src for e in self.edges] + [e.dst for e in self.edges])
        pos = np.searchsorted(self.node_ids, ends)
        unknown = np.flatnonzero(np.searchsorted(self.node_ids, ends, side="right") == pos)
        if unknown.size:
            e = self.edges[unknown[0] % len(edges)]
            raise ValueError(f"edge {e.edge_id} references unknown node {e.src}->{e.dst}")
        self.src_pos, self.dst_pos = pos[:len(edges)], pos[len(edges):]
        self.costs = _cost_array(self, [e.cost for e in self.edges])
        self.features = None
        featured = [e for e in self.edges if e.features is not None]
        if featured:
            n_feat = len(featured[0].features)
            odd = next((e for e in self.edges
                        if e.features is None or len(e.features) != n_feat), None)
            if odd is not None and odd.features is None:
                raise ValueError(f"edge {odd.edge_id} has no features, "
                                 f"but other edges have {n_feat}")
            if odd is not None:
                raise ValueError(f"edge {odd.edge_id} has {len(odd.features)} features, "
                                 f"expected {n_feat}")
            self.features = np.array([e.features for e in self.edges], dtype=float)
            _check_finite(self.features, lambda i, j: f"edge {self.edge_ids[i]}, feature {j}:")
        self.labels = np.array([e.label for e in self.edges], dtype=float)  # None is nan
        _check_finite(np.where([e.label is None for e in self.edges], 0.0, self.labels),
                      lambda i: f"edge {self.edge_ids[i]}: label")
        # (read-only copy of the costs, {source position: pred_edge})
        self._trees: tuple[np.ndarray | None, OrderedDict[int, array]] = (None, OrderedDict())

    @property
    def n_nodes(self) -> int:
        return self.node_ids.size

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def node_position(self, node_id: int) -> int:
        try:
            return self._node_pos[_integer("node", node_id)]
        except KeyError:
            raise ValueError(f"unknown node {node_id}") from None

    def edge_row(self, edge_id: int) -> int:
        """The row of ``edge_id``: its rank in the sorted :attr:`edge_ids`."""
        eid = _integer("edge_id", edge_id)
        row = int(np.searchsorted(self.edge_ids, eid))
        if row == self.n_edges or self.edge_ids[row] != eid:
            raise ValueError(f"unknown edge {edge_id}")
        return row

    def _trees_for(self, cost_fn, sources=()) -> tuple[np.ndarray, OrderedDict[int, array]]:
        """(read-only copy of the costs, their cached trees by source position).

        ``cost_fn`` is what :func:`dijkstra` takes, checked by ``_cost_array``
        unless it is the copy returned here before. Trees are cached for one
        cost array at a time, so costs that differ from the cached ones drop
        every tree. The trees rooted at the node positions ``sources`` are
        added as far as they fit, in kernel calls of at most
        :data:`_TREE_BLOCK_CELLS` (sources x edges) cells.
        """
        cost, trees = self._trees
        if cost_fn is None or cost_fn is not cost:
            new = _cost_array(self, cost_fn)
            if cost is None or not np.array_equal(new, cost):
                cost, trees = np.array(new, dtype=float), OrderedDict()
                cost.flags.writeable = False
                self._trees = (cost, trees)
        if not sources:
            return cost, trees
        capacity = max(1, _TREE_CACHE_BYTES // (4 * self.n_nodes))
        missing = [s for s in dict.fromkeys(sources) if s not in trees][:capacity]
        step = max(1, _TREE_BLOCK_CELLS // max(1, self.n_edges))
        for i in range(0, len(missing), step):
            block = missing[i:i + step]
            _, pred_edge = kernels.dijkstra_arrays(
                self.src_pos, self.dst_pos, cost, self.n_nodes, block)
            for s, row in zip(block, pred_edge.astype(np.intc)):
                if len(trees) >= capacity:
                    trees.popitem(last=False)
                trees[s] = array("i", row.tobytes())
        return cost, trees

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
    bad = np.flatnonzero(~(np.isfinite(cost) & (cost >= 0)))
    if bad.size:
        raise ValueError(f"edge {graph.edge_ids[bad[0]]} has cost {cost[bad[0]]}: "
                         "edge costs must be finite and non-negative")
    return cost


def dijkstra(
    graph: WeightedGraph,
    source: int,
    target: int,
    cost_fn: Callable[[Edge], float] | np.ndarray | None = None,
) -> PathGroup | None:
    """Minimum-cost path from source to target, or None when unreachable.

    ``cost_fn`` may be a per-edge callable, an array aligned with the
    graph's edge order, or None for the stored costs. The path is read from
    the shortest-path tree rooted at ``source``, which the graph caches for
    the current costs (see :func:`sample_path_groups`).

    Ties follow a fixed rule. A node's tree edge is the least (predecessor
    node, edge) pair among its in-edges on a shortest path from strictly
    closer nodes. When no cost is 0 (or too small to change a sum), every
    such in-edge comes from a strictly closer node, and this is the tree of
    a heap search that breaks ties the same way, so the path is the one a
    search stopping at ``target`` finds. A node reached only over zero-cost
    edges from nodes at its own distance takes the least pair among its
    in-edges from those with the fewest such hops from ``source`` or from a
    strictly closer node. There a heap search may differ, as its choice
    depends on the order in which it settles nodes at equal distance.
    """
    s = graph.node_position(source)
    t = graph.node_position(target)
    cost, trees = graph._trees_for(cost_fn)
    if s == t:
        return PathGroup(source=source, target=target, edge_ids=())
    pred_edge = trees.get(s) or graph._trees_for(cost, (s,))[1][s]
    if pred_edge[t] < 0:
        return None
    edges, node_pos = graph.edges, graph._node_pos
    ids: list[int] = []
    at = t
    while at != s:
        e = edges[pred_edge[at]]
        ids.append(int(e.edge_id))
        at = node_pos[e.src]
    return PathGroup(source=source, target=target, edge_ids=tuple(ids[::-1]))


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
    how many paths were collected. ``rng_seed`` is an int >= 0 or a
    ``np.random.Generator``.

    Each path is read from the full shortest-path tree rooted at its source
    (see :func:`dijkstra`, also for its tie rule). Pairs are drawn in blocks
    of ``min(K - accepted, retry_factor * K - drawn)``, which a one-by-one
    loop would draw next whatever it accepts, by one ``integers`` call; a
    block's missing trees are built in batches, then its pairs go through
    :func:`dijkstra` in order, one call per draw.
    The trees are cached on the graph for the last cost array used, so
    later calls with equal costs (the reps of an experiment) reuse them,
    and the costs are validated and compared once per call. A tree takes 4
    bytes per node; the cache keeps about 64 MB of them, oldest dropped first.
    """
    K = _integer("K", K, 1)
    min_path_len = _integer("min_path_len", min_path_len, 1)
    retry_factor = _integer("retry_factor", retry_factor, 1)
    if graph.n_nodes < 2:
        raise ValueError("need at least two nodes to sample paths")
    cost = graph._trees_for(cost_fn)[0]
    rng = _rng(rng_seed)
    budget = retry_factor * K
    out: list[PathGroup] = []
    n, ids, drawn = graph.n_nodes, graph.node_ids.tolist(), 0
    while len(out) < K and drawn < budget:
        k = min(K - len(out), budget - drawn)
        pairs = rng.integers(np.tile([n, n - 1], k)).reshape(k, 2).tolist()
        drawn += k
        graph._trees_for(cost, [s for s, _ in pairs])
        for s, t in pairs:  # t is drawn from the n - 1 nodes other than s
            path = dijkstra(graph, ids[s], ids[t + (t >= s)], cost)
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
    """Write the edge-list CSV so that a reload reproduces the graph exactly.

    A node without edges (the first is named) or features of width 0 have no
    place in the format: each is a ValueError, raised before the file is opened."""
    linked = np.zeros(graph.n_nodes, dtype=bool)
    linked[graph.src_pos] = linked[graph.dst_pos] = True
    if not linked.all():
        raise ValueError(f"node {graph.node_ids[np.argmin(linked)]} has no edges, "
                         "and an edge-list file cannot hold it")
    n_feat = graph.features.shape[1] if graph.features is not None else 0
    if graph.features is not None and not n_feat:
        raise ValueError("an edge-list file cannot hold features of width 0")
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
