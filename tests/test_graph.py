import heapq
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciarith import graph as graph_module
from ciarith import kernels
from ciarith.graph import (
    Edge,
    PathGroup,
    WeightedGraph,
    dijkstra,
    load_edge_list,
    sample_path_groups,
    save_edge_list,
)
from conftest import make_grid_graph


def brute_force_cost(graph: WeightedGraph, source: int, target: int):
    """Exhaustive minimum over simple paths; independent of the heap search."""
    if source == target:
        return 0.0
    out_edges = {}
    for e in graph.edges:
        out_edges.setdefault(e.src, []).append(e)
    best = math.inf

    def walk(node, visited, cost):
        nonlocal best
        if node == target:
            best = min(best, cost)
            return
        for e in out_edges.get(node, []):
            if e.dst not in visited:
                walk(e.dst, visited | {e.dst}, cost + e.cost)

    walk(source, {source}, 0.0)
    return best if best < math.inf else None


def path_cost(graph: WeightedGraph, path: PathGroup) -> float:
    return sum(graph.costs[graph.edge_row(e)] for e in path.edge_ids)


def random_graph(rng, n_nodes=None, p_edge=0.35):
    n = n_nodes or int(rng.integers(2, 9))
    edges = []
    eid = 0
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p_edge:
                edges.append(Edge(eid, u, v, float(rng.uniform(0.1, 5.0))))
                eid += 1
    return WeightedGraph(nodes=range(n), edges=edges)


class TestDijkstra:
    def test_triangle(self):
        g = WeightedGraph(
            nodes=[0, 1, 2],
            edges=[Edge(0, 0, 1, 1.0), Edge(1, 1, 2, 1.0), Edge(2, 0, 2, 3.0)],
        )
        p = dijkstra(g, 0, 2)
        assert p.edge_ids == (0, 1)
        assert path_cost(g, p) == 2.0

    def test_source_equals_target(self):
        g = WeightedGraph(nodes=[0, 1], edges=[Edge(0, 0, 1, 1.0)])
        p = dijkstra(g, 0, 0)
        assert p.edge_ids == () and len(p) == 0

    def test_unreachable_returns_none(self):
        g = WeightedGraph(nodes=[0, 1, 2], edges=[Edge(0, 0, 1, 1.0)])
        assert dijkstra(g, 0, 2) is None
        assert dijkstra(g, 1, 0) is None

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(60)
        checked = 0
        for _ in range(300):
            g = random_graph(rng)
            s, t = rng.integers(g.n_nodes, size=2)
            p = dijkstra(g, int(s), int(t))
            expected = brute_force_cost(g, int(s), int(t))
            if p is None:
                assert expected is None
            else:
                g.validate_path(p)
                assert path_cost(g, p) == pytest.approx(expected, abs=1e-9)
                checked += 1
        assert checked > 100

    def test_subpath_optimality(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            g = random_graph(rng, n_nodes=7, p_edge=0.5)
            s, t = rng.integers(7, size=2)
            p = dijkstra(g, int(s), int(t))
            if p is None or not p.edge_ids:
                continue
            at = int(s)
            cost = 0.0
            for eid in p.edge_ids:
                e = g.edges[g.edge_row(eid)]
                cost += e.cost
                at = e.dst
                prefix_best = brute_force_cost(g, int(s), at)
                assert cost == pytest.approx(prefix_best, abs=1e-9)

    def test_deterministic_tie_breaking(self):
        # two equal-cost routes 0->1->3 and 0->2->3: predecessor 1 wins
        g = WeightedGraph(
            nodes=[0, 1, 2, 3],
            edges=[
                Edge(0, 0, 2, 1.0),
                Edge(1, 0, 1, 1.0),
                Edge(2, 2, 3, 1.0),
                Edge(3, 1, 3, 1.0),
            ],
        )
        p = dijkstra(g, 0, 3)
        assert p.edge_ids == (1, 3)

    def test_parallel_edges_pick_smallest_id(self):
        g = WeightedGraph(
            nodes=[0, 1],
            edges=[Edge(7, 0, 1, 1.0), Edge(3, 0, 1, 1.0)],
        )
        p = dijkstra(g, 0, 1)
        assert p.edge_ids == (3,)

    def test_negative_cost_rejected(self):
        g = WeightedGraph(nodes=[0, 1], edges=[Edge(0, 0, 1, 1.0)])
        with pytest.raises(ValueError, match="non-negative"):
            dijkstra(g, 0, 1, cost_fn=np.array([-0.5]))

    @staticmethod
    def _chain():
        # 0 -> 1 -> 2 -> 3, edge ids 10, 11, 12 so an id is never its row
        edges = [Edge(10 + i, i, i + 1, 1.0) for i in range(3)]
        return WeightedGraph(nodes=range(4), edges=edges)

    @pytest.mark.parametrize("cost_fn, where", [
        (np.array([1.0, math.nan, 1.0]), "edge 11 has cost nan"),
        (np.array([1.0, 1.0, -math.inf]), "edge 12 has cost -inf"),
        (lambda e: -1.0 if e.edge_id == 12 else 1.0, "edge 12 has cost -1.0"),
    ], ids=["nan-array", "-inf-array", "negative-callable"])
    def test_bad_cost_names_the_first_bad_edge(self, cost_fn, where):
        with pytest.raises(ValueError,
                           match=rf"^{where}: edge costs must be finite and non-negative$"):
            dijkstra(self._chain(), 0, 3, cost_fn=cost_fn)

    @pytest.mark.parametrize("source, target", [(1.5, 3), (True, 3), (0, 3.0), (0, np.float64(3))])
    def test_non_integer_node_rejected_by_name(self, source, target):
        bad = re.escape(repr(source if isinstance(target, int) else target))
        with pytest.raises(ValueError, match=rf"^node: {bad} is not an integer$"):
            dijkstra(self._chain(), source, target)

    @pytest.mark.parametrize("edge_id", [1.7, 11.0, True])
    def test_non_integer_edge_id_rejected_by_name(self, edge_id):
        with pytest.raises(ValueError, match=rf"^edge_id: {edge_id!r} is not an integer$"):
            self._chain().edge_row(edge_id)

    def test_cost_override_changes_route(self):
        g = WeightedGraph(
            nodes=[0, 1, 2],
            edges=[Edge(0, 0, 1, 1.0), Edge(1, 1, 2, 1.0), Edge(2, 0, 2, 3.0)],
        )
        p = dijkstra(g, 0, 2, cost_fn=np.array([5.0, 5.0, 3.0]))
        assert p.edge_ids == (2,)


class TestSamplePathGroups:
    def _grid(self, k=4):
        edges = []
        eid = 0
        for r in range(k):
            for c in range(k):
                u = r * k + c
                for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < k and 0 <= cc < k:
                        edges.append(Edge(eid, u, rr * k + cc, 1.0))
                        eid += 1
        return WeightedGraph(nodes=range(k * k), edges=edges)

    @pytest.mark.parametrize("n", [900, 100, 3, 2])
    def test_batched_pair_draw_equals_the_scalar_draws(self, n):
        # the sampler draws each pair as rng.integers(n), rng.integers(n - 1);
        # one call over np.tile([n, n - 1], k) must give the same values and
        # leave the generator in the same state, so pairs can be drawn at once
        k = 2_000
        scalar, batched = np.random.default_rng(n), np.random.default_rng(n)
        want = [int(scalar.integers(m)) for _ in range(k) for m in (n, n - 1)]
        assert batched.integers(np.tile([n, n - 1], k)).tolist() == want
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_collects_k_paths(self):
        g = self._grid()
        paths = sample_path_groups(g, K=15, rng_seed=1)
        assert len(paths) == 15
        for p in paths:
            g.validate_path(p)
            assert len(p) >= 1

    def test_min_len_filter(self):
        g = self._grid()
        paths = sample_path_groups(g, K=10, rng_seed=2, min_path_len=4)
        assert all(len(p) >= 4 for p in paths)

    def test_deterministic(self):
        g = self._grid()
        a = sample_path_groups(g, K=8, rng_seed=3)
        b = sample_path_groups(g, K=8, rng_seed=3)
        assert a == b

    def test_budget_exhaustion_reports_count(self):
        g = self._grid(k=2)  # longest shortest path has 2 edges
        with pytest.raises(ValueError, match="collected only 0 of 5"):
            sample_path_groups(g, K=5, rng_seed=4, min_path_len=10, retry_factor=3)

    @pytest.mark.parametrize("K", [0, -2])
    def test_k_below_one_rejected_by_name(self, K):
        with pytest.raises(ValueError, match=rf"^K must be >= 1, got {K}$"):
            sample_path_groups(self._grid(), K=K, rng_seed=1)

    @pytest.mark.parametrize("field, kw", [
        ("K", dict(K=2.5)), ("min_path_len", dict(K=2, min_path_len=1.0)),
        ("K", dict(K=True)), ("retry_factor", dict(K=2, retry_factor=2.5)),
    ])
    def test_non_integer_size_rejected_by_name(self, field, kw):
        with pytest.raises(ValueError, match=rf"^{field}: {kw[field]!r} is not an integer$"):
            sample_path_groups(self._grid(), rng_seed=1, **kw)

    @pytest.mark.parametrize("seed, message", [
        (1.5, r"^rng_seed: 1\.5 is not an integer$"),
        (True, r"^rng_seed: True is not an integer$"),
        (-1, r"^rng_seed must be >= 0, got -1$"),
    ])
    def test_bad_seed_rejected_by_name(self, seed, message):
        with pytest.raises(ValueError, match=message):
            sample_path_groups(self._grid(), K=2, rng_seed=seed)

    def test_generator_seed_is_used_as_is(self):
        g = self._grid()
        assert sample_path_groups(g, K=5, rng_seed=np.random.default_rng(8)) == (
            sample_path_groups(g, K=5, rng_seed=8))

    @pytest.mark.parametrize("factor", [0, -1])
    def test_retry_factor_below_one_rejected_by_name(self, factor):
        # not "collected only 0 of 2 paths within 0 draws", which blames the graph
        with pytest.raises(ValueError, match=rf"^retry_factor must be >= 1, got {factor}$"):
            sample_path_groups(self._grid(), K=2, rng_seed=1, retry_factor=factor)

    def test_more_overlap_with_longer_paths(self):
        g = self._grid(k=6)
        from ciarith.cia import overlap_delta_avg

        def mean_delta(min_len):
            vals = []
            for seed in range(12):
                paths = sample_path_groups(g, K=12, rng_seed=seed, min_path_len=min_len)
                groups = [p.as_index_group(i) for i, p in enumerate(paths)]
                vals.append(overlap_delta_avg(groups))
            return float(np.mean(vals))

        assert mean_delta(6) > mean_delta(1)

    def test_as_index_group(self):
        g = self._grid()
        (p,) = sample_path_groups(g, K=1, rng_seed=5, min_path_len=2)
        ig = p.as_index_group(3)
        assert ig.group_id == 3
        assert ig.members == frozenset(p.edge_ids)


def heap_search(adj, source, target):
    """Heap Dijkstra over ``adj[u]`` = [(v, edge row, cost), ...] that stops
    once ``target`` is settled (``target=-1``: never). Returns (dist,
    pred_node, pred_edge) as lists. Distance ties go to the smallest
    (predecessor node, edge) pair among the nodes settled before."""
    n = len(adj)
    dist, pred_node, pred_edge = [math.inf] * n, [-1] * n, [-1] * n
    done = [False] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue  # a stale entry: u was pushed again at a shorter distance
        done[u] = True
        if u == target:
            break
        for v, e, c in adj[u]:
            if done[v]:
                continue
            nd = d + c
            if nd < dist[v]:
                dist[v], pred_node[v], pred_edge[v] = nd, u, e
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and (u, e) < (pred_node[v], pred_edge[v]):
                pred_node[v], pred_edge[v] = u, e
    return dist, pred_node, pred_edge


def adjacency(graph, cost):
    adj = [[] for _ in range(graph.n_nodes)]
    for e, (u, v, c) in enumerate(zip(graph.src_pos.tolist(), graph.dst_pos.tolist(),
                                       cost.tolist())):
        adj[u].append((v, e, c))
    return adj


def early_exit_path(graph, source, target, cost=None):
    """Single-pair heap search that stops once ``target`` is settled."""
    s, t = graph.node_position(source), graph.node_position(target)
    if s == t:
        return PathGroup(source=source, target=target, edge_ids=())
    cost = graph.costs if cost is None else np.asarray(cost, dtype=float)
    dist, _, pred_edge = heap_search(adjacency(graph, cost), s, t)
    if not np.isfinite(dist[t]):
        return None
    rows = []
    while t != s:
        rows.append(int(pred_edge[t]))
        t = int(graph.src_pos[rows[-1]])
    return PathGroup(source=source, target=target,
                     edge_ids=tuple(int(graph.edge_ids[r]) for r in reversed(rows)))


def naive_sample_paths(graph, K, rng_seed, min_path_len=1, cost=None, retry_factor=100,
                       drawn=None):
    """sample_path_groups' draw loop with one early-exit search per draw;
    each drawn (s, t) position pair is appended to ``drawn`` if given."""
    rng = np.random.default_rng(rng_seed)
    out = []
    n = graph.n_nodes
    for _ in range(retry_factor * K):
        if len(out) >= K:
            break
        s = int(rng.integers(n))
        t = int(rng.integers(n - 1))
        if t >= s:
            t += 1
        if drawn is not None:
            drawn.append((s, t))
        path = early_exit_path(graph, int(graph.node_ids[s]), int(graph.node_ids[t]), cost)
        if path is not None and len(path) >= min_path_len:
            out.append(path)
    return out


def tied_grid(k, rng_seed, node_offset=0):
    """k x k grid with integer costs in {1, 2}: many equal-cost routes.

    Node and edge ids are offset and spaced so positions and ids differ.
    """
    rng = np.random.default_rng(rng_seed)
    edges = []
    for r in range(k):
        for c in range(k):
            u = r * k + c
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < k and 0 <= cc < k:
                    edges.append(Edge(3 * len(edges) + 5, node_offset + u,
                                      node_offset + rr * k + cc,
                                      float(rng.integers(1, 3))))
    return WeightedGraph(nodes=range(node_offset, node_offset + k * k), edges=edges)


class TestShortestPathTrees:
    @pytest.mark.parametrize("g, has_unreachable", [
        (tied_grid(6, 0, node_offset=100), False),
        (random_graph(np.random.default_rng(64), n_nodes=9, p_edge=0.2), True),
    ])
    def test_tree_paths_equal_single_pair_search_for_every_pair(self, g, has_unreachable):
        unreachable = 0
        for s, t in itertools.product(g.node_ids.tolist(), repeat=2):
            expected = early_exit_path(g, s, t)
            assert dijkstra(g, s, t) == expected
            unreachable += expected is None
        assert (unreachable > 0) == has_unreachable

    def test_ties_go_to_smallest_predecessor_then_edge(self):
        # positive integer costs, so sums are exact and every predecessor on
        # a shortest path is settled before the node it leads to
        base = tied_grid(5, 2, node_offset=20)
        twins = [Edge(e.edge_id + 1, e.src, e.dst, e.cost) for e in base.edges[::3]]
        g = WeightedGraph(nodes=base.node_ids.tolist(), edges=base.edges + tuple(twins))
        src, dst, cost = g.src_pos.tolist(), g.dst_pos.tolist(), g.costs.tolist()
        for s in range(g.n_nodes):
            dist = [math.inf] * g.n_nodes  # Bellman-Ford
            dist[s] = 0.0
            for _ in range(g.n_nodes):
                for e in range(g.n_edges):
                    dist[dst[e]] = min(dist[dst[e]], dist[src[e]] + cost[e])
            tree = g._trees_for(g.costs, [s])[1][s]
            for v in range(g.n_nodes):
                tight = [(src[e], e) for e in range(g.n_edges)
                         if dst[e] == v and dist[src[e]] + cost[e] == dist[v]]
                assert tree[v] == (min(tight)[1] if v != s else -1)

    def test_tree_mode_of_the_kernel_settles_every_reachable_node(self):
        g = tied_grid(5, 1)
        (dist,), (pred_edge,) = kernels.dijkstra_arrays(
            g.src_pos, g.dst_pos, g.costs, g.n_nodes, [7])
        assert np.all(np.isfinite(dist))
        assert pred_edge[7] == -1 and np.all(np.delete(pred_edge, 7) >= 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("min_len", [1, 4, 7])
    def test_sampling_matches_naive_loop(self, seed, min_len):
        g = tied_grid(6, seed, node_offset=10)
        custom = np.random.default_rng(seed).uniform(0.0, 3.0, g.n_edges)
        for cost in (None, custom):
            got = sample_path_groups(g, K=25, rng_seed=seed, min_path_len=min_len,
                                     cost_fn=cost)
            assert got == naive_sample_paths(g, 25, seed, min_len, cost)

    def test_new_costs_never_see_stale_trees(self):
        g = tied_grid(6, 3)
        a = np.random.default_rng(5).uniform(0.1, 1.0, g.n_edges)
        b = a[::-1].copy()
        first = sample_path_groups(g, K=40, rng_seed=9, cost_fn=a)
        assert first == naive_sample_paths(g, 40, 9, cost=a)
        original = a.copy()
        a[:] = b  # the same array object, now holding other costs
        second = sample_path_groups(g, K=40, rng_seed=9, cost_fn=a)
        assert second == naive_sample_paths(g, 40, 9, cost=b)
        assert second != first
        assert sample_path_groups(g, K=40, rng_seed=9, cost_fn=original) == first

    def test_cache_budget_evicts_oldest_first(self, monkeypatch):
        g = tied_grid(6, 4)
        monkeypatch.setattr(graph_module, "_TREE_CACHE_BYTES", 3 * 4 * g.n_nodes)
        got = sample_path_groups(g, K=30, rng_seed=2)
        assert got == naive_sample_paths(g, 30, 2)
        assert len(g._trees[1]) == 3
        for s in range(6):
            g._trees_for(g.costs, [s])
        assert list(g._trees[1]) == [3, 4, 5]

    def test_tracer_contract(self, monkeypatch):
        # bench/tracer.py wraps kernels.dijkstra_arrays and graph.dijkstra by
        # name: it counts a path draw per dijkstra call under
        # sample_path_groups, and labeled nodes as the finite entries of the
        # kernel's first result. The graph module must look both names up at
        # call time for the wrappers to see every call.
        assert callable(kernels.dijkstra_arrays)
        assert not hasattr(graph_module, "dijkstra_arrays")
        kernel, search = kernels.dijkstra_arrays, graph_module.dijkstra
        batches, draws = [], []

        def traced_kernel(src, dst, cost, n_nodes, sources):
            result = kernel(src, dst, cost, n_nodes, sources)
            batches.append((len(sources), result[0].shape, np.isfinite(result[0]).sum()))
            return result

        monkeypatch.setattr(kernels, "dijkstra_arrays", traced_kernel)
        monkeypatch.setattr(graph_module, "dijkstra", lambda *a: draws.append(a) or search(*a))
        g = tied_grid(6, 7)
        drawn = []
        got = sample_path_groups(g, K=20, rng_seed=3, min_path_len=6)
        assert got == naive_sample_paths(g, 20, 3, 6, drawn=drawn)
        assert len(draws) == len(drawn) > len(got)  # once per draw, rejected ones too
        assert [a[1:3] for a in draws] == [(int(g.node_ids[s]), int(g.node_ids[t]))
                                           for s, t in drawn]
        assert all(shape == (n, g.n_nodes) for n, shape, _ in batches)
        # one tree per distinct source, every node reachable on the grid
        n_sources = len({s for s, _ in drawn})
        assert sum(n for n, _, _ in batches) == n_sources > len(batches)
        assert sum(labeled for _, _, labeled in batches) == n_sources * g.n_nodes

    def test_costs_are_validated_once_per_call_not_per_draw(self, monkeypatch):
        g = tied_grid(5, 6)
        custom = np.random.default_rng(6).uniform(0.1, 1.0, g.n_edges)
        validations = []
        validate = graph_module._cost_array
        monkeypatch.setattr(graph_module, "_cost_array",
                            lambda *a: validations.append(1) or validate(*a))
        sample_path_groups(g, K=10, rng_seed=1, cost_fn=custom)
        assert len(validations) == 1
        cached, trees = g._trees
        assert cached is not custom and np.array_equal(cached, custom)
        assert not cached.flags.writeable
        again, again_trees = g._trees_for(custom.copy())
        assert again is cached and again_trees is trees


class TestEdgeListIO:
    def test_small_file_round_trip(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("edge_id,src,dst,cost\n0,1,2,1.5\n1,2,3,0.25\n")
        g = load_edge_list(path)
        assert g.n_edges == 2 and g.n_nodes == 3
        out = tmp_path / "copy.csv"
        save_edge_list(g, out)
        assert load_edge_list(out) == g

    def test_features_and_labels_round_trip(self, tmp_path):
        rng = np.random.default_rng(63)
        edges = [
            Edge(i, int(rng.integers(4)), int(rng.integers(4, 8)),
                 float(rng.uniform(0, 2)),
                 features=(float(rng.normal()), float(rng.normal())),
                 label=float(rng.normal()) if i % 3 else None)
            for i in range(12)
        ]
        # the CSV format carries no isolated nodes: build from endpoints only
        nodes = {e.src for e in edges} | {e.dst for e in edges}
        g = WeightedGraph(nodes=nodes, edges=edges)
        path = tmp_path / "g.csv"
        save_edge_list(g, path)
        g2 = load_edge_list(path)
        assert g2 == g
        assert np.isnan(g2.labels).sum() == sum(1 for e in edges if e.label is None)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_python_and_numpy_scalars_round_trip(self, tmp_path_factory, data):
        # numpy 2 reprs a numpy scalar as np.float64(...); the file must hold
        # the number itself
        scalar = st.sampled_from([float, np.float64, np.float32])
        finite = st.floats(-1e6, 1e6, allow_nan=False)
        n_feat = data.draw(st.integers(0, 2))
        edges = []
        for i in range(data.draw(st.integers(1, 5))):
            cast = data.draw(scalar)
            feats = tuple(cast(data.draw(finite)) for _ in range(n_feat)) or None
            label = data.draw(st.none() | finite.map(cast))
            cost = cast(data.draw(st.floats(0, 1e6)))
            edges.append(Edge(i, i, i + 1, cost, features=feats, label=label))
        g = WeightedGraph(nodes=range(len(edges) + 1), edges=edges)
        path = tmp_path_factory.mktemp("rt") / "g.csv"
        save_edge_list(g, path)
        g2 = load_edge_list(path)
        assert g2 == g
        assert np.array_equal(g2.costs, g.costs)
        assert np.array_equal(g2.labels, g.labels, equal_nan=True)

    @pytest.mark.parametrize(
        "row, message",
        [("0,1,2,abc", "line 2: column 'cost': 'abc' is not numeric"),
         ("0,1,2,nan", "line 2: column 'cost': 'nan' is not finite"),
         ("1.5,1,2,1.0", "line 2: column 'edge_id': '1.5' is not an integer"),
         ("0,x,2,1.0", "line 2: column 'src': 'x' is not an integer"),
         ("0,1,2,-1", r"line 2: cost must be finite and >= 0, got -1.0")],
    )
    def test_bad_field_message(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"edge_id,src,dst,cost\n{row}\n")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_edge_list(path)

    def test_negative_cost_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("edge_id,src,dst,cost\n0,1,2,1.0\n1,2,3,-1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_edge_list(path)

    def test_duplicate_edge_id_reports_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("edge_id,src,dst,cost\n5,1,2,1.0\n5,2,1,1.0\n")
        with pytest.raises(ValueError, match="duplicate edge_id 5"):
            load_edge_list(path)

    def test_malformed_number_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("edge_id,src,dst,cost\n0,1,2,abc\n")
        with pytest.raises(ValueError, match="line 2.*cost"):
            load_edge_list(path)

    @pytest.mark.parametrize(
        "row, where",
        [("0,1,2,1.0,inf,0.5", "line 2.*'feat_0'.*not finite"),
         ("0,1,2,1.0,0.3,nan", "line 2.*'label'.*not finite")],
    )
    def test_non_finite_feature_or_label_reports_line_and_column(self, tmp_path, row, where):
        path = tmp_path / "bad.csv"
        path.write_text(f"edge_id,src,dst,cost,feat_0,label\n{row}\n")
        with pytest.raises(ValueError, match=where):
            load_edge_list(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("id,from,to,w\n0,1,2,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_edge_list(path)

    def test_header_checked_before_rows(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("id,from,to,w\n0,1\n")
        with pytest.raises(ValueError, match="header must start with"):
            load_edge_list(path)

    @pytest.mark.parametrize(
        "rows, where",
        [("0,1,2,1.0,2.0\n\n\n1,2,3,1.0,nan\n", "line 5: column 'feat_0': 'nan' is not finite"),
         ("0,1,2,1.0,2.0\n \n1,2,3\n", "line 4: expected 5 fields, got 3"),
         ("0,1,2,1.0,2.0\n\n0,2,3,1.0,1.0\n", r"line 4: duplicate edge_id 0 \(first seen line 2\)")],
    )
    def test_blank_lines_keep_the_files_own_line_numbers(self, tmp_path, rows, where):
        path = tmp_path / "blank.csv"
        path.write_text("edge_id,src,dst,cost,feat_0\n" + rows)
        with pytest.raises(ValueError, match=where):
            load_edge_list(path)

    def test_node_without_edges_rejected_before_writing(self, tmp_path):
        # once dropped from the file, so the reload had 36 nodes, not 37
        g = make_grid_graph(6)
        g = WeightedGraph(nodes=[*g.node_ids.tolist(), 99], edges=g.edges)
        path = tmp_path / "g.csv"
        with pytest.raises(ValueError, match="^node 99 has no edges"):
            save_edge_list(g, path)
        assert not path.exists()

    def test_zero_width_features_rejected_before_writing(self, tmp_path):
        # once written as a featureless file, which reloads as a different graph
        g = WeightedGraph(nodes=[0, 1], edges=[Edge(0, 0, 1, 1.0, features=())])
        path = tmp_path / "g.csv"
        with pytest.raises(ValueError, match="features of width 0$"):
            save_edge_list(g, path)
        assert not path.exists()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, data):
        integer = st.sampled_from([int, np.int64])
        n_nodes = data.draw(st.integers(2, 6))
        n_feat = data.draw(st.none() | st.integers(1, 2))
        labeled = data.draw(st.booleans())
        value = st.floats(-1e6, 1e6, allow_nan=False)
        ids = data.draw(st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True))
        edges = [
            Edge(data.draw(integer)(eid),
                 data.draw(integer)(data.draw(st.integers(0, n_nodes - 1))),
                 data.draw(integer)(data.draw(st.integers(0, n_nodes - 1))),
                 data.draw(st.just(0.0) | st.floats(0, 1e6)),
                 features=None if n_feat is None else tuple(data.draw(value)
                                                            for _ in range(n_feat)),
                 label=data.draw(st.none() | value) if labeled else None)
            for eid in ids
        ]
        g = WeightedGraph(nodes={v for e in edges for v in (e.src, e.dst)}, edges=edges)
        path = tmp_path_factory.mktemp("rt") / "g.csv"
        save_edge_list(g, path)
        g2 = load_edge_list(path)
        assert g2 == g
        for name in ("node_ids", "edge_ids", "src_pos", "dst_pos", "costs"):
            a, b = getattr(g2, name), getattr(g, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert (g2.features is None) == (g.features is None)
        if g.features is not None:
            assert g2.features.shape == g.features.shape
            assert g2.features.tobytes() == g.features.tobytes()
        assert g2.labels.tobytes() == g.labels.tobytes()

    def test_unlabeled_edges_have_empty_label_cell(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("edge_id,src,dst,cost,label\n0,1,2,1.0,0.5\n1,2,1,1.0,\n")
        g = load_edge_list(path)
        assert g.edges[0].label == 0.5 and g.edges[1].label is None


class TestGraphValidation:
    def test_dangling_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            WeightedGraph(nodes=[0], edges=[Edge(0, 0, 1, 1.0)])

    @pytest.mark.parametrize("field, nodes, edge_id, bad", [
        ("edge_id", [0, 1], 1.5, "1.5"), ("edge_id", [0, 1], 7.0, "7.0"),
        ("edge_id", [0, 1], True, "True"), ("node", [0, 1, 2.5], 0, "2.5"),
        ("node", [0, 1, 1.0], 0, "1.0"),
    ])
    def test_non_integer_id_rejected_by_name(self, field, nodes, edge_id, bad):
        # once truncated by int(), so edge 1.5 was filed as edge 1
        with pytest.raises(ValueError, match=rf"^{field}: {bad} is not an integer$"):
            WeightedGraph(nodes=nodes, edges=[Edge(edge_id, 0, 1, 1.0)])

    @pytest.mark.parametrize("end", [True, 2.0, np.float64(1.0)])
    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_non_integer_endpoint_rejected_by_name(self, end, side):
        # once accepted: True as node 1, 2.0 as node 2
        edge = Edge(0, **{"src": 0, "dst": 1, side: end}, cost=1.0)
        with pytest.raises(ValueError, match=rf"^node: {re.escape(repr(end))} is not an integer$"):
            WeightedGraph(nodes=[0, 1, 2], edges=[edge])

    @pytest.mark.parametrize("edge_id", ["a", None])
    def test_non_numeric_edge_id_rejected_by_name(self, edge_id):
        # once a bare TypeError from the sort by id
        edges = [Edge(0, 0, 1, 1.0), Edge(edge_id, 1, 0, 1.0)]
        with pytest.raises(ValueError, match=rf"^edge_id: {edge_id!r} is not an integer$"):
            WeightedGraph(nodes=[0, 1], edges=edges)

    def test_integer_like_ids_are_accepted(self):
        edge = Edge(np.int64(4), np.int32(0), np.uint8(1), 1.0)
        g = WeightedGraph(nodes=np.arange(2), edges=[edge])
        path = dijkstra(g, np.int64(0), 1)
        assert path.edge_ids == (4,) and type(path.edge_ids[0]) is int
        assert g.edge_row(np.int64(4)) == 0 and g.node_position(np.int16(1)) == 1

    def test_duplicate_edge_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph(nodes=[0, 1], edges=[Edge(0, 0, 1, 1.0), Edge(0, 1, 0, 1.0)])

    def test_invalid_cost_rejected(self):
        with pytest.raises(ValueError, match=r"^edge 0 has cost -2\.0: "
                                             "edge costs must be finite and non-negative$"):
            WeightedGraph(nodes=[0, 1], edges=[Edge(0, 0, 1, -2.0)])

    @pytest.mark.parametrize(
        "bad, where",
        [
            (dict(features=(0.5, math.inf)), "edge 7, feature 1: inf is not finite"),
            (dict(features=(math.nan, 0.5)), "edge 7, feature 0: nan is not finite"),
            (dict(label=math.inf), "edge 7: label inf is not finite"),
            (dict(label=math.nan), "edge 7: label nan is not finite"),
        ],
    )
    def test_non_finite_feature_or_label_names_the_edge(self, bad, where):
        fine = Edge(3, 0, 1, 1.0, features=(0.1, 0.2), label=1.0)
        edges = [fine, Edge(7, 1, 0, 1.0, **{"features": (0.3, 0.4), "label": 2.0, **bad})]
        with pytest.raises(ValueError, match=f"^{where}$"):
            WeightedGraph(nodes=[0, 1], edges=edges)
        unlabeled = WeightedGraph(nodes=[0, 1], edges=[fine, Edge(7, 1, 0, 1.0, (0.3, 0.4))])
        assert math.isnan(unlabeled.labels[1])

    def test_partially_featured_graph_names_the_first_edge_without_features(self):
        # features only on edges 0 and 2 used to leave the graph featureless
        edges = [Edge(i, 0, 1, 1.0, features=None if i % 2 else (0.5,)) for i in range(4)]
        with pytest.raises(ValueError, match="edge 1 has no features, but other edges have 1"):
            WeightedGraph(nodes=[0, 1], edges=edges)

    def test_validate_path_detects_breaks(self):
        g = WeightedGraph(
            nodes=[0, 1, 2], edges=[Edge(0, 0, 1, 1.0), Edge(1, 1, 2, 1.0)]
        )
        with pytest.raises(ValueError, match="breaks"):
            g.validate_path(PathGroup(source=0, target=2, edge_ids=(1, 0)))
