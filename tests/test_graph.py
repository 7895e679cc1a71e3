import itertools
import math

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


def early_exit_path(graph, source, target, cost=None):
    """Single-pair search that stops once ``target`` is settled."""
    s, t = graph.node_position(source), graph.node_position(target)
    if s == t:
        return PathGroup(source=source, target=target, edge_ids=())
    cost = graph.costs if cost is None else np.asarray(cost, dtype=float)
    dist, _, pred_edge = kernels.dijkstra_arrays(graph._adjacency(cost), s, t)
    if not np.isfinite(dist[t]):
        return None
    rows = []
    while t != s:
        rows.append(int(pred_edge[t]))
        t = int(graph.src_pos[rows[-1]])
    return PathGroup(source=source, target=target,
                     edge_ids=tuple(int(graph.edge_ids[r]) for r in reversed(rows)))


def naive_sample_paths(graph, K, rng_seed, min_path_len=1, cost=None, retry_factor=100):
    """sample_path_groups' draw loop with one early-exit search per draw."""
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
            tree = g._shortest_path_tree(s, g.costs)
            for v in range(g.n_nodes):
                tight = [(src[e], e) for e in range(g.n_edges)
                         if dst[e] == v and dist[src[e]] + cost[e] == dist[v]]
                assert tree[v] == (min(tight)[1] if v != s else -1)

    def test_tree_mode_of_the_kernel_settles_every_reachable_node(self):
        g = tied_grid(5, 1)
        dist, _, pred_edge = kernels.dijkstra_arrays(g._adjacency(g.costs), 7, -1)
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
        assert len(g._trees[2]) == 3
        for s in range(6):
            g._shortest_path_tree(s, g.costs)
        assert list(g._trees[2]) == [3, 4, 5]

    def test_costs_are_validated_once_per_call_not_per_draw(self, monkeypatch):
        g = tied_grid(5, 6)
        custom = np.random.default_rng(6).uniform(0.1, 1.0, g.n_edges)
        validations = []
        validate = graph_module._cost_array
        monkeypatch.setattr(graph_module, "_cost_array",
                            lambda *a: validations.append(1) or validate(*a))
        sample_path_groups(g, K=10, rng_seed=1, cost_fn=custom)
        assert len(validations) == 1
        cached, adj, trees = g._trees
        assert cached is not custom and np.array_equal(cached, custom)
        assert not cached.flags.writeable
        again, again_adj, again_trees = g._tree_cache(custom.copy())
        assert again is cached and again_adj is adj and again_trees is trees


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

    def test_unlabeled_edges_have_empty_label_cell(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("edge_id,src,dst,cost,label\n0,1,2,1.0,0.5\n1,2,1,1.0,\n")
        g = load_edge_list(path)
        assert g.edges[0].label == 0.5 and g.edges[1].label is None


class TestGraphValidation:
    def test_dangling_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            WeightedGraph(nodes=[0], edges=[Edge(0, 0, 1, 1.0)])

    def test_duplicate_edge_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph(nodes=[0, 1], edges=[Edge(0, 0, 1, 1.0), Edge(0, 1, 0, 1.0)])

    def test_invalid_cost_rejected(self):
        with pytest.raises(ValueError, match="invalid cost"):
            WeightedGraph(nodes=[0, 1], edges=[Edge(0, 0, 1, -2.0)])

    @pytest.mark.parametrize(
        "bad, where",
        [
            (dict(features=(0.5, math.inf)), "edge 7 has a non-finite feature"),
            (dict(features=(math.nan, 0.5)), "edge 7 has a non-finite feature"),
            (dict(label=math.inf), "edge 7 has non-finite label inf"),
            (dict(label=math.nan), "edge 7 has non-finite label nan"),
        ],
    )
    def test_non_finite_feature_or_label_names_the_edge(self, bad, where):
        fine = Edge(3, 0, 1, 1.0, features=(0.1, 0.2), label=1.0)
        edges = [fine, Edge(7, 1, 0, 1.0, **{"features": (0.3, 0.4), "label": 2.0, **bad})]
        with pytest.raises(ValueError, match=where):
            WeightedGraph(nodes=[0, 1], edges=edges)
        unlabeled = WeightedGraph(nodes=[0, 1], edges=[fine, Edge(7, 1, 0, 1.0)])
        assert math.isnan(unlabeled.labels[1]) and unlabeled.features is None

    def test_validate_path_detects_breaks(self):
        g = WeightedGraph(
            nodes=[0, 1, 2], edges=[Edge(0, 0, 1, 1.0), Edge(1, 1, 2, 1.0)]
        )
        with pytest.raises(ValueError, match="breaks"):
            g.validate_path(PathGroup(source=0, target=2, edge_ids=(1, 0)))
