import os
from pathlib import Path

import numpy as np
import pytest

import ciarith
from ciarith.graph import Edge, WeightedGraph, save_edge_list


def child_env() -> dict:
    """The caller's environment, with the ``ciarith`` this process imported
    first on PYTHONPATH so a child process tests the same source tree."""
    env = dict(os.environ)
    src = str(Path(ciarith.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def make_grid_graph(k: int, rng_seed: int = 0) -> WeightedGraph:
    """k x k four-neighbour grid whose edge costs follow the edge features.

    Labels stay strictly positive so they can double as routing costs, and
    a linear model on (feat_0, feat_1) predicts them well.
    """
    rng = np.random.default_rng(rng_seed)
    edges = []
    eid = 0
    for r in range(k):
        for c in range(k):
            u = r * k + c
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < k and 0 <= cc < k:
                    x1 = float(rng.uniform(0.1, 1.0))
                    x2 = float(rng.uniform(0.1, 1.0))
                    label = max(0.5 + x1 + 0.5 * x2 + 0.1 * float(rng.normal()), 0.01)
                    edges.append(
                        Edge(eid, u, rr * k + cc, cost=label,
                             features=(x1, x2), label=label)
                    )
                    eid += 1
    return WeightedGraph(nodes=range(k * k), edges=edges)


@pytest.fixture
def grid_graph_csv(tmp_path):
    def make(k: int = 6, rng_seed: int = 0):
        path = tmp_path / f"grid_{k}_{rng_seed}.csv"
        save_edge_list(make_grid_graph(k, rng_seed), path)
        return path

    return make


@pytest.fixture
def tiny_tabular_csv(tmp_path):
    rng = np.random.default_rng(12)
    n = 120
    cat = rng.integers(0, 4, size=n)
    x = rng.normal(size=n)
    y = 0.5 * cat + x + 0.3 * rng.normal(size=n)
    path = tmp_path / "tiny.csv"
    lines = ["y,cat,x"]
    lines += [f"{y[i]},{cat[i]},{x[i]}" for i in range(n)]
    path.write_text("\n".join(lines) + "\n")
    return path
