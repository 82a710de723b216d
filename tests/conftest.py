"""Shared fixtures and graph generators for the test suite."""

from __future__ import annotations

import tempfile
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from taxovec.evaluation import MeasureScorer
from taxovec.graph import TaxonomyGraph, load_edge_list
from taxovec.metrics import BLOCK, MEASURES, propagate_counts
from taxovec.trainer import EmbeddingMatrix, ModelScorer

from oracles import prufer_tree


def ids_for(n: int) -> list[str]:
    return [f"n{i:03d}" for i in range(n)]


def rooted_tree_edges(n: int, seed: int) -> list[tuple[int, int]]:
    """Random labeled tree oriented child->parent away from node 0."""
    undirected = prufer_tree(n, seed)
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in undirected:
        adj[a].append(b)
        adj[b].append(a)
    parent = {0: None}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    return [(c, p) for c, p in parent.items() if p is not None]


def random_tree_graph(n: int, seed: int) -> TaxonomyGraph:
    ids = ids_for(n)
    edges = [(ids[c], ids[p]) for c, p in rooted_tree_edges(n, seed)]
    return TaxonomyGraph(ids, edges)


def random_dag_edges(n: int, seed: int, extra: int = 0) -> list[tuple[int, int]]:
    """Tree plus `extra` forward edges toward strictly smaller indices."""
    rng = np.random.default_rng(seed)
    edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    present = set(edges)
    added = 0
    while added < extra:
        c = int(rng.integers(1, n))
        p = int(rng.integers(0, c))
        if (c, p) not in present:
            present.add((c, p))
            edges.append((c, p))
            added += 1
    return edges


def random_dag_graph(n: int, seed: int, extra: int = 0) -> TaxonomyGraph:
    ids = ids_for(n)
    edges = [(ids[c], ids[p]) for c, p in random_dag_edges(n, seed, extra)]
    return TaxonomyGraph(ids, edges)


@st.composite
def edge_lists(draw, forest: bool):
    """(node count, child->parent edges toward smaller indices)."""
    n = draw(st.integers(2, 14))
    edges = set()
    for c in range(1, n):
        # in a forest some nodes start a new tree
        if not forest or draw(st.booleans()):
            edges.add((c, draw(st.integers(0, c - 1))))
    for _ in range(draw(st.integers(0, n // 2))):
        c = draw(st.integers(1, n - 1))
        edges.add((c, draw(st.integers(0, c - 1))))
    return n, sorted(edges)


def edges_of(g: TaxonomyGraph) -> list[tuple[int, int]]:
    """The graph's child->parent edges as index pairs."""
    return [(c, p) for c in range(g.n) for p in g.parents[c]]


def edge_list_lines(n: int, edges: list[tuple[int, int]]) -> list[str]:
    """An edge-list file's lines: every node alone, then every edge."""
    return [f"n{i}" for i in range(n)] + [f"n{c}\tn{p}" for c, p in edges]


def graph_from(n: int, edges: list[tuple[int, int]], virtual_root: bool) -> TaxonomyGraph:
    return graph_from_lines(edge_list_lines(n, edges), virtual_root)


def graph_from_lines(lines: list[str], virtual_root: bool) -> TaxonomyGraph:
    """load_edge_list of the lines; nodes are numbered in order of first mention."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return load_edge_list(path, virtual_root="ROOT" if virtual_root else None)


# random DAGs with multiple inheritance, forests whose trees can share a
# child, and the same forests joined under a virtual root by load_edge_list
graphs = st.one_of(
    edge_lists(forest=False).map(lambda ne: graph_from(*ne, virtual_root=False)),
    edge_lists(forest=True).map(lambda ne: graph_from(*ne, virtual_root=False)),
    edge_lists(forest=True).map(lambda ne: graph_from(*ne, virtual_root=True)),
)


@st.composite
def block_graphs(draw):
    """Graphs of 1 to 200 nodes: DAGs, forests or forests under a virtual
    root, some with isolated nodes anywhere in the load order."""
    n = draw(st.one_of(st.integers(1, 200), st.sampled_from([1, 2, BLOCK, BLOCK + 1, 2 * BLOCK + 1])))
    kind = draw(st.sampled_from(["dag", "forest", "rooted"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = set()
    for c in range(1, n):
        if kind == "dag" or rng.random() < 0.8:
            edges.add((c, int(rng.integers(0, c))))
    for _ in range(int(rng.integers(0, n // 4 + 1))):
        c = int(rng.integers(1, n))
        edges.add((c, int(rng.integers(0, c))))
    if draw(st.booleans()):
        isolated = set(rng.choice(n, size=min(n, 3), replace=False).tolist())
        edges = {(c, p) for c, p in edges if c not in isolated and p not in isolated}
    return graph_from(n, sorted(edges), virtual_root=kind == "rooted")


def every_scorer(g: TaxonomyGraph, seed: int, d: int = 4) -> list:
    """Each kind of scorer on g: model dots and cosines of a random float32
    embedding of its nodes whose first row is zero, and measure scorers of
    the four measures, raw and normalized, jcn on random corpus counts."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(g.n, d)).astype(np.float32)
    matrix[0] = 0.0
    m = EmbeddingMatrix(g.ids, matrix)
    raw = [float(x) for x in rng.integers(0, 3, size=g.n)]
    raw[0] += 1.0  # some mass, some unobserved nodes
    table = propagate_counts(g, raw)
    return [ModelScorer(m, mode) for mode in ("dot", "cosine")] + [
        MeasureScorer(g, measure, ic_table=table, norm_range=norm) for measure in MEASURES for norm in (None, (0.1, 0.6))
    ]


@pytest.fixture
def chain3() -> TaxonomyGraph:
    """a <- b <- c (c and b are children; a is the root)."""
    return TaxonomyGraph(["a", "b", "c"], [("b", "a"), ("c", "b")])


@pytest.fixture
def star3() -> TaxonomyGraph:
    """Root r with children x and y."""
    return TaxonomyGraph(["r", "x", "y"], [("x", "r"), ("y", "r")])
