"""Shared fixtures and graph generators for the test suite."""

from __future__ import annotations

import tempfile
from collections import deque
from pathlib import Path

import pytest
from hypothesis import strategies as st

from taxovec.graph import TaxonomyGraph, load_edge_list

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
    import numpy as np

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


def graph_from(n: int, edges: list[tuple[int, int]], virtual_root: bool) -> TaxonomyGraph:
    lines = [f"n{i}" for i in range(n)] + [f"n{c}\tn{p}" for c, p in edges]
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


@pytest.fixture
def chain3() -> TaxonomyGraph:
    """a <- b <- c (c and b are children; a is the root)."""
    return TaxonomyGraph(["a", "b", "c"], [("b", "a"), ("c", "b")])


@pytest.fixture
def star3() -> TaxonomyGraph:
    """Root r with children x and y."""
    return TaxonomyGraph(["r", "x", "y"], [("x", "r"), ("y", "r")])
