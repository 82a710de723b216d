"""Taxonomy graph loading and traversal primitives.

Nodes are string ids mapped to dense integer indices in file order.
Directed edges point child -> parent (specialization -> generalization);
the undirected adjacency is the union of both directions and is what
path lengths are measured on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import RecordError, StructuralError, UnknownNodeError
from .io import records


class TaxonomyGraph:
    """Immutable directed acyclic hypernym graph over string node ids."""

    def __init__(self, ids: Sequence[str], edges: Iterable[tuple[str, str]]):
        self.ids: tuple[str, ...] = tuple(ids)
        self.index: dict[str, int] = {node: i for i, node in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise StructuralError("duplicate node ids in graph construction")

        n = len(self.ids)
        parents: list[list[int]] = [[] for _ in range(n)]
        children: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for child, parent in edges:
            c, p = self.idx(child), self.idx(parent)
            if c == p:
                raise StructuralError(f"self-loop on node {child!r}")
            if (c, p) in seen:
                continue
            seen.add((c, p))
            parents[c].append(p)
            children[p].append(c)

        self.parents: list[list[int]] = parents
        self.children: list[list[int]] = children
        self.neighbors: list[list[int]] = [
            sorted(set(parents[i]) | set(children[i])) for i in range(n)
        ]
        self._check_acyclic()

    @property
    def n(self) -> int:
        return len(self.ids)

    def idx(self, node: str) -> int:
        try:
            return self.index[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {node!r}") from None

    def has(self, node: str) -> bool:
        return node in self.index

    def roots(self) -> list[int]:
        """Indices of nodes without parents (isolated nodes included)."""
        return [i for i in range(self.n) if not self.parents[i]]

    def ancestors(self, i: int) -> set[int]:
        """Reflexive ancestor set of a dense index, following parent edges."""
        result = {i}
        stack = [i]
        while stack:
            for p in self.parents[stack.pop()]:
                if p not in result:
                    result.add(p)
                    stack.append(p)
        return result

    def _check_acyclic(self) -> None:
        # iterative DFS over child->parent edges; a gray target closes a cycle
        WHITE, GRAY, BLACK = 0, 1, 2
        color = [WHITE] * self.n
        for start in range(self.n):
            if color[start] != WHITE:
                continue
            stack: list[tuple[int, int]] = [(start, 0)]
            color[start] = GRAY
            while stack:
                node, k = stack[-1]
                if k < len(self.parents[node]):
                    stack[-1] = (node, k + 1)
                    nxt = self.parents[node][k]
                    if color[nxt] == GRAY:
                        raise StructuralError(
                            f"cycle through edge {self.ids[node]!r} -> {self.ids[nxt]!r}"
                        )
                    if color[nxt] == WHITE:
                        color[nxt] = GRAY
                        stack.append((nxt, 0))
                else:
                    color[node] = BLACK
                    stack.pop()


@dataclass(frozen=True)
class DepthIndex:
    """Node depths counted in nodes along the shortest path to a root.

    depth(root) = 1; max_depth is the maximum depth over all nodes.
    """

    depths: tuple[int, ...]
    max_depth: int

    def depth(self, i: int) -> int:
        return self.depths[i]


def load_edge_list(path: str | Path, virtual_root: str | None = None) -> TaxonomyGraph:
    """Load a graph from a `child<TAB>parent` edge list (see taxovec.io).

    A single-field line inserts an isolated node. Nodes are indexed in
    order of first mention. When `virtual_root` is given, a node with
    that id is appended and every parentless node is attached to it as a
    child. An id may not begin with `#`: first on a pairs-file line, it
    would read back as a comment.
    """
    mentions: list[str] = []
    edges: list[tuple[str, str]] = []
    for where, fields in records(path, "child[<TAB>parent]"):
        mentions += fields
        if len(fields) == 2:
            if fields[0] == fields[1]:
                raise StructuralError(f"{where}: self-loop on {fields[0]!r}")
            # only a parent can: a line whose first field begins with '#' is a comment
            if fields[1].startswith("#"):
                raise RecordError(f"{where}: node id {fields[1]!r} begins with '#', which starts a comment")
            edges.append((fields[0], fields[1]))
    ids = dict.fromkeys(mentions)

    if virtual_root is not None:
        if virtual_root.startswith("#"):
            raise StructuralError(f"virtual root id {virtual_root!r} begins with '#', which starts a comment")
        if virtual_root in ids:
            raise StructuralError(f"virtual root id {virtual_root!r} already in graph")
        has_parent = {c for c, _ in edges}
        edges.extend((node, virtual_root) for node in ids if node not in has_parent)
        ids[virtual_root] = None

    return TaxonomyGraph(list(ids), edges)


def bfs_distances(
    adjacency: list[list[int]], src: int, max_dist: int | None = None
) -> tuple[list[int], list[int]]:
    """Breadth-first reach of `src` over an adjacency list.

    Returns (order, starts): the reached nodes in visit order, `src`
    first, and level offsets such that the nodes at distance d are
    order[starts[d]:starts[d + 1]] (the last level may be empty). With
    `max_dist`, only nodes within that many edges are visited, so the
    work follows the reach rather than the graph size.
    """
    seen = bytearray(len(adjacency))
    seen[src] = 1
    order = [src]
    starts = [0]
    while starts[-1] < len(order) and (max_dist is None or len(starts) <= max_dist):
        level = order[starts[-1] :]
        starts.append(len(order))
        for u in level:
            for w in adjacency[u]:
                if not seen[w]:
                    seen[w] = 1
                    order.append(w)
    starts.append(len(order))
    return order, starts


def csr_adjacency(g: TaxonomyGraph) -> tuple[np.ndarray, np.ndarray]:
    """The undirected adjacency as CSR arrays (offsets, flat), both int64.

    The neighbors of node i are flat[offsets[i]:offsets[i + 1]], in the
    sorted order of g.neighbors[i]; an isolated node has an empty slice.
    """
    offsets = np.zeros(g.n + 1, dtype=np.int64)
    for i, adj in enumerate(g.neighbors):
        offsets[i + 1] = offsets[i] + len(adj)
    flat = np.fromiter(
        (w for adj in g.neighbors for w in adj), dtype=np.int64, count=int(offsets[-1])
    )
    return offsets, flat


def shortest_path_length(g: TaxonomyGraph, u: str, v: str) -> int | None:
    """Edges on the shortest undirected path between two nodes, None if disconnected."""
    ui, vi = g.idx(u), g.idx(v)
    if ui == vi:
        return 0
    dist = [-1] * g.n
    dist[ui] = 0
    queue = deque([ui])
    while queue:
        a = queue.popleft()
        da = dist[a] + 1
        for w in g.neighbors[a]:
            if dist[w] < 0:
                if w == vi:
                    return da
                dist[w] = da
                queue.append(w)
    return None


def compute_depths(g: TaxonomyGraph) -> DepthIndex:
    """Depth of every node: 1 + edges on the shortest parent path to a root."""
    depths = [0] * g.n
    queue = deque()
    for r in g.roots():
        depths[r] = 1
        queue.append(r)
    while queue:
        u = queue.popleft()
        d = depths[u] + 1
        for c in g.children[u]:
            if depths[c] == 0:
                depths[c] = d
                queue.append(c)
    # acyclicity guarantees every node reaches a root through parents
    assert all(depths), "depth computation missed a node"
    return DepthIndex(tuple(depths), max(depths))
