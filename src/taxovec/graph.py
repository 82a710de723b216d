"""Taxonomy graph loading and traversal primitives.

Nodes are string ids mapped to dense integer indices in file order.
Directed edges point child -> parent (specialization -> generalization);
the undirected adjacency is the union of both directions and is what
path lengths are measured on.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import RecordError, StructuralError, UnknownNodeError
from .io import records


class TaxonomyGraph:
    """Immutable directed acyclic hypernym graph over string node ids.

    Construction maps the edges to int64 CSR arrays (offsets, flat): the
    parents and the children of each node in order of first mention, and
    `csr`, the undirected adjacency the measures, the dataset builds and
    the trainer share, node i's neighbors ascending in flat[offsets[i]:
    offsets[i + 1]]. One topological pass over the child edges rejects a
    cycle and stores every node's level and depth. `schedule` (the parent
    edges grouped by level) and `components` (each node's connected
    component) are derived from the arrays on first use.
    """

    def __init__(self, ids: Sequence[str], edges: Iterable[tuple[str, str]]):
        self.ids: tuple[str, ...] = tuple(ids)
        self.index: dict[str, int] = {node: i for i, node in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise StructuralError("duplicate node ids in graph construction")

        n, edges, get = len(self.ids), list(edges), self.index.get
        c, p = np.array([get(x, -1) for a, b in edges for x in (a, b)], dtype=np.int64).reshape(-1, 2).T
        bad = np.flatnonzero((c < 0) | (p < 0) | (c == p))
        if len(bad):  # the first edge at fault, checked as a walk in input order checks it
            child, parent = edges[bad[0]]
            self.idx(child), self.idx(parent)
            raise StructuralError(f"self-loop on node {child!r}")
        first = np.sort(np.unique(c * n + p, return_index=True)[1])  # a repeated edge counts at its first mention
        c, p = c[first], p[first]
        self._parent_csr, self._child_csr = _csr(c, p, n), _csr(p, c, n)
        self.levels, self.depths, self.max_depth = self._topological_pass()
        u, v = np.divmod(np.sort(np.concatenate((c * n + p, p * n + c))), n)  # acyclic: no edge both ways
        self.csr: tuple[np.ndarray, np.ndarray] = _csr(u, v, n)

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
        return np.flatnonzero(np.diff(self._parent_csr[0]) == 0).tolist()

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

    def _topological_pass(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """(levels, depths, max_depth) of the nodes from one Kahn pass, parents first.

        A node's level is its longest parent path to a root and its depth
        1 + its shortest one (roots: level 0, depth 1); max_depth is the
        largest depth (0 for a graph without nodes). A node the pass
        never reaches still has an unreached parent, so walking those
        parents closes a cycle; the StructuralError names its last edge.
        """
        n = self.n
        offsets, flat = (a.tolist() for a in self._child_csr)
        remaining = np.diff(self._parent_csr[0]).tolist()
        order = [i for i, k in enumerate(remaining) if not k]
        levels = [0] * n
        depths = [1 if not k else n + 1 for k in remaining]
        for u in order:  # grows while it is walked
            lu, du = levels[u] + 1, depths[u] + 1
            for c in flat[offsets[u] : offsets[u + 1]]:
                if levels[c] < lu:
                    levels[c] = lu
                if depths[c] > du:
                    depths[c] = du
                remaining[c] -= 1
                if not remaining[c]:
                    order.append(c)
        if len(order) < n:
            u = next(i for i, k in enumerate(remaining) if k)
            walked = set()
            while u not in walked:
                walked.add(u)
                child, u = u, next(p for p in self.parents[u] if remaining[p])
            raise StructuralError(f"cycle through edge {self.ids[child]!r} -> {self.ids[u]!r}")
        return tuple(levels), tuple(depths), max(depths, default=0)

    # the CSR rows as lists, made on first use for ancestors() (propagate_counts, lcs_index,
    # the subsumer seed without the bit pass), shortest_path_length and perfbench
    parents = functools.cached_property(lambda self: _lists(*self._parent_csr))
    children = functools.cached_property(lambda self: _lists(*self._child_csr))
    neighbors = functools.cached_property(lambda self: _lists(*self.csr))

    @functools.cached_property
    def schedule(self) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """The levels as an int64 array, and the parent edges grouped by
        level as a schedule for a DP that needs every parent before its child.

        Entry k holds the int64 arrays (children, parents) of every edge
        whose child is at level k + 1, by child index, then in parents[c]
        order; every parent sits at a lower level.
        """
        level = np.array(self.levels, dtype=np.int64)
        offsets, parents = self._parent_csr
        children = np.repeat(np.arange(self.n), np.diff(offsets))
        order = np.argsort(level[children], kind="stable")
        children, parents = children[order], parents[order]
        bounds = np.searchsorted(level[children], np.arange(1, level.max(initial=0) + 2)).tolist()
        return level, [(children[a:b], parents[a:b]) for a, b in zip(bounds, bounds[1:])]

    @functools.cached_property
    def components(self) -> np.ndarray:
        """Each node's connected component in the undirected adjacency as
        an int64 label, the components numbered 0, 1, ... in the order of
        their smallest node index."""
        offsets, flat = (a.tolist() for a in self.csr)
        label = [-1] * self.n
        count = 0
        for start in range(self.n):
            if label[start] >= 0:
                continue
            label[start] = count
            stack = [start]
            while stack:
                u = stack.pop()
                for w in flat[offsets[u] : offsets[u + 1]]:
                    if label[w] < 0:
                        label[w] = count
                        stack.append(w)
            count += 1
        return np.array(label, dtype=np.int64)


@dataclass(frozen=True)
class DepthIndex:
    """A graph's depths and max_depth, as compute_depths returns them.

    The measures read g.depths and g.max_depth; build_full, build_fast and
    pair_similarity still accept a DepthIndex and check it is the graph's own.
    """

    depths: tuple[int, ...]
    max_depth: int


def load_edge_list(path: str | Path, virtual_root: str | None = None) -> TaxonomyGraph:
    """Load a graph from a `child<TAB>parent` edge list (see taxovec.io).

    A single-field line inserts an isolated node. Nodes are indexed in
    order of first mention. When `virtual_root` is given, a node with
    that id is appended and every parentless node is attached to it as a
    child; it must be an id an edge list could hold, not empty, padded or
    holding a TAB or line break. An id may not begin with `#`: first on a
    pairs-file line, it would read back as a comment. A file holding no
    node is a StructuralError.
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
    if not ids:
        raise StructuralError(f"{path}: the graph holds no node")

    if virtual_root is not None:
        # an id an edge list could not hold would not read back from a pairs file
        if not virtual_root or virtual_root != virtual_root.strip() or any(ch in virtual_root for ch in "\t\r\n"):
            raise StructuralError(f"virtual root id {virtual_root!r} is empty, padded or holds a TAB or line break")
        if virtual_root.startswith("#"):
            raise StructuralError(f"virtual root id {virtual_root!r} begins with '#', which starts a comment")
        if virtual_root in ids:
            raise StructuralError(f"virtual root id {virtual_root!r} already in graph")
        has_parent = {c for c, _ in edges}
        edges.extend((node, virtual_root) for node in ids if node not in has_parent)
        ids[virtual_root] = None

    return TaxonomyGraph(list(ids), edges)


def bfs_distances(adjacency: list[list[int]], src: int) -> tuple[list[int], list[int]]:
    """Breadth-first reach of `src` over an adjacency list, one node at a time.

    Returns (order, starts): the reached nodes in visit order, `src`
    first, and level offsets such that the nodes at distance d are
    order[starts[d]:starts[d + 1]] (the last level is empty). The package
    scores through SimilarityRows.block's bit-parallel traversal; this
    plain BFS is the single-source reference it can be timed against.
    """
    seen = bytearray(len(adjacency))
    seen[src] = 1
    order = [src]
    starts = [0]
    while starts[-1] < len(order):
        level = order[starts[-1] :]
        starts.append(len(order))
        for u in level:
            for w in adjacency[u]:
                if not seen[w]:
                    seen[w] = 1
                    order.append(w)
    starts.append(len(order))
    return order, starts


def _csr(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, flat) int64 CSR arrays of n rows: row i's cols, in given order, are flat[offsets[i]:offsets[i + 1]]."""
    offsets = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return offsets, cols[np.argsort(rows, kind="stable")]


def _lists(offsets: np.ndarray, flat: np.ndarray) -> list[list[int]]:
    """The rows of CSR arrays as Python lists."""
    flat = flat.tolist()
    return [flat[a:b] for a, b in itertools.pairwise(offsets.tolist())]


def spans(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Positions in a flat array of the slices [starts[k], starts[k] + sizes[k]), in order."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + sizes, sizes)


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
    """g.depths and g.max_depth as a DepthIndex."""
    return DepthIndex(g.depths, g.max_depth)
