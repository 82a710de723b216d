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

    Construction runs one topological pass that rejects a cycle and stores
    every node's level and depth; `csr` and `schedule`, the array forms the
    measures and the trainer share, are derived once per graph on first use.
    """

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
        self.levels, self.depths = self._topological_pass()

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

    def _topological_pass(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(levels, depths) of every node from one Kahn pass, parents first.

        A node's level is its longest parent path to a root and its depth
        1 + its shortest one (roots: level 0, depth 1). A node the pass
        never reaches still has an unreached parent, so walking those
        parents closes a cycle; the StructuralError names its last edge.
        """
        n = self.n
        remaining = [len(ps) for ps in self.parents]
        order = [i for i, k in enumerate(remaining) if not k]
        levels = [0] * n
        depths = [1 if not k else n + 1 for k in remaining]
        for u in order:  # grows while it is walked
            lu, du = levels[u] + 1, depths[u] + 1
            for c in self.children[u]:
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
        return tuple(levels), tuple(depths)

    @functools.cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The undirected adjacency as CSR arrays (offsets, flat), both int64.

        The neighbors of node i are flat[offsets[i]:offsets[i + 1]], in the
        sorted order of neighbors[i]; an isolated node has an empty slice.
        """
        return _flatten(self.neighbors)

    @functools.cached_property
    def schedule(self) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
        """The levels as an int64 array, and the levels above 0 as a
        schedule for a DP that needs every parent before its child.

        Per level from 1 up the schedule holds: its nodes in index order,
        each node followed by its parents (its family), the offsets of
        those families (for np.maximum.reduceat), and for every family
        entry the position of its node among the level's nodes.
        """
        level = np.array(self.levels, dtype=np.int64)
        order = np.argsort(level, kind="stable")
        bounds = np.searchsorted(level[order], np.arange(level.max(initial=0) + 2)).tolist()
        offsets, flat = _flatten(self.parents)
        n_parents = np.diff(offsets)[order]
        parents = flat[spans(offsets[order], n_parents)]
        families = np.insert(parents, np.cumsum(n_parents) - n_parents, order)  # all, in level order
        family_at = np.concatenate(([0], np.cumsum(n_parents + 1)))
        owner = np.repeat(np.arange(self.n), n_parents + 1)
        schedule = []
        for a, b in zip(bounds[1:-1], bounds[2:]):
            lo, hi = family_at[a], family_at[b]
            schedule.append((order[a:b], families[lo:hi], family_at[a:b] - lo, owner[lo:hi] - a))
        return level, schedule


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
    child; it must be an id an edge list could hold, not empty, padded or
    holding a TAB or line break. An id may not begin with `#`: first on a
    pairs-file line, it would read back as a comment.
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


def _flatten(lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, flat): index lists as one int64 array and n + 1 slice offsets."""
    sizes = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    flat = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64, count=int(offsets[-1]))
    return offsets, flat


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
    """Depth of every node: 1 + edges on the shortest parent path to a root."""
    return DepthIndex(g.depths, max(g.depths))
