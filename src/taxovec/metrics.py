"""Graph similarity measures over a taxonomy.

Four measures share a common shape: two node ids in, one float out.
Disconnected pairs (no undirected path, or no common subsumer where one
is required) score 0.0. JCN between nodes whose propagated counts make
the distance collapse to zero returns math.inf; normalization downstream
clips such pairs to the top of the similarity range.

pair_similarity scores one pair. SimilarityRows scores many pairs with
the same values, in two shapes: row() scores one node against every node
it reaches (one-vs-all queries, static selection), and block() scores a
block of BLOCK consecutive sources in one traversal (dataset builds).
Both go through one score function per measure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, RecordError
from .graph import (
    DepthIndex,
    TaxonomyGraph,
    bfs_distances,
    csr_adjacency,
    shortest_path_length,
)
from .io import real, records

MEASURES = ("shp", "lch", "wup", "jcn")

BLOCK = 64  # sources per block pass: one bit each of a uint64 word

_EPS = 1e-12


@dataclass(frozen=True)
class InformationContentTable:
    """Propagated corpus counts and their total, indexed by dense node index."""

    counts: tuple[float, ...]
    total: float

    def ic(self, i: int) -> float:
        """Information content -log(count/total); math.inf for a zero count."""
        c = self.counts[i]
        if c <= 0.0:
            return math.inf
        return -math.log(c / self.total)


def load_raw_counts(path: str | Path, g: TaxonomyGraph) -> list[float]:
    """Read `node<TAB>count` lines (see taxovec.io) into a dense raw-count vector.

    Nodes absent from the file get 0; repeated nodes accumulate. Unknown
    ids and negative or non-finite counts are data errors.
    """
    raw = [0.0] * g.n
    for where, (node, count_s) in records(path, "node<TAB>count"):
        count = real(count_s, where, "count")
        if count < 0:
            raise RecordError(f"{where}: negative count for {node!r}")
        raw[g.idx(node)] += count
    return raw


def propagate_counts(g: TaxonomyGraph, raw: list[float]) -> InformationContentTable:
    """Fold raw counts upward: count(v) = sum of raw over v and its descendants.

    Each observed node contributes once to every ancestor even when the
    DAG offers several upward routes. The total is the mass that reached
    the roots; an all-zero table is rejected because every IC would be
    undefined.
    """
    if len(raw) != g.n:
        raise DataError(f"raw count vector has {len(raw)} entries, graph has {g.n}")
    counts = [0.0] * g.n
    for u, mass in enumerate(raw):
        if mass <= 0.0:
            continue
        for a in g.ancestors(u):
            counts[a] += mass
    total = sum(counts[r] for r in g.roots())
    if total <= 0.0:
        raise DataError("all corpus counts are zero; information content undefined")
    if not math.isfinite(total):
        raise DataError(f"corpus counts sum to {total!r}; information content undefined")
    return InformationContentTable(tuple(counts), total)


def shp_from_path(pathlen: int | None) -> float:
    """Inverted path length 1/(1+L); 0.0 when there is no path."""
    if pathlen is None:
        return 0.0
    return 1.0 / (1.0 + pathlen)


def lch_from_path(pathlen: int | None, max_depth: int) -> float:
    """Leacock-Chodorow -log((L+1)/(2D)) on node-counted paths; 0.0 when disconnected."""
    if pathlen is None:
        return 0.0
    return -math.log((pathlen + 1) / (2.0 * max_depth))


def lcs_index(g: TaxonomyGraph, depths: DepthIndex, ui: int, vi: int) -> int | None:
    """Dense index of the deepest common ancestor, or None.

    Ancestorhood is reflexive. Ties on depth break toward the smaller
    index, which makes the result deterministic for a fixed load order.
    """
    common = g.ancestors(ui) & g.ancestors(vi)
    if not common:
        return None
    return max(common, key=lambda a: (depths.depths[a], -a))


def wup_index(g: TaxonomyGraph, depths: DepthIndex, ui: int, vi: int) -> float:
    """Wu-Palmer 2*depth(lcs) / (depth(u)+depth(v)); 0.0 without a common subsumer."""
    lcs = lcs_index(g, depths, ui, vi)
    if lcs is None:
        return 0.0
    return 2.0 * depths.depths[lcs] / (depths.depths[ui] + depths.depths[vi])


def jcn_index(
    g: TaxonomyGraph,
    depths: DepthIndex,
    table: InformationContentTable,
    ui: int,
    vi: int,
) -> float:
    """Jiang-Conrath 1 / (ic(u) + ic(v) - 2*ic(lcs)).

    Unobserved endpoints (infinite IC) score 0.0; a distance that
    collapses below 1e-12 scores math.inf.
    """
    ic_u = table.ic(ui)
    ic_v = table.ic(vi)
    if math.isinf(ic_u) or math.isinf(ic_v):
        return 0.0
    lcs = lcs_index(g, depths, ui, vi)
    if lcs is None:
        return 0.0
    denom = ic_u + ic_v - 2.0 * table.ic(lcs)
    if denom < _EPS:
        return math.inf
    return 1.0 / denom


def validate_measure(measure: str) -> str:
    m = measure.lower()
    if m not in MEASURES:
        raise ConfigError(
            f"unknown measure {measure!r}; expected one of {', '.join(MEASURES)}"
        )
    return m


def _measure_with_context(
    measure: str, depths: DepthIndex | None, ic_table: InformationContentTable | None
) -> str:
    """Validated measure name; a missing DepthIndex or IC table is a config error."""
    m = validate_measure(measure)
    if m in ("lch", "wup", "jcn") and depths is None:
        raise ConfigError(f"measure {m!r} requires node depths")
    if m == "jcn" and ic_table is None:
        raise ConfigError("measure 'jcn' requires an information content table")
    return m


def pair_similarity(
    measure: str,
    g: TaxonomyGraph,
    u: str,
    v: str,
    depths: DepthIndex | None = None,
    ic_table: InformationContentTable | None = None,
) -> float:
    """Score one pair of node ids under the named measure.

    `lch` and `wup` need a DepthIndex, `jcn` needs both a DepthIndex and
    an InformationContentTable; missing requirements are config errors.
    """
    m = _measure_with_context(measure, depths, ic_table)
    if m == "shp":
        return shp_from_path(shortest_path_length(g, u, v))
    if m == "lch":
        return lch_from_path(shortest_path_length(g, u, v), depths.max_depth)
    ui, vi = g.idx(u), g.idx(v)
    if m == "wup":
        return wup_index(g, depths, ui, vi)
    return jcn_index(g, depths, ic_table, ui, vi)


def _topological_levels(g: TaxonomyGraph) -> tuple[np.ndarray, list[tuple]]:
    """Longest-path level of every node, and the DP schedule below level 0.

    Every parent sits on a lower level than its child. The schedule holds,
    per level from 1 up: its nodes, each node followed by its parents, and
    the offsets of those families (for np.maximum.reduceat).
    """
    remaining = [len(ps) for ps in g.parents]
    level = [0] * g.n
    topo = [i for i in range(g.n) if not remaining[i]]
    for u in topo:
        for c in g.children[u]:
            level[c] = max(level[c], level[u] + 1)
            remaining[c] -= 1
            if not remaining[c]:
                topo.append(c)
    by_level: list[list[int]] = [[] for _ in range(max(level, default=0) + 1)]
    for u in topo:
        by_level[level[u]].append(u)
    schedule = []
    for nodes in by_level[1:]:
        sizes = [1 + len(g.parents[u]) for u in nodes]
        schedule.append((
            np.array(nodes),
            np.array([x for u in nodes for x in (u, *g.parents[u])]),
            np.cumsum([0] + sizes[:-1]),
        ))
    return np.array(level), schedule


class SimilarityRows:
    """Scores source nodes against every node they reach, under one measure.

    Scores agree exactly with pair_similarity. shp/lch map each
    breadth-first distance through shp_from_path/lch_from_path. wup/jcn
    take the deepest common subsumer of a source and every node from one
    pass over a topological schedule of the DAG:

        best[t] = max(key(t) if t is an ancestor of src, best[p] for parents p)

    with key (depth, -index), the tie order of lcs_index. That schedule,
    the key ranks, the IC vector and the CSR adjacency are derived once
    per instance and shared by every row and block, so build one instance
    per batch of queries.

    row() serves one source with a plain BFS. block() serves BLOCK sources
    at once: a bit-parallel BFS (one uint64 word per node, bit j for the
    j-th source; Then et al., VLDB 2014) and the same DP with one column
    per source. Both score through _scores, so each formula lives once.
    """

    def __init__(
        self,
        g: TaxonomyGraph,
        measure: str,
        depths: DepthIndex | None = None,
        ic_table: InformationContentTable | None = None,
    ):
        self.g = g
        self.measure = _measure_with_context(measure, depths, ic_table)
        if self.measure == "shp":
            self._path_score = shp_from_path
        elif self.measure == "lch":
            self._path_score = functools.partial(lch_from_path, max_depth=depths.max_depth)
        else:
            n = g.n
            self._depth = np.asarray(depths.depths, dtype=np.int64)
            self._by_rank = np.lexsort((-np.arange(n), self._depth))
            self._rank = np.empty(n, dtype=np.int64)
            self._rank[self._by_rank] = np.arange(n)
            self._level, self._schedule = _topological_levels(g)
        if self.measure == "jcn":
            self._ic = np.array([ic_table.ic(i) for i in range(g.n)])

    def row(self, src: int, max_dist: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(targets, scores) for dense index `src`.

        `targets` holds every node within `max_dist` undirected edges of
        `src` (all connected nodes when None) in breadth-first visit
        order, `src` first; `scores` holds their raw similarities. Nodes
        absent from `targets` have no path to `src` within the limit. A
        wup/jcn target sharing no common subsumer with `src` scores NaN,
        where pair_similarity reports 0.0.
        """
        order, starts = bfs_distances(self.g.neighbors, src, max_dist)
        targets = np.array(order)
        if self.measure in ("shp", "lch"):
            dist = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
            return targets, self._scores(src, targets, dist)

        best = np.full(self.g.n, -1, dtype=np.int64)
        anc = np.fromiter(self.g.ancestors(src), dtype=np.int64)
        best[anc] = self._rank[anc]
        # a node's best depends only on lower levels: stop at the deepest target
        for nodes, families, offsets in self._schedule[: self._level[targets].max()]:
            best[nodes] = np.maximum.reduceat(best[families], offsets)
        return targets, self._scores(src, targets, best[targets])

    def block(
        self, first: int, max_dist: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sources, targets, scores) triples for the sources first, ...,
        min(first + BLOCK, n) - 1.

        For each of those sources the triples hold exactly the (target,
        score) pairs of row(source, max_dist), the source itself
        included, grouped by distance rather than in visit order.

        Each level ORs the frontier's words into their neighbours' words
        over the frontier's CSR slices only, and unpacks just the words
        that gained bits. A level costs the frontier's edges plus one
        scan of an n-word array, and only reached pairs are
        materialised, so a fast-mode block costs its reach, not BLOCK x n.
        """
        offsets, flat, degree = self._csr
        n = self.g.n
        src = np.arange(first, min(first + BLOCK, n))
        frontier = src
        words = np.left_shift(np.uint64(1), np.arange(len(src), dtype=np.uint64))
        seen = np.zeros(n, dtype=np.uint64)
        seen[src] = words
        reach = np.zeros(n, dtype=np.uint64)  # work array, all zero between levels
        targets, columns, sizes = [src], [src - first], [len(src)]  # per distance
        while max_dist is None or len(sizes) <= max_dist:
            # OR each frontier word into the words of its node's neighbours
            deg = degree[frontier]
            ends = np.cumsum(deg)
            edges = np.arange(ends[-1]) + np.repeat(offsets[frontier] - ends + deg, deg)
            np.bitwise_or.at(reach, flat[edges], np.repeat(words, deg))
            touched = np.flatnonzero(reach)
            new = reach[touched] & ~seen[touched]
            reach[touched] = 0
            fresh = np.flatnonzero(new)
            if not len(fresh):
                break
            frontier, words = touched[fresh], new[fresh]
            seen[frontier] |= words
            # emit (target, source) for the set bits of the new words only
            bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
            found = np.flatnonzero(bits.view(bool))  # word i, bit j at 64 * i + j
            targets.append(frontier[found >> 6])
            columns.append(found & 63)
            sizes.append(len(found))
        targets = np.concatenate(targets)
        columns = np.concatenate(columns)
        sources = first + columns
        if self.measure in ("shp", "lch"):
            dist = np.repeat(np.arange(len(sizes)), sizes)
            return sources, targets, self._scores(sources, targets, dist)

        best = np.full((n, len(src)), -1, dtype=np.int64)
        for j, s in enumerate(src.tolist()):
            anc = np.fromiter(self.g.ancestors(s), dtype=np.int64)
            best[anc, j] = self._rank[anc]
        for nodes, families, offs in self._schedule[: self._level[targets].max()]:
            best[nodes] = np.maximum.reduceat(best[families], offs, axis=0)
        return sources, targets, self._scores(sources, targets, best[targets, columns])

    @functools.cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR adjacency (offsets, flat) and every node's degree."""
        offsets, flat = csr_adjacency(self.g)
        return offsets, flat, np.diff(offsets)

    def _scores(self, src, targets: np.ndarray, key: np.ndarray) -> np.ndarray:
        """Raw similarities of the pairs (src, targets[i]).

        `src` is one index or one per target. `key` is the breadth-first
        distance for shp/lch, and the rank of the deepest common subsumer
        for wup/jcn, -1 where there is none (scored NaN).
        """
        if self.measure in ("shp", "lch"):
            per_dist = [self._path_score(d) for d in range(int(key.max(initial=0)) + 1)]
            return np.array(per_dist)[key]
        lcs = self._by_rank[key]  # garbage where key < 0; masked below
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.measure == "wup":
                depth = self._depth
                scores = 2.0 * depth[lcs] / (depth[src] + depth[targets])
            else:
                ic = self._ic
                denom = ic[src] + ic[targets] - 2.0 * ic[lcs]
                scores = np.where(denom < _EPS, np.inf, 1.0 / denom)
                scores[np.isinf(ic[src]) | np.isinf(ic[targets])] = 0.0
        scores[key < 0] = np.nan
        return scores
