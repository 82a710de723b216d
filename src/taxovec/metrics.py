"""Graph similarity measures over a taxonomy.

Four measures share a common shape: two node ids in, one float out.
Disconnected pairs (no undirected path, or no common subsumer where one
is required) score 0.0. JCN between nodes whose propagated counts make
the distance collapse to zero returns math.inf; normalization downstream
clips such pairs to the top of the similarity range.

pair_similarity scores one pair; it and its scalar helpers are the
per-pair reference. SimilarityRows scores many pairs with the same values,
in three shapes: row() scores one node against every node it reaches
(one-vs-all queries), block() scores up to BLOCK sources in one traversal
(dataset builds), and grid() scores every pair of two id lists (static
selection, measure scorers). wup/jcn share one subsumer DP, and all
three shapes go through one score function per measure.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, RecordError
from .graph import (
    DepthIndex,
    TaxonomyGraph,
    bfs_distances,
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


def _flatten(lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, sizes, flat): index lists as one flat array and their slices."""
    sizes = np.array([len(xs) for xs in lists], dtype=np.int64)
    flat = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64, count=sizes.sum())
    return np.cumsum(sizes) - sizes, sizes, flat


def _spans(starts: np.ndarray, sizes: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Positions in a flat array of the slices of a non-empty `nodes`, in order."""
    deg = sizes[nodes]
    ends = np.cumsum(deg)
    return np.arange(ends[-1]) + np.repeat(starts[nodes] - ends + deg, deg)


def _topological_levels(g: TaxonomyGraph) -> tuple[np.ndarray, list[tuple]]:
    """Longest-path level of every node, and the DP schedule below level 0.

    Kahn's algorithm a level at a time: a node joins the next level when
    its last parent leaves the current one, so every parent sits on a
    lower level than its child. The schedule holds, per level from 1 up:
    its nodes, each node followed by its parents, the offsets of those
    families (for np.maximum.reduceat), and for every family entry the
    position of its node among the level's nodes.
    """
    parent_at, n_parents, parents = _flatten(g.parents)
    child_at, n_children, children = _flatten(g.children)
    level = np.zeros(g.n, dtype=np.int64)
    remaining = n_parents.copy()
    schedule = []
    nodes = np.flatnonzero(remaining == 0)
    while len(nodes):
        hits = np.bincount(children[_spans(child_at, n_children, nodes)], minlength=g.n)
        remaining -= hits
        nodes = np.flatnonzero((remaining == 0) & (hits > 0))
        level[nodes] = len(schedule) + 1
        sizes = 1 + n_parents[nodes]
        owner = np.repeat(np.arange(len(nodes)), sizes)
        offsets = np.cumsum(sizes) - sizes
        k = np.arange(len(owner)) - offsets[owner]  # 0 for the node, j for its j-th parent
        families = np.where(k == 0, nodes[owner], parents[parent_at[nodes[owner]] + k - 1])
        schedule.append((nodes, families, offsets, owner))
    return level, schedule[:-1]  # the last level found is empty


class SimilarityRows:
    """Scores many node pairs under one measure, in three shapes.

    - row(src, max_dist): one source against every node it reaches, by a
      plain BFS (one-vs-all queries);
    - block(sources, max_dist): up to BLOCK sources against every node
      they reach, by one bit-parallel BFS with one uint64 word per node and
      bit j for the j-th source (Then et al., VLDB 2014; dataset builds);
    - grid(us, vs): every pair of two id lists (static selection, measure
      scorers), through block() for shp/lch and the DP alone for wup/jcn.

    Scores agree exactly with pair_similarity. shp/lch map each
    breadth-first distance through shp_from_path/lch_from_path. wup/jcn
    take the deepest common subsumer of each source and each target from
    one DP, _subsumers, over a topological schedule of the DAG:

        best[t] = max(key(t) if t is an ancestor of src, best[p] for parents p)

    with key (depth, -index), the tie order of lcs_index, and one column
    per source. The DP visits only the ancestor closure of the targets,
    except after a full reach, which holds that closure already. The
    schedule, the key ranks, the IC vector and the CSR adjacency are
    derived once per instance, so build one instance per batch of queries.
    Every shape scores through _scores, so each formula lives once.
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
        best = self._subsumers(src, targets, closed=max_dist is None)
        return targets, self._scores(src, targets, best[targets])

    def block(
        self, sources: np.ndarray, max_dist: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sources, targets, scores) triples for an array of at most BLOCK
        distinct dense indices `sources`, in any order.

        For each of those sources the triples hold exactly the (target,
        score) pairs of row(source, max_dist), the source itself
        included, grouped by distance rather than in visit order.

        Each level ORs the frontier's words into their neighbours' words
        over the frontier's CSR slices only, and unpacks just the words
        that gained bits. A level costs the frontier's edges plus one
        scan of an n-word array, and only reached pairs are
        materialised, so a fast-mode block costs its reach, not BLOCK x n.
        """
        starts, degree, flat = self._csr
        src = np.asarray(sources, dtype=np.int64)
        frontier = src
        words = np.left_shift(np.uint64(1), np.arange(len(src), dtype=np.uint64))
        seen = np.zeros(self.g.n, dtype=np.uint64)
        seen[src] = words
        reach = np.zeros(self.g.n, dtype=np.uint64)  # work array, all zero between levels
        targets, columns, sizes = [src], [np.arange(len(src))], [len(src)]  # per distance
        while max_dist is None or len(sizes) <= max_dist:
            # OR each frontier word into the words of its node's neighbours
            edges = _spans(starts, degree, frontier)
            np.bitwise_or.at(reach, flat[edges], np.repeat(words, degree[frontier]))
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
        if self.measure in ("shp", "lch"):
            dist = np.repeat(np.arange(len(sizes)), sizes)
            return src[columns], targets, self._scores(src[columns], targets, dist)
        best = self._subsumers(src, targets, closed=max_dist is None)
        return src[columns], targets, self._scores(src[columns], targets, best[targets, columns])

    def grid(self, us: Sequence[str], vs: Sequence[str]) -> np.ndarray:
        """Raw scores of every pair in us x vs, shape (len(us), len(vs)).

        A pair without a path (shp/lch) or a common subsumer (wup/jcn)
        scores NaN, where pair_similarity reports 0.0; an unknown id
        raises UnknownNodeError. Repeated ids are scored once. shp/lch
        run one full-reach block() per BLOCK distinct ids of `us` and keep
        the `vs` columns; wup/jcn run no traversal, only the subsumer DP
        over the ancestor closure of `vs`, BLOCK ids of `us` at a time.
        """
        (rows, row_of), (cols, col_of) = (
            np.unique(np.array([self.g.idx(x) for x in xs], dtype=np.int64), return_inverse=True)
            for xs in (us, vs)
        )
        out = np.full((len(rows), len(cols)), np.nan)
        col_at = np.full(self.g.n, -1)
        col_at[cols] = np.arange(len(cols))
        for first in range(0, len(rows) if len(cols) else 0, BLOCK):
            src = rows[first : first + BLOCK]
            if self.measure in ("shp", "lch"):
                sources, targets, scores = self.block(src)
                col = col_at[targets]
                hit = col >= 0
                out[first + np.searchsorted(src, sources[hit]), col[hit]] = scores[hit]
            else:
                best = self._subsumers(src, cols, closed=False)
                out[first : first + len(src)] = self._scores(src[:, None], cols, best[cols].T)
        return out[row_of][:, col_of]

    @functools.cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The undirected adjacency as (starts, degrees, flat)."""
        return _flatten(self.g.neighbors)

    def _subsumers(self, sources, targets: np.ndarray, closed: bool) -> np.ndarray:
        """Key rank of the deepest common subsumer of a source and a node,
        -1 where there is none: best[t] for one source index, best[t, j]
        for sources[j] of an array. Exact at `targets` and their ancestors.

        A downward pass over the schedule marks the ancestor closure of
        `targets`; the DP then runs upward over the marked nodes only and
        skips every level without one. `closed` says that `targets`
        already holds every ancestor of its nodes, as a full reach does:
        the marking would then mark all of them, so it is skipped and
        every level up to the deepest target runs whole.
        """
        n = self.g.n
        best = np.full((n, *np.shape(sources)), -1, dtype=np.int64)
        for j, s in enumerate(np.atleast_1d(sources).tolist()):
            anc = np.fromiter(self.g.ancestors(s), dtype=np.int64)
            best.reshape(n, -1)[anc, j] = self._rank[anc]
        # a node's best depends only on lower levels: stop at the deepest target
        levels = self._schedule[: self._level[targets].max(initial=0)]
        if closed:
            for nodes, families, offsets, _ in levels:
                best[nodes] = np.maximum.reduceat(best[families], offsets, axis=0)
            return best
        marked = np.zeros(n, dtype=bool)
        marked[targets] = True
        hits = []  # deepest level first
        for nodes, families, _, owner in reversed(levels):
            hit = marked[nodes]
            marked[families[hit[owner]]] = True
            hits.append(hit)
        for (nodes, families, offsets, owner), hit in zip(levels, reversed(hits)):
            if hit.any():
                keep = hit[owner]  # the marked nodes' families, still contiguous
                offs = np.cumsum(keep)[offsets[hit]] - 1
                best[nodes[hit]] = np.maximum.reduceat(best[families[keep]], offs, axis=0)
        return best

    def _scores(self, src, targets: np.ndarray, key: np.ndarray) -> np.ndarray:
        """Raw similarities of the pairs (src, targets).

        `src` and `targets` broadcast against `key`: one index, one per
        cell, or a column and a row of a grid. `key` is the breadth-first
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
