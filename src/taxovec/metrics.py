"""Graph similarity measures over a taxonomy.

Four measures share a common shape: two node ids in, one float out.
Disconnected pairs (no undirected path, or no common subsumer where one
is required) score 0.0. JCN between nodes whose propagated counts make
the distance collapse to zero returns math.inf; normalization downstream
clips such pairs to the top of the similarity range.

pair_similarity scores one pair; it and its scalar helpers are the
per-pair reference. SimilarityRows scores many pairs with the same values:
table() scores up to BLOCK sources against every node, or given (target,
source) cells, under every measure, shp/lch by walking the bit-parallel BFS
of levels(), wup/jcn by the subsumer DP alone; one-vs-all rows are its
tables of one source, and grids() (every pair of two id lists, for many
requests at once) and pairs() (aligned pairs) score through one packer of
their cells. shp/lch dataset builds read levels() directly, and fast
wup/jcn builds score the cells of levels() through table(). Every shape
scores through one formula per measure; the measures read g.depths.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, RecordError, UnknownNodeError
from .graph import DepthIndex, TaxonomyGraph, shortest_path_length, spans
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

    @functools.cached_property
    def ic_vector(self) -> np.ndarray:
        """ic(i) of every node as a float64 array, derived once per table."""
        return np.array([self.ic(i) for i in range(len(self.counts))])


def load_raw_counts(path: str | Path, g: TaxonomyGraph) -> list[float]:
    """Read `node<TAB>count` lines (see taxovec.io) into a dense raw-count vector.

    Nodes absent from the file get 0; repeated nodes accumulate. Unknown
    ids and negative or non-finite counts are data errors at file:line.
    """
    raw = [0.0] * g.n
    for where, (node, count_s) in records(path, "node<TAB>count"):
        count = real(count_s, where, "count")
        if count < 0:
            raise RecordError(f"{where}: negative count for {node!r}")
        if not g.has(node):
            raise UnknownNodeError(f"{where}: unknown node id {node!r}")
        raw[g.index[node]] += count
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


def lcs_index(g: TaxonomyGraph, ui: int, vi: int) -> int | None:
    """Dense index of the deepest common ancestor, or None.

    Ancestorhood is reflexive. Ties on depth break toward the smaller
    index, which makes the result deterministic for a fixed load order.
    """
    common = g.ancestors(ui) & g.ancestors(vi)
    if not common:
        return None
    return max(common, key=lambda a: (g.depths[a], -a))


def wup_index(g: TaxonomyGraph, ui: int, vi: int) -> float:
    """Wu-Palmer 2*depth(lcs) / (depth(u)+depth(v)); 0.0 without a common subsumer."""
    lcs = lcs_index(g, ui, vi)
    if lcs is None:
        return 0.0
    return 2.0 * g.depths[lcs] / (g.depths[ui] + g.depths[vi])


def jcn_index(g: TaxonomyGraph, table: InformationContentTable, ui: int, vi: int) -> float:
    """Jiang-Conrath 1 / (ic(u) + ic(v) - 2*ic(lcs)).

    Unobserved endpoints (infinite IC) score 0.0; a distance that
    collapses below 1e-12 scores math.inf.
    """
    ic_u = table.ic(ui)
    ic_v = table.ic(vi)
    if math.isinf(ic_u) or math.isinf(ic_v):
        return 0.0
    lcs = lcs_index(g, ui, vi)
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


def _measure_with_context(measure: str, g: TaxonomyGraph, ic_table: InformationContentTable | None) -> str:
    """Validated measure name; a missing or another graph's IC table is a config error."""
    m = validate_measure(measure)
    if m == "jcn" and ic_table is None:
        raise ConfigError("measure 'jcn' requires an information content table")
    if m == "jcn" and len(ic_table.counts) != g.n:
        raise ConfigError(f"measure 'jcn' was given an IC table of {len(ic_table.counts)} nodes, not {g.n}")
    return m


def _check_depths(measure: str, g: TaxonomyGraph, depths: DepthIndex | None) -> None:
    """The check behind the `depths` slot of build_full, build_fast and
    pair_similarity: lch, wup and jcn read g.depths, so another graph's
    DepthIndex is a config error; the value is otherwise unused."""
    if depths is not None and measure.lower() in ("lch", "wup", "jcn") and depths.depths != g.depths:
        raise ConfigError(f"measure {measure.lower()!r} was given the depths of another graph")


def pair_similarity(
    measure: str,
    g: TaxonomyGraph,
    u: str,
    v: str,
    depths: DepthIndex | None = None,
    ic_table: InformationContentTable | None = None,
) -> float:
    """Score one pair of node ids under the named measure.

    `jcn` needs an InformationContentTable. A missing one, or another
    graph's `depths`, is a config error; `depths` is otherwise unused.
    """
    _check_depths(measure, g, depths)
    m = _measure_with_context(measure, g, ic_table)
    if m == "shp":
        return shp_from_path(shortest_path_length(g, u, v))
    if m == "lch":
        return lch_from_path(shortest_path_length(g, u, v), g.max_depth)
    ui, vi = g.idx(u), g.idx(v)
    if m == "wup":
        return wup_index(g, ui, vi)
    return jcn_index(g, ic_table, ui, vi)


class SimilarityRows:
    """Scores many node pairs under one measure:

    - levels(sources, max_dist): the breadth-first levels of up to BLOCK
      sources, by one bit-parallel BFS with one uint64 word per node and
      bit j for the j-th source (Then et al., VLDB 2014), or by a bool
      frontier for one source; the only traversal, read directly by
      dataset builds and by table() for shp/lch;
    - table(sources, cells): the one scorer, for every measure, dense
      (those sources against every node) or aligned (only the cells
      (targets[k], sources[columns[k]])): shp/lch from levels(), stopping
      once every cell asked for is reached, wup/jcn from the subsumer DP
      alone, without a traversal (dataset builds of wup/jcn, on the cells
      their fast walk reached, one-vs-all queries as a table of one
      source, and _packed);
    - grids(requests): every pair of two id lists, for each (us, vs)
      request of a run (static selection, measure scorers, WSD), and
      pairs(us, vs): each aligned pair (us[k], vs[k]) (measure scorers);
      both score through _packed, one aligned table() per run of
      consecutive pieces of cells whose distinct rows fit in BLOCK sources.

    Scores agree exactly with pair_similarity. shp/lch map each
    breadth-first distance through path_score (shp_from_path, or
    lch_from_path at the graph's max_depth), which falls strictly as the
    distance grows. wup/jcn take the deepest common subsumer of each
    source and each target from one DP, _subsumers, over the DAG's parent
    edges grouped by level:

        best[t] = max(key(t) if t is an ancestor of src, best[p] for parents p)

    with key (depth, -index), the tie order of lcs_index, and one column
    per source. The DP folds only the edges into the ancestor closure of
    the targets, every edge when every node is a target. The CSR adjacency
    is built when the graph loads (g.csr), the schedule once per graph
    (g.schedule) and the IC vector once per table (ic_table.ic_vector), so an instance
    costs only its key ranks. Every shape scores through _scores, so each
    formula lives once.
    """

    def __init__(self, g: TaxonomyGraph, measure: str, *, ic_table: InformationContentTable | None = None):
        self.g = g
        self.measure = _measure_with_context(measure, g, ic_table)
        self._degree = np.diff(g.csr[0])
        if self.measure == "shp":
            self.path_score = shp_from_path
        elif self.measure == "lch":
            self.path_score = functools.partial(lch_from_path, max_depth=g.max_depth)
        else:
            n = g.n
            self._depth = np.asarray(g.depths, dtype=np.int64)
            self._by_rank = np.lexsort((-np.arange(n), self._depth))
            self._rank = np.empty(n, dtype=np.int64)
            self._rank[self._by_rank] = np.arange(n)
            self._level, self._schedule = g.schedule
        if self.measure == "jcn":
            self._ic = ic_table.ic_vector

    def levels(
        self, sources: np.ndarray, max_dist: int | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The breadth-first levels of an array of at most BLOCK distinct
        dense indices `sources`, in any order, as (nodes, words) per
        distance d = 0, 1, ... up to `max_dist` (all of their reach when
        None). More sources, a repeated source or an index outside the
        graph is a config error, raised at the first level.

        Bit j of a word stands for sources[j]: level d holds the nodes
        that some source first reaches at distance d, in index order, and
        each node's word has the bits of the sources that do. Level 0 is
        the sources in the order given, each with its own bit. The levels
        are fresh arrays that a consumer may hold.

        One dense `unseen` array holds each node's source bits not yet
        reached. A level ORs the frontier's words into their neighbours'
        words over the frontier's CSR slices only, masks the result with
        `unseen` and keeps the nonzero words as the next frontier: about a
        dozen numpy calls, the frontier's edges and a few scans of n words
        (Then et al., VLDB 2014). One source (one-vs-all rows, a table
        of one id) walks with n bools instead, _source_levels, as
        its words are all 1: no repeat, OR scatter or word scans.
        """
        offsets, flat = self.g.csr
        n = self.g.n
        src = self._block(sources)
        if len(src) == 1:
            yield from self._source_levels(src, max_dist)
            return
        frontier = src
        words = np.left_shift(np.uint64(1), np.arange(len(src), dtype=np.uint64))
        unseen = np.full(n, (1 << len(src)) - 1, dtype=np.uint64)
        unseen[src] ^= words
        reach = np.zeros(n, dtype=np.uint64)  # work array, all zero between levels
        for level in itertools.count():
            yield frontier, words
            if level == max_dist:
                return
            # OR each frontier word into the words of its node's neighbours
            degree = self._degree[frontier]
            edges = spans(offsets[frontier], degree)
            np.bitwise_or.at(reach, flat[edges], np.repeat(words, degree))
            reach &= unseen
            frontier = np.flatnonzero(reach != 0)  # a bool mask scans about 4x faster than words
            if not len(frontier):
                return
            words = reach[frontier]
            reach[frontier] = 0
            unseen[frontier] ^= words

    def _source_levels(self, src: np.ndarray, max_dist: int | None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """levels() of one source: every word is 1, so bool arrays stand in
        for the words, a neighbour is marked by assignment, and each level
        gets fresh words of ones."""
        offsets, flat = self.g.csr
        frontier = src
        unseen = np.ones(self.g.n, dtype=bool)
        unseen[src] = False
        reach = np.zeros(self.g.n, dtype=bool)  # work array, all False between levels
        for level in itertools.count():
            yield frontier, np.ones(len(frontier), dtype=np.uint64)
            if level == max_dist:
                return
            reach[flat[spans(offsets[frontier], self._degree[frontier])]] = True
            reach &= unseen
            frontier = np.flatnonzero(reach)
            if not len(frontier):
                return
            reach[frontier] = False
            unseen[frontier] = False

    def _block(self, sources: np.ndarray) -> np.ndarray:
        """`sources` as an int64 array, checked as levels() and table() take
        them: at most BLOCK distinct node indices, or a config error."""
        n = self.g.n
        src = np.asarray(sources, dtype=np.int64)
        ordered = np.sort(src)
        if (
            len(src) > BLOCK
            or (len(src) and (ordered[0] < 0 or ordered[-1] >= n))
            or (ordered[1:] == ordered[:-1]).any()
        ):
            raise ConfigError(
                f"a block takes at most {BLOCK} distinct node indices in [0, {n}), got "
                f"{len(src)} sources, {len(np.unique(src))} distinct, from {ordered[0]} to {ordered[-1]}"
            )
        return src

    def grids(self, requests: Sequence[tuple[Sequence[str], Sequence[str]]]) -> list[np.ndarray]:
        """The grid of each (us, vs) request: raw scores of every pair in us
        x vs, shape (len(us), len(vs)).

        A pair without a path (shp/lch) or a common subsumer (wup/jcn)
        scores NaN, where pair_similarity reports 0.0; an unknown id in any
        request raises UnknownNodeError before anything is scored. Repeated
        ids are scored once. _packed scores the pieces of BLOCK of each
        request's distinct ids of `us`, each against its distinct `vs`.
        """
        sides = [[np.unique(self._ids(xs), return_inverse=True) for xs in request] for request in requests]
        pieces = [(np.repeat(piece, len(cols)), np.tile(cols, len(piece)))
                  for (rows, _), (cols, _) in sides for piece in (rows[k : k + BLOCK] for k in range(0, len(rows), BLOCK))]
        sizes = [len(rows) * len(cols) for (rows, _), (cols, _) in sides]
        grids = np.split(self._packed(pieces), np.cumsum(sizes)[:-1])
        return [grid.reshape(len(rows), len(cols))[row_of][:, col_of]
                for grid, ((rows, row_of), (cols, col_of)) in zip(grids, sides)]

    def pairs(self, us: Sequence[str], vs: Sequence[str]) -> np.ndarray:
        """Raw scores of each aligned pair (us[k], vs[k]), the grids() cell
        with its NaN, from _packed pieces of BLOCK pairs. Sides of unequal
        length raise DataError, an unknown id UnknownNodeError, before
        anything is scored."""
        if len(us) != len(vs):
            raise DataError(f"aligned pairs need sides of one length, got {len(us)} and {len(vs)}")
        rows, targets = self._ids(us), self._ids(vs)
        return self._packed([(rows[k : k + BLOCK], targets[k : k + BLOCK]) for k in range(0, len(rows), BLOCK)])

    def _ids(self, xs: Sequence[str]) -> np.ndarray:
        return np.array([self.g.idx(x) for x in xs], dtype=np.int64)

    def _packed(self, pieces: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Raw scores of the cells (rows[k], targets[k]) of each (rows,
        targets) piece in turn, as one array; a piece has at most BLOCK
        distinct rows. Consecutive pieces share one aligned table() while
        their distinct rows fit in BLOCK sources, so a shp/lch walk stops
        at the farthest cell of its group."""
        groups: list[tuple[set[int], list[tuple[np.ndarray, np.ndarray]]]] = []  # (distinct rows, pieces)
        for rows, targets in pieces:
            if not len(rows):
                continue
            piece = set(rows.tolist())
            if not groups or len(groups[-1][0] | piece) > BLOCK:
                groups.append((set(), []))
            groups[-1][0].update(piece)
            groups[-1][1].append((rows, targets))
        scores = [np.empty(0)]
        for _, members in groups:
            sources, columns = np.unique(np.concatenate([rows for rows, _ in members]), return_inverse=True)
            scores.append(self.table(sources, (np.concatenate([targets for _, targets in members]), columns)))
        return np.concatenate(scores)

    def table(self, sources: np.ndarray, cells: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """Raw scores of `sources`, as levels() takes them, checked for
        every measure. Dense: every node against them, shape (n,
        len(sources)), one column per source (full wup/jcn dataset builds,
        one-vs-all rows as a table of one source). Aligned, with `cells` =
        (targets, columns): the 1-D scores of the cells (targets[k],
        sources[columns[k]]), where `targets` may repeat (fast wup/jcn
        dataset builds, _packed). A pair without a path (shp/lch) or a
        common subsumer (wup/jcn), so every pair in another component,
        scores NaN, where pair_similarity reports 0.0.

        shp/lch walk levels() (_path_table), cells over their distinct
        targets, until the last cell asked for is reached; wup/jcn run no
        traversal, only the subsumer DP, then _scores, whose formulas are
        symmetric in the two ends.
        """
        sources = self._block(sources)
        walks = self.measure in ("shp", "lch")
        if cells is None:
            if walks:
                return self._path_table(sources, None)
            return self._scores(np.arange(self.g.n)[:, None], sources, self._subsumers(sources, None))
        targets, columns = cells
        if walks:
            distinct, row = np.unique(targets, return_inverse=True)
            wanted = np.zeros((len(distinct), len(sources)), dtype=bool)
            wanted[row, columns] = True  # a lone grid wants every cell: no mask, so no per-level count
            return self._path_table(sources, distinct, None if wanted.all() else wanted)[row, columns]
        return self._scores(sources[columns], targets, self._subsumers(sources, targets)[targets, columns])

    def _path_table(
        self, sources: np.ndarray, targets: np.ndarray | None, wanted: np.ndarray | None = None
    ) -> np.ndarray:
        """table() for shp/lch: each (target, source) cell gets path_score(d)
        at the first level d of levels(sources) that reaches it. Only the
        level's nodes that are targets are unpacked, one source's straight
        into its column, and the walk stops once every cell is filled, or
        every cell that the bool mask `wanted` marks (None: all of them)."""
        out = np.full((self.g.n if targets is None else len(targets), len(sources)), np.nan)
        row_at = None
        if targets is not None:
            row_at = np.full(self.g.n, -1)
            row_at[targets] = np.arange(len(targets))
        left = out.size if wanted is None else np.count_nonzero(wanted)
        for dist, (nodes, words) in enumerate(self.levels(sources)):
            if row_at is not None:  # keep the targets, as their rows of out
                nodes = row_at[nodes]
                hit = nodes >= 0
                nodes, words = nodes[hit], words[hit]
            columns = 0
            if len(sources) == 1:  # its words are all 1
                out[:, 0][nodes] = self.path_score(dist)
            elif len(nodes):
                nodes, columns, _ = unpack([(nodes, words)], len(sources))
                out[nodes, columns] = self.path_score(dist)
            left -= len(nodes) if wanted is None else np.count_nonzero(wanted[nodes, columns])
            if not left:
                break
        return out

    def _subsumers(self, sources: np.ndarray, targets: np.ndarray | None) -> np.ndarray:
        """Key rank of the deepest common subsumer of sources[j] and node
        t as best[t, j], -1 where there is none. Exact at `targets` and
        their ancestors, or at every node when `targets` is None.

        best starts at _seed: by the bit pass for a full block of BLOCK
        sources with every node a target, where it measured faster, and
        from g.ancestors for fewer sources or given targets, where it did.
        A downward pass over the schedule marks the ancestor closure of
        `targets`; the DP then folds each level's marked edges (every edge
        when `targets` is None) upward with np.maximum.at, parents before
        children.
        """
        best = self._seed(sources, bits=targets is None and len(sources) == BLOCK)
        levels = self._schedule
        if targets is not None:
            # a node's best depends only on lower levels: stop at the deepest target
            levels = levels[: self._level[targets].max(initial=0)]
            marked = np.zeros(self.g.n, dtype=bool)
            marked[targets] = True
            for children, parents in reversed(levels):
                marked[parents[marked[children]]] = True
        for children, parents in levels:
            if targets is not None:
                hit = marked[children]
                children, parents = children[hit], parents[hit]
            np.maximum.at(best, children, best[parents])
        return best

    def _seed(self, sources: np.ndarray, bits: bool) -> np.ndarray:
        """Each source's reflexive ancestors a at their key rank, best[a, j]
        for sources[j], and -1 elsewhere. With `bits`, one upward pass of
        uint64 words over the schedule's parent edges finds them, bit j for
        sources[j] (at most BLOCK sources); without, g.ancestors does, one
        Python set per source."""
        n = self.g.n
        best = np.full((n, len(sources)), -1, dtype=np.int64)
        if bits:
            words = np.zeros(n, dtype=np.uint64)
            words[sources] = np.left_shift(np.uint64(1), np.arange(len(sources), dtype=np.uint64))
            for children, parents in reversed(self._schedule):
                np.bitwise_or.at(words, parents, words[children])
            packed = words.astype("<u8", copy=False).view(np.uint8).reshape(n, 8)
            found = np.unpackbits(packed, axis=1, bitorder="little")[:, : len(sources)]  # bit j in column j
            np.copyto(best, self._rank[:, None], where=found.view(bool))
            return best
        for j, s in enumerate(sources.tolist()):
            anc = np.fromiter(self.g.ancestors(s), dtype=np.int64)
            best[anc, j] = self._rank[anc]
        return best

    def _scores(self, src: np.ndarray, targets: np.ndarray, key: np.ndarray) -> np.ndarray:
        """Raw wup/jcn similarities of the pairs (src, targets).

        `src` and `targets` broadcast against `key`: one index per cell,
        or a column and a row of a table. `key` is the rank of the deepest
        common subsumer, -1 where there is none (scored NaN).
        """
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


def unpack(held: list[tuple[np.ndarray, np.ndarray]], sources: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(targets, columns, sizes) of the set bits of BFS levels held as
    (nodes, words), for a block of `sources` sources: only the low 1, 2,
    4 or 8 bytes of each word are unpacked, as the block has up to 8, 16,
    32 or 64 sources, in one unpackbits, so a one-source block unpacks 8
    bits per reached node. Bits run by level, node order within it, then
    bit; sizes counts the bits of each level."""
    width = next((w for w in (1, 2, 4) if sources <= 8 * w), 8)  # bytes unpacked per word
    shift = (8 * width).bit_length() - 1
    nodes = np.concatenate([f for f, _ in held])
    packed = np.concatenate([w for _, w in held]).astype(f"<u{width}", copy=False).view(np.uint8)
    found = np.flatnonzero(np.unpackbits(packed, bitorder="little").view(bool))  # word i, bit j at (i << shift) + j
    stops = [end << shift for end in itertools.accumulate(len(f) for f, _ in held)]
    ends = np.searchsorted(found, stops).tolist()
    columns = found.astype(np.uint8) & np.uint8(8 * width - 1)  # a column fits a byte: 8 x less memory
    found >>= shift
    return nodes[found], columns, [b - a for a, b in zip([0, *ends], ends)]
