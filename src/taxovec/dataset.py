"""Training dataset construction.

Builds (node, node, similarity) triples from a taxonomy graph: score each
source node against every node it reaches (any distance in full mode,
at most two edges in fast mode), drop pairs under a raw threshold, keep
each node's top-k most similar partners, unity-normalize the survivors,
and shuffle with a seeded PRNG.

The sources are taken BLOCK at a time, and each block's top-k are
selected for all of its sources at once. Similarity is symmetric, so a
node's own partners are all scored from its block and its top-k come from
there. shp and lch fall strictly with distance: their pairs are read from
the levels of one bit-parallel traversal per block
(SimilarityRows.levels), the threshold as a distance cutoff that a full
build walks no further than, and the top-k as each source's nearest
levels. A full wup/jcn build makes every node of a source's component a
target, so it runs no traversal: SimilarityRows.table scores the block
against every node from the subsumer DP, masked to each source's
component without the source. A fast wup/jcn build scores only the cells
of its sparse two-edge reach, from the levels. Both keep every passing
cell when no source of the block has more than k of them, and otherwise
sort one packed int64 key per cell: (source column, score rank, target).
A kept pair is recorded once per end as the code min*n + max; one sort
of the codes merges the two ends and orders the survivors canonically
before the shuffle, so the file depends only on the graph and the
config. shp/lch pairs carry their distance until that merge and their
score after it.
Every block counts the pairs it reached and kept at the threshold from
both ends, so halving the sums counts each pair once; a full build's
candidates are its connected pairs instead. Memory is one block's levels
for shp/lch; for full wup/jcn a nodes x BLOCK score table and subsumer
table, with a few temporaries of that size; for fast wup/jcn the scored
cells of its reach and the subsumer table; plus O(nodes * top_k) for the
survivors.

The pairs flow from the build through the pairs file to the trainer as
one columnar Pairs; TrainingPair is only the row type of its indexing.
"""

from __future__ import annotations

import bisect
import itertools
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateRangeError, EmptyDatasetError, RecordError
from .graph import DepthIndex, TaxonomyGraph
from .io import atomic_write, header, real, records
from .metrics import BLOCK, InformationContentTable, SimilarityRows, _check_depths, unpack, validate_measure

DEFAULT_THRESHOLDS = {"shp": 0.1, "jcn": 0.1, "wup": 0.3, "lch": 1.5}

MODES = ("full", "fast")

WRITE_CHUNK = 1 << 12  # pairs converted to Python values at a time by write_pairs

LEVEL_MEASURES = ("shp", "lch")  # scores that fall strictly with BFS distance: pairs read from the levels


class TrainingPair(NamedTuple):
    u: str
    v: str
    s: float


@dataclass(frozen=True, eq=False)
class Pairs(Sequence):
    """Pairs as columns: pair k joins ids[i[k]] and ids[j[k]] with score s[k].

    An int indexes one pair as a TrainingPair; a slice or a mask selects
    a Pairs over the same ids.
    """

    ids: tuple[str, ...]
    i: np.ndarray  # int32
    j: np.ndarray  # int32
    s: np.ndarray  # float64

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str, float]]) -> Pairs:
        """Pairs from (u, v, s) rows, ids numbered in order of first mention."""
        index: dict[str, int] = {}
        ends, sims = array("i"), array("d")
        for u, v, s in rows:
            ends.append(index.setdefault(u, len(index)))
            ends.append(index.setdefault(v, len(index)))
            sims.append(s)
        ends = np.frombuffer(ends, dtype=np.int32).reshape(-1, 2)
        return cls(tuple(index), ends[:, 0], ends[:, 1], np.frombuffer(sims, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.s)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return TrainingPair(self.ids[self.i[key]], self.ids[self.j[key]], float(self.s[key]))
        return Pairs(self.ids, self.i[key], self.j[key], self.s[key])

    def on(self, g: TaxonomyGraph) -> tuple[np.ndarray, np.ndarray]:
        """Both ends of every pair as int64 indices into g; UnknownNodeError names the first unknown end."""
        ends = np.stack([self.i, self.j], axis=1).ravel()
        at = np.array([g.index.get(node, -1) for node in self.ids], dtype=np.int64)[ends]
        if (at < 0).any():
            g.idx(self.ids[ends[np.argmax(at < 0)]])
        return at[0::2], at[1::2]


@dataclass(frozen=True)
class DatasetConfig:
    """Knobs for dataset construction.

    A None threshold resolves to the per-measure default: 0.1 for shp and
    jcn, 0.3 for wup, 1.5 for lch.
    """

    measure: str
    threshold: float | None = None
    top_k: int = 50
    mode: str = "full"
    seed: int = 0

    def __post_init__(self) -> None:
        validate_measure(self.measure)
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected full or fast")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.threshold is not None and math.isnan(self.threshold):
            raise ConfigError("threshold must be a number, got nan")

    @property
    def raw_threshold(self) -> float:
        if self.threshold is not None:
            return self.threshold
        return DEFAULT_THRESHOLDS[self.measure.lower()]


@dataclass
class DatasetBuild:
    """Finished dataset plus the statistics the run manifest reports."""

    pairs: Pairs
    config: DatasetConfig
    candidate_count: int
    threshold_kept: int
    norm_min: float
    norm_max: float

    def header(self) -> dict[str, str]:
        return {
            "measure": self.config.measure.lower(),
            "threshold": repr(self.config.raw_threshold),
            "top_k": str(self.config.top_k),
            "mode": self.config.mode,
            "seed": str(self.config.seed),
            "norm_min": repr(self.norm_min),
            "norm_max": repr(self.norm_max),
        }


def _normalize(values: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Map values to [0,1] by (x - min)/(max - min); also returns the finite (min, max).

    Infinite sentinels are excluded from the min/max statistics and end
    up clipped to 1.0. Fewer than two distinct finite values leave the
    map undefined.
    """
    finite = values[np.isfinite(values)]
    if len(finite) < 2:
        raise DegenerateRangeError(
            f"normalization needs at least 2 finite values, got {len(finite)}"
        )
    lo, hi = float(finite.min()), float(finite.max())
    if hi - lo < 1e-12:
        raise DegenerateRangeError(f"all finite values equal ({lo!r}); range degenerate")
    return rescale(values, lo, hi), lo, hi


def rescale(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """(x - lo)/(hi - lo) clipped to [0,1]: the map of the pairs files, and of a scorer normalized by one."""
    # fmin before fmax, as max(0, min(1, x)): NaN maps to 1.0
    return np.fmax(np.fmin((values - lo) / (hi - lo), 1.0), 0.0)


def _build(g: TaxonomyGraph, cfg: DatasetConfig, ic_table: InformationContentTable | None) -> DatasetBuild:
    """The one loop over the blocks for every measure. A block's selector gives its kept codes with their
    values (shp/lch: distances) and the pairs it reached and kept at the threshold, counted from both ends."""
    measure = cfg.measure.lower()
    rows = SimilarityRows(g, measure, ic_table=ic_table)
    threshold = cfg.raw_threshold
    max_dist = 2 if cfg.mode == "fast" else None
    # any k >= n - 1 keeps every partner, so k is clamped to n: a k beyond int64 would overflow the selection
    top_k = min(cfg.top_k, g.n)
    scores = None  # shp/lch: the score of each passing distance, which their values index
    if measure in LEVEL_MEASURES:
        # the scores fall strictly with distance, so a pair passes the threshold when its distance is
        # below `passing`; a full build walks no further, a fast build both of its levels for its count
        passing = bisect.bisect_left(
            range(g.n if max_dist is None else max_dist + 1), True, key=lambda d: not rows.path_score(d) >= threshold
        )
        walk = max(passing - 1, 0) if max_dist is None else max_dist
        scores = np.array([rows.path_score(d) for d in range(passing)])
        select = lambda sources: _select_levels(rows, sources, walk, passing, top_k)  # noqa: E731
    elif max_dist is None:
        select = lambda sources: _select_table(rows, sources, threshold, top_k)  # noqa: E731
    else:
        select = lambda sources: _select_reach(rows, sources, max_dist, threshold, top_k)  # noqa: E731
    codes, values, reached, kept = zip(*map(select, _blocks(g.n)))
    codes, values = _merge(np.concatenate(codes), np.concatenate(values))
    if not len(codes):
        raise EmptyDatasetError(f"no pairs survive threshold {threshold!r} for measure {measure!r}")
    if max_dist is None:  # every connected pair is a candidate, walked or not
        sizes = np.bincount(g.components)
        candidates = int((sizes * (sizes - 1) // 2).sum())
    else:
        candidates = sum(reached) // 2
    normalized, lo, hi = _normalize(values if scores is None else scores[values])

    perm = np.random.default_rng(cfg.seed).permutation(len(codes))
    codes, normalized = codes[perm], normalized[perm]
    return DatasetBuild(
        pairs=Pairs(g.ids, (codes // g.n).astype(np.int32), (codes % g.n).astype(np.int32), normalized),
        config=cfg,
        candidate_count=candidates,
        threshold_kept=sum(kept) // 2,
        norm_min=lo,
        norm_max=hi,
    )


def _merge(codes: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes in order, each with its value. Both ends of a
    pair may keep it, with values equal bit for bit: any will do."""
    order = np.argsort(codes)
    codes = codes[order]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    return codes[first], values[order[first]]


def _blocks(n: int) -> Iterator[np.ndarray]:
    """The sources of each block pass: BLOCK consecutive node indices at a time."""
    return (np.arange(first, min(first + BLOCK, n)) for first in range(0, n, BLOCK))


def _select_levels(
    rows: SimilarityRows, sources: np.ndarray, max_dist: int, passing: int, top_k: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """shp/lch: each source's top-k partners from the BFS levels of a
    block of sources, walked up to `max_dist`, where the distances below
    `passing` are those whose score passes the threshold.

    The scores fall strictly with distance, so a source's top-k by (score
    desc, partner index asc) are its nearest whole levels, then the
    lowest-index partners of the first level that overflows. Returns the
    kept pairs as codes min*n + max with their distances, and the
    (source, target) pairs reached within `max_dist` and within the
    threshold, by np.bitwise_count of each level's words.

    No pair is scored or sorted beyond the kept ones. The passing levels
    are held and unpacked together, masked to the sources still short of
    k; a flush comes when the held words would pass n or the k x
    short-source partners still wanted, and unpacking stops once every
    source holds k.
    """
    n = rows.g.n
    need = np.full(len(sources), top_k, dtype=np.int64)  # partners each source still lacks
    held, held_words, kept, reached = [], 0, [], [0]  # distance 0 holds the sources themselves
    for dist, (nodes, words) in enumerate(rows.levels(sources, max_dist)):
        if dist == 0:
            continue
        reached.append(int(np.bitwise_count(words).sum(dtype=np.int64)))
        if dist >= passing or not need.any():
            continue
        if held and held_words + len(nodes) > min(n, top_k * np.count_nonzero(need)):
            kept.append(_take_nearest(held, need, sources, passing, n))
            held, held_words = [], 0
        if need.any():
            held.append((dist, nodes, words))
            held_words += len(nodes)
    if held:
        kept.append(_take_nearest(held, need, sources, passing, n))
    codes, dists = zip(*kept) if kept else ([np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.uint8)])
    return np.concatenate(codes), np.concatenate(dists), sum(reached), sum(reached[:passing])


def _take_nearest(
    held: list[tuple[int, np.ndarray, np.ndarray]], need: np.ndarray, sources: np.ndarray, passing: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The nearest partners of each source in held (distance, nodes,
    words) levels, as codes min*n + max with their distances, in the
    fewest bytes that hold a distance below `passing`: up to need[j] for
    sources[j], by (distance, partner index), taken from need."""
    if not need.all():  # unpack only the bits of the sources still short
        short = np.bitwise_or.reduce(np.left_shift(np.uint64(1), np.flatnonzero(need).astype(np.uint64)))
        masked = [(dist, nodes, words & short) for dist, nodes, words in held]
        held = [(dist, nodes[words != 0], words[words != 0]) for dist, nodes, words in masked]
    targets, columns, sizes = unpack([(nodes, words) for _, nodes, words in held], len(sources))
    dist = np.repeat(np.array([d for d, _, _ in held], dtype=np.min_scalar_type(passing)), sizes)
    found = np.bincount(columns, minlength=len(sources))
    if (found > need).any():  # a source overflows: keep its nearest by (distance, partner index)
        order = np.argsort(columns, kind="stable")  # unpacked by distance and partner index
        targets, columns, dist = targets[order], columns[order], dist[order]
        take = np.arange(len(columns)) - np.repeat(np.cumsum(found) - found, found) < need[columns]
        targets, columns, dist = targets[take], columns[take], dist[take]
    need -= np.minimum(found, need)
    heads = sources[columns]
    return np.minimum(heads, targets) * n + np.maximum(heads, targets), dist


def _select_reach(
    rows: SimilarityRows, sources: np.ndarray, max_dist: int, threshold: float, top_k: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Each source's top-k partners among the nodes within `max_dist`
    edges: the levels after the sources' own, unpacked in one call (at
    most 2n words at max_dist 2), scored by SimilarityRows.table and, the
    passing cells only, selected by _top_k.

    Returns the kept pairs as codes min*n + max with their raw scores,
    and the (source, target) cells reached and passing the threshold.
    """
    held = list(rows.levels(sources, max_dist))[1:]  # level 0 holds the sources themselves
    if not held:
        return np.empty(0, dtype=np.int64), np.empty(0), 0, 0
    targets, columns, _ = unpack(held, len(sources))
    sim = rows.table(sources, (targets, columns))
    sim[np.isnan(sim)] = 0.0  # a reached pair without common subsumer
    passing = sim >= threshold
    codes, kept_sims = _top_k(sources, columns[passing], targets[passing], sim[passing], rows.g.n, top_k)
    return codes, kept_sims, len(targets), int(np.count_nonzero(passing))


def _select_table(
    rows: SimilarityRows, sources: np.ndarray, threshold: float, top_k: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """wup/jcn in full mode: each source's top-k partners from one dense
    table of every node's score against it, SimilarityRows.table.

    The table is masked to each source's component without the source
    itself, so a pair in another component is never a candidate, at any
    threshold; _top_k selects from the passing entries, column by column.
    Returns as _select_reach.
    """
    sim = rows.table(sources)  # a column per source
    sim[np.isnan(sim)] = 0.0  # a connected pair without common subsumer
    component = rows.g.components
    other = component[:, None] == component[sources]
    other[sources, np.arange(len(sources))] = False
    passing = other & (sim >= threshold)
    tgt, column = np.nonzero(passing)  # in the order of sim[passing]
    codes, kept_sims = _top_k(sources, column, tgt, sim[passing], rows.g.n, top_k)
    return codes, kept_sims, int(np.count_nonzero(other)), int(np.count_nonzero(passing))


def _top_k(
    sources: np.ndarray, columns: np.ndarray, tgt: np.ndarray, sim: np.ndarray, n: int, top_k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each source's top-k of its passing triples (sources[columns[i]], tgt[i], sim[i]), as codes
    min*n + max with their scores, bit for bit. Similarity is symmetric, so a node's own triples hold
    all its partners; its top-k are the best by (sim desc, partner index asc).

    When no source has more than k triples, all are kept unsorted: _merge orders the codes. Otherwise
    one int64 key per triple, (column, descending score rank, target, sign bit: -0.0 ranks with 0.0),
    is sorted and each column's first k kept. A key over 63 bits is a ConfigError.
    """
    sizes = np.bincount(columns, minlength=len(sources))
    if sizes.max(initial=0) > top_k:
        order = np.argsort(sim)
        ascending = sim[order]
        new = np.concatenate(([True], ascending[1:] != ascending[:-1]))
        values = ascending[new][::-1]  # the distinct scores, best first
        rank = np.empty(len(sim), dtype=np.int64)
        rank[order] = len(values) - np.cumsum(new)
        c, r, t = (len(sources) - 1).bit_length(), (len(values) - 1).bit_length(), (n - 1).bit_length()
        if c + r + t + 1 > 63:
            raise ConfigError(f"top-k key of {c + r + t + 1} bits for {n} nodes: the limit is 63")
        # widened before the shift: a uint8 column shifted by an int stays uint8
        key = ((columns.astype(np.int64) << r | rank) << t | tgt) << 1 | np.signbit(sim)
        key.sort()
        key = key[np.arange(len(key)) - np.repeat(np.cumsum(sizes) - sizes, sizes) < top_k]
        columns, tgt = key >> (r + t + 1), key >> 1 & ((1 << t) - 1)
        sim = np.copysign(values[key >> (t + 1) & ((1 << r) - 1)], -(key & 1))
    heads = sources[columns]
    return np.minimum(heads, tgt) * n + np.maximum(heads, tgt), sim


def build_full(
    g: TaxonomyGraph,
    cfg: DatasetConfig,
    depths: DepthIndex | None = None,
    ic_table: InformationContentTable | None = None,
) -> DatasetBuild:
    """Dataset over all connected pairs. See the module docstring for the pipeline.
    Another graph's `depths` is a config error; the value is otherwise unused."""
    _check_depths(cfg.measure, g, depths)
    return _build(g, replace(cfg, mode="full"), ic_table)


def build_fast(
    g: TaxonomyGraph,
    cfg: DatasetConfig,
    depths: DepthIndex | None = None,
    ic_table: InformationContentTable | None = None,
) -> DatasetBuild:
    """Dataset restricted to second-order neighborhoods (distance 1 or 2).
    Another graph's `depths` is a config error; the value is otherwise unused."""
    _check_depths(cfg.measure, g, depths)
    return _build(g, replace(cfg, mode="fast"), ic_table)


def write_pairs(path: str | Path, build: DatasetBuild) -> None:
    """Write a `# key=value` header followed by `u<TAB>v<TAB>s` rows, s
    as repr() gives it.

    Each chunk's rows are written as one string, and each distinct score
    of a chunk is formatted once: distinct by its bits, so -0.0 and 0.0
    stay apart.
    """
    with atomic_write(path) as fh:
        for key, value in build.header().items():
            fh.write(f"# {key}={value}\n")
        pairs, ids = build.pairs, build.pairs.ids
        for k in range(0, len(pairs), WRITE_CHUNK):
            chunk = slice(k, k + WRITE_CHUNK)
            bits, inverse = np.unique(pairs.s[chunk].view(np.uint64), return_inverse=True)
            text = [repr(x) for x in bits.view(np.float64).tolist()]
            rows = zip(pairs.i[chunk].tolist(), pairs.j[chunk].tolist(), inverse.tolist())
            fh.write("".join([f"{ids[a]}\t{ids[b]}\t{text[x]}\n" for a, b, x in rows]))


PAIRS_LAYOUT = "u<TAB>v<TAB>s"


def read_pairs(path: str | Path) -> tuple[Pairs, dict[str, str]]:
    """Read a training-pairs file; returns (pairs, read_pairs_header(path)).

    Ids are numbered in order of first mention. s must lie in [0, 1]. A
    self pair, or a pair whose unordered ends repeat an earlier line's,
    is a DataError naming both lines.
    """

    def rows() -> Iterator[tuple[str, str, float]]:
        for where, (u, v, s) in records(path, PAIRS_LAYOUT):
            sim = real(s, where, "similarity")
            if not 0.0 <= sim <= 1.0:
                raise RecordError(f"{where}: similarity {sim!r} outside [0,1]")
            if u == v:
                raise RecordError(f"{where}: self pair on {u!r}")
            yield u, v, sim

    pairs = Pairs.from_rows(rows())
    codes = np.minimum(pairs.i, pairs.j).astype(np.int64) * len(pairs.ids) + np.maximum(pairs.i, pairs.j)
    if (np.diff(np.sort(codes)) == 0).any():  # rescan for the two lines rather than keep every line's
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        k = int(np.flatnonzero(first[inverse] != np.arange(len(codes)))[0])
        e = int(first[inverse[k]])
        lines = itertools.islice(records(path, PAIRS_LAYOUT), k + 1)
        (earlier, _), (where, (u, v, _)) = (rec for r, rec in enumerate(lines) if r in (e, k))
        raise RecordError(f"{where}: pair ({u!r}, {v!r}) repeats {earlier}")
    return pairs, read_pairs_header(path)


read_pairs_header = header  # the `# key=value` block opening a pairs file; later comments are not read
