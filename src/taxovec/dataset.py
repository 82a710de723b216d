"""Training dataset construction.

Builds (node, node, similarity) triples from a taxonomy graph: score each
source node against every node it reaches (any distance in full mode,
at most two edges in fast mode), drop pairs under a raw threshold, keep
each node's top-k most similar partners, unity-normalize the survivors,
and shuffle with a seeded PRNG.

The sources are scored BLOCK at a time by SimilarityRows.block, one
bit-parallel traversal per block, and each block's top-k are selected
for all of its sources at once. Similarity is symmetric, so a node's own
triples hold all of its partners and its top-k come from its own block.
A kept pair is recorded once per end as the code min*n + max; one
np.unique over the codes merges the two ends and sorts the survivors
canonically before the shuffle, so the file depends only on the graph
and the config. Memory is one block's triples (at most BLOCK x nodes in
full mode, BLOCK x the two-edge reach in fast mode; wup/jcn add a
nodes x BLOCK subsumer table) plus O(nodes * top_k) for the survivors.

The pairs flow from the build through the pairs file to the trainer as
one columnar Pairs; TrainingPair is only the row type of its indexing.
"""

from __future__ import annotations

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
from .metrics import BLOCK, InformationContentTable, SimilarityRows, _check_depths, validate_measure

DEFAULT_THRESHOLDS = {"shp": 0.1, "jcn": 0.1, "wup": 0.3, "lch": 1.5}

MODES = ("full", "fast")

WRITE_CHUNK = 1 << 16  # pairs converted to Python values at a time by write_pairs


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


def unity_normalize(values: list[float]) -> list[float]:
    """Map values to [0,1] by (x - min)/(max - min).

    Infinite sentinels are excluded from the min/max statistics and end
    up clipped to 1.0. Fewer than two distinct finite values leave the
    map undefined.
    """
    return _normalize(np.asarray(values, dtype=np.float64))[0].tolist()


def _normalize(values: np.ndarray) -> tuple[np.ndarray, float, float]:
    """unity_normalize over an array; also returns the finite (min, max)."""
    finite = values[np.isfinite(values)]
    if len(finite) < 2:
        raise DegenerateRangeError(
            f"normalization needs at least 2 finite values, got {len(finite)}"
        )
    lo, hi = float(finite.min()), float(finite.max())
    if hi - lo < 1e-12:
        raise DegenerateRangeError(f"all finite values equal ({lo!r}); range degenerate")
    span = hi - lo
    # fmin before fmax, as max(0, min(1, x)): NaN maps to 1.0
    return np.fmax(np.fmin((values - lo) / span, 1.0), 0.0), lo, hi


def _build(g: TaxonomyGraph, cfg: DatasetConfig, ic_table: InformationContentTable | None) -> DatasetBuild:
    measure = cfg.measure.lower()
    rows = SimilarityRows(g, measure, ic_table=ic_table)
    max_dist = 2 if cfg.mode == "fast" else None
    threshold = cfg.raw_threshold

    codes, sims = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    candidates = 0
    kept = 0
    for first in range(0, g.n, BLOCK):
        block_codes, block_sims, block_candidates, block_kept = _select_block(
            rows.block(np.arange(first, min(first + BLOCK, g.n)), max_dist), g.n, threshold, cfg.top_k
        )
        codes.append(block_codes)
        sims.append(block_sims)
        candidates += block_candidates
        kept += block_kept
    codes = np.concatenate(codes)
    if not len(codes):
        raise EmptyDatasetError(
            f"no pairs survive threshold {threshold!r} for measure {measure!r}"
        )
    # both ends of a pair may keep it, with scores equal bit for bit: any will do
    index = np.argsort(codes)
    codes = codes[index]
    first = np.concatenate(([True], codes[1:] != codes[:-1]))
    codes, index = codes[first], index[first]
    normalized, lo, hi = _normalize(np.concatenate(sims)[index])

    perm = np.random.default_rng(cfg.seed).permutation(len(codes))
    codes, normalized = codes[perm], normalized[perm]
    return DatasetBuild(
        pairs=Pairs(g.ids, (codes // g.n).astype(np.int32), (codes % g.n).astype(np.int32), normalized),
        config=cfg,
        candidate_count=candidates,
        threshold_kept=kept,
        norm_min=lo,
        norm_max=hi,
    )


def _select_block(
    triples: tuple[np.ndarray, np.ndarray, np.ndarray], n: int, threshold: float, top_k: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Each source's top-k partners from one block's triples.

    Returns the kept pairs as codes min*n + max with their raw scores,
    and the block's candidate and threshold-kept counts, each unordered
    pair counted from its smaller end.
    """
    src, tgt, sim = triples
    sim[np.isnan(sim)] = 0.0  # a reached pair without common subsumer
    passing = sim >= threshold
    later = tgt > src
    candidates = int(np.count_nonzero(later))
    kept = int(np.count_nonzero(passing & later))
    passing &= tgt != src
    src, tgt, sim = src[passing], tgt[passing], sim[passing]
    # similarity is symmetric, so a node's own triples hold all its partners;
    # its top-k are the best by (sim desc, partner index asc)
    order = np.lexsort((tgt, -sim, src))
    src, tgt, sim = src[order], tgt[order], sim[order]
    # each triple's rank among its source's, from the sizes of the source runs
    sizes = np.bincount(src - src[:1])
    top = np.arange(len(src)) - np.repeat(np.cumsum(sizes) - sizes, sizes) < top_k
    src, tgt = src[top], tgt[top]
    return np.minimum(src, tgt) * n + np.maximum(src, tgt), sim[top], candidates, kept


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
    """Write a `# key=value` header followed by `u<TAB>v<TAB>s` rows."""
    with atomic_write(path) as fh:
        for key, value in build.header().items():
            fh.write(f"# {key}={value}\n")
        pairs, ids = build.pairs, build.pairs.ids
        for k in range(0, len(pairs), WRITE_CHUNK):
            i, j, s = (col[k:k + WRITE_CHUNK].tolist() for col in (pairs.i, pairs.j, pairs.s))
            for a, b, x in zip(i, j, s):
                fh.write(f"{ids[a]}\t{ids[b]}\t{x!r}\n")


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
