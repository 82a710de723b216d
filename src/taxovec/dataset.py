"""Training dataset construction.

Builds (node, node, similarity) triples from a taxonomy graph: score each
source node against every node it reaches (any distance in full mode,
at most two edges in fast mode) with one similarity row, drop pairs under
a raw threshold, keep each node's top-k most similar partners,
unity-normalize the survivors, and shuffle with a seeded PRNG.

Similarity is symmetric, so a node's own row holds all of its partners
and its top-k come from that row alone. Memory stays O(nodes * top_k)
plus one row, however many candidate pairs exist. Survivors are sorted
canonically before the shuffle, so the file depends only on the graph
and the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DegenerateRangeError,
    EmptyDatasetError,
)
from .graph import DepthIndex, TaxonomyGraph
from .metrics import InformationContentTable, SimilarityRows, validate_measure

DEFAULT_THRESHOLDS = {"shp": 0.1, "jcn": 0.1, "wup": 0.3, "lch": 1.5}

MODES = ("full", "fast")


class TrainingPair(NamedTuple):
    u: str
    v: str
    s: float


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

    @property
    def raw_threshold(self) -> float:
        if self.threshold is not None:
            return self.threshold
        return DEFAULT_THRESHOLDS[self.measure.lower()]


@dataclass
class DatasetBuild:
    """Finished dataset plus the statistics the run manifest reports."""

    pairs: list[TrainingPair]
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
    finite = [x for x in values if math.isfinite(x)]
    if len(finite) < 2:
        raise DegenerateRangeError(
            f"normalization needs at least 2 finite values, got {len(finite)}"
        )
    lo, hi = min(finite), max(finite)
    if hi - lo < 1e-12:
        raise DegenerateRangeError(f"all finite values equal ({lo!r}); range degenerate")
    span = hi - lo
    return [max(0.0, min(1.0, (x - lo) / span)) for x in values]


def _build(
    g: TaxonomyGraph,
    cfg: DatasetConfig,
    depths: DepthIndex | None,
    ic_table: InformationContentTable | None,
) -> DatasetBuild:
    measure = cfg.measure.lower()
    rows = SimilarityRows(g, measure, depths, ic_table)
    max_dist = 2 if cfg.mode == "fast" else None
    threshold = cfg.raw_threshold

    survivors: dict[tuple[int, int], float] = {}
    candidates = 0
    kept = 0
    for src in range(g.n):
        targets, sims = rows.row(src, max_dist)
        targets, sims = targets[1:], sims[1:]  # the source itself comes first
        sims[np.isnan(sims)] = 0.0  # a reached pair without common subsumer
        passing = sims >= threshold
        later = targets > src  # each unordered pair is counted from its smaller end
        candidates += int(np.count_nonzero(later))
        kept += int(np.count_nonzero(passing & later))
        targets, sims = targets[passing], sims[passing]
        # similarity is symmetric, so a node's own row holds all its partners;
        # its top-k are the best by (sim desc, partner index asc)
        top = np.lexsort((targets, -sims))[: cfg.top_k]
        for t, s in zip(targets[top].tolist(), sims[top].tolist()):
            survivors[(src, t) if src < t else (t, src)] = s
    if not survivors:
        raise EmptyDatasetError(
            f"no pairs survive threshold {threshold!r} for measure {measure!r}"
        )

    ordered = sorted(survivors)
    raw = [survivors[p] for p in ordered]
    finite = [x for x in raw if math.isfinite(x)]
    normalized = unity_normalize(raw)
    lo, hi = min(finite), max(finite)

    pairs = [
        TrainingPair(g.ids[a], g.ids[b], s)
        for (a, b), s in zip(ordered, normalized)
    ]
    perm = np.random.default_rng(cfg.seed).permutation(len(pairs))
    pairs = [pairs[i] for i in perm]
    return DatasetBuild(
        pairs=pairs,
        config=cfg,
        candidate_count=candidates,
        threshold_kept=kept,
        norm_min=lo,
        norm_max=hi,
    )


def build_full(
    g: TaxonomyGraph,
    cfg: DatasetConfig,
    depths: DepthIndex | None = None,
    ic_table: InformationContentTable | None = None,
) -> DatasetBuild:
    """Dataset over all connected pairs. See the module docstring for the pipeline."""
    return _build(g, replace(cfg, mode="full"), depths, ic_table)


def build_fast(
    g: TaxonomyGraph,
    cfg: DatasetConfig,
    depths: DepthIndex | None = None,
    ic_table: InformationContentTable | None = None,
) -> DatasetBuild:
    """Dataset restricted to second-order neighborhoods (distance 1 or 2)."""
    return _build(g, replace(cfg, mode="fast"), depths, ic_table)


def write_pairs(path: str | Path, build: DatasetBuild) -> None:
    """Write a `# key=value` header followed by `u<TAB>v<TAB>s` rows."""
    p = Path(path)
    with p.open("w", encoding="utf-8") as fh:
        for key, value in build.header().items():
            fh.write(f"# {key}={value}\n")
        for u, v, s in build.pairs:
            fh.write(f"{u}\t{v}\t{s!r}\n")


def read_pairs(path: str | Path) -> tuple[list[TrainingPair], dict[str, str]]:
    """Read a training-pairs file; returns (pairs, header key=value dict)."""
    p = Path(path)
    pairs: list[TrainingPair] = []
    meta: dict[str, str] = {}
    with p.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise DataError(f"{p}:{lineno}: expected `u<TAB>v<TAB>s`")
            u, v, s_str = fields
            try:
                s = float(s_str)
            except ValueError:
                raise DataError(f"{p}:{lineno}: bad similarity {s_str!r}") from None
            if not 0.0 <= s <= 1.0:
                raise DataError(f"{p}:{lineno}: similarity {s!r} outside [0,1]")
            pairs.append(TrainingPair(u, v, s))
    return pairs, meta
