"""Intrinsic evaluation: rank correlation over lemma pair benchmarks.

A lemma maps to several candidate nodes, so scoring a lemma pair means
first choosing one node pair. Static selection picks the pair maximizing
a raw graph measure; dynamic selection picks the pair the embedding model
itself scores highest. The reported number is the Spearman correlation
between predicted scores and gold scores (human judgments, or the graph
measure's own values when it serves as the gold standard).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, DegenerateRangeError
from .graph import DepthIndex, TaxonomyGraph
from .metrics import (
    InformationContentTable,
    SimilarityRows,
    pair_similarity,
    validate_measure,
)
from .trainer import EmbeddingMatrix, score


def _ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based) with ties averaged."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    n = len(values)
    sorted_vals = values[order]
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x: list[float], y: list[float]) -> float:
    """Spearman rank correlation: Pearson over average-tie fractional ranks."""
    if len(x) != len(y):
        raise DataError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise DataError(f"need at least 3 points, got {len(x)}")
    ax = np.asarray(x, dtype=np.float64)
    ay = np.asarray(y, dtype=np.float64)
    if np.all(ax == ax[0]) or np.all(ay == ay[0]):
        raise DataError("constant input has no rank correlation")
    rx = _ranks(ax)
    ry = _ranks(ay)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    return float((dx @ dy) / math.sqrt((dx @ dx) * (dy @ dy)))


@dataclass(frozen=True)
class LemmaPairRecord:
    lemma1: str
    lemma2: str
    gold_score: float
    candidates1: tuple[str, ...]
    candidates2: tuple[str, ...]


class SelectedPair(NamedTuple):
    u: str
    v: str
    gold_score: float
    selection_score: float


def load_lemma_pairs(path: str | Path) -> list[tuple[str, str, float]]:
    """Read `lemma1<TAB>lemma2<TAB>gold_score` lines; `#` comments allowed."""
    p = Path(path)
    out: list[tuple[str, str, float]] = []
    with p.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise DataError(f"{p}:{lineno}: expected `lemma1<TAB>lemma2<TAB>score`")
            try:
                gold = float(fields[2])
            except ValueError:
                raise DataError(f"{p}:{lineno}: bad score {fields[2]!r}") from None
            out.append((fields[0], fields[1], gold))
    return out


def load_candidates(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Read `lemma<TAB>comma-separated node ids` into a candidate map."""
    p = Path(path)
    out: dict[str, tuple[str, ...]] = {}
    with p.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise DataError(f"{p}:{lineno}: expected `lemma<TAB>candidates`")
            lemma, cand_s = fields
            cands = tuple(c.strip() for c in cand_s.split(",") if c.strip())
            out[lemma] = cands
    return out


def make_records(
    pairs: list[tuple[str, str, float]], candidates: dict[str, tuple[str, ...]]
) -> tuple[list[LemmaPairRecord], int]:
    """Join lemma pairs with candidate lists; returns (records, excluded count).

    A pair whose lemma is missing from the map or has an empty candidate
    list cannot be evaluated and is counted instead.
    """
    records: list[LemmaPairRecord] = []
    excluded = 0
    for l1, l2, gold in pairs:
        c1 = candidates.get(l1, ())
        c2 = candidates.get(l2, ())
        if not c1 or not c2:
            excluded += 1
            continue
        records.append(LemmaPairRecord(l1, l2, gold, c1, c2))
    return records, excluded


class MeasureScorer:
    """Scores node pairs with a raw graph measure, optionally rescaled.

    With `norm_range` (the dataset header's min/max), outputs are mapped
    to [0,1] the same way training targets were, so thresholds calibrated
    on normalized similarities apply to this scorer too.
    """

    def __init__(
        self,
        g: TaxonomyGraph,
        measure: str,
        depths: DepthIndex | None = None,
        ic_table: InformationContentTable | None = None,
        norm_range: tuple[float, float] | None = None,
    ):
        self.g = g
        self.measure = validate_measure(measure)
        self.depths = depths
        self.ic_table = ic_table
        if norm_range is not None:
            lo, hi = norm_range
            if not (math.isfinite(lo) and math.isfinite(hi)) or hi - lo < 1e-12:
                raise DegenerateRangeError(
                    f"degenerate normalization range ({lo!r}, {hi!r})"
                )
        self.norm_range = norm_range
        suffix = "norm" if norm_range else "raw"
        self.name = f"{self.measure}[{suffix}]"

    def score(self, u: str, v: str) -> float:
        raw = pair_similarity(self.measure, self.g, u, v, self.depths, self.ic_table)
        if self.norm_range is None:
            return raw
        lo, hi = self.norm_range
        return max(0.0, min(1.0, (raw - lo) / (hi - lo)))


class ModelScorer:
    """Scores node pairs with embedding dot products or cosines."""

    def __init__(self, m: EmbeddingMatrix, mode: str = "dot"):
        if mode not in ("dot", "cosine"):
            raise ConfigError(f"unknown score mode {mode!r}; expected dot or cosine")
        self.m = m
        self.mode = mode
        self.name = f"model[{mode}]"

    def score(self, u: str, v: str) -> float:
        return score(self.m, u, v, self.mode)


def static_selection(
    records: list[LemmaPairRecord],
    g: TaxonomyGraph,
    measure: str,
    depths: DepthIndex | None = None,
    ic_table: InformationContentTable | None = None,
) -> tuple[list[SelectedPair], int]:
    """Per record, the candidate pair with maximal raw graph similarity.

    Candidate pairs are tried in list order and only a strictly greater
    similarity replaces the incumbent, so ties resolve to the smallest
    index pair. Records where every candidate pair is disconnected (no
    path for shp/lch, no common subsumer for wup/jcn) are excluded and
    counted.
    """
    rows = SimilarityRows(g, measure, depths, ic_table)
    out: list[SelectedPair] = []
    excluded = 0
    for rec in records:
        best: SelectedPair | None = None
        for c1 in rec.candidates1:
            targets, sims = rows.row(g.idx(c1))
            row = np.full(g.n, np.nan)  # NaN: no path or no common subsumer
            row[targets] = sims
            for c2 in rec.candidates2:
                sim = float(row[g.idx(c2)])
                if math.isnan(sim):
                    continue
                if best is None or sim > best.selection_score:
                    best = SelectedPair(c1, c2, rec.gold_score, sim)
        if best is None:
            excluded += 1
            continue
        out.append(best)
    return out, excluded


def dynamic_selection(
    records: list[LemmaPairRecord],
    m: EmbeddingMatrix,
    mode: str = "dot",
) -> tuple[list[SelectedPair], int]:
    """Per record, the candidate pair the model itself scores highest.

    Same strict-max iteration as static_selection, so ties resolve to the
    smallest index pair. Unembedded candidates raise a lookup error.
    """
    out: list[SelectedPair] = []
    for rec in records:
        best: SelectedPair | None = None
        for c1 in rec.candidates1:
            for c2 in rec.candidates2:
                sim = score(m, c1, c2, mode)
                if best is None or sim > best.selection_score:
                    best = SelectedPair(c1, c2, rec.gold_score, sim)
        out.append(best)
    return out, 0


@dataclass
class EvalReport:
    spearman: float
    n_evaluated: int
    n_excluded: int
    selection: str
    scorer: str
    golds: str
    predictions: list[float]  # the scorer's value on each selected pair


def evaluate(
    records: list[LemmaPairRecord],
    scorer: MeasureScorer | ModelScorer,
    selection: str,
    g: TaxonomyGraph | None = None,
    measure: str | None = None,
    depths: DepthIndex | None = None,
    ic_table: InformationContentTable | None = None,
    golds: str = "human",
) -> EvalReport:
    """Correlate a scorer against gold scores over selected candidate pairs.

    selection "static" picks pairs by the raw graph measure (g and measure
    required); "dynamic" picks them with the scorer's own model. golds
    "human" correlates against the records' gold scores, "measure" against
    the graph measure's value on each selected pair.
    """
    if selection == "static":
        if g is None or measure is None:
            raise ConfigError("static selection requires a graph and a measure")
        selected, excluded = static_selection(records, g, measure, depths, ic_table)
    elif selection == "dynamic":
        if not isinstance(scorer, ModelScorer):
            raise ConfigError("dynamic selection requires a model scorer")
        selected, excluded = dynamic_selection(records, scorer.m, scorer.mode)
    else:
        raise ConfigError(f"unknown selection {selection!r}; expected static or dynamic")

    if len(selected) < 3:
        raise DataError(f"need at least 3 evaluable records, got {len(selected)}")

    preds = [scorer.score(p.u, p.v) for p in selected]
    if golds == "human":
        gold_values = [p.gold_score for p in selected]
    elif golds == "measure":
        if g is None or measure is None:
            raise ConfigError("measure golds require a graph and a measure")
        if selection == "static":
            gold_values = [p.selection_score for p in selected]
        else:
            gold_values = [
                pair_similarity(measure, g, p.u, p.v, depths, ic_table)
                for p in selected
            ]
    else:
        raise ConfigError(f"unknown golds {golds!r}; expected human or measure")

    rho = spearman(preds, gold_values)
    return EvalReport(
        spearman=rho,
        n_evaluated=len(selected),
        n_excluded=excluded,
        selection=selection,
        scorer=scorer.name,
        golds=golds,
        predictions=preds,
    )


def score_histogram(
    values: list[float], bins: int = 20, lo: float = 0.0, hi: float = 1.0
) -> list[tuple[float, float, int]]:
    """Fixed-range histogram rows (bin_lo, bin_hi, count); out-of-range values clamp."""
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    clamped = np.clip(np.asarray(values, dtype=np.float64), lo, hi)
    counts, edges = np.histogram(clamped, bins=bins, range=(lo, hi))
    return [
        (float(edges[k]), float(edges[k + 1]), int(counts[k])) for k in range(bins)
    ]
