"""Intrinsic evaluation: rank correlation over lemma pair benchmarks.

A lemma maps to several candidate nodes, so scoring a lemma pair means
first choosing one node pair. Static selection picks the pair maximizing
a raw graph measure; dynamic selection picks the pair the embedding model
itself scores highest. Both take one grid of scores per record, all of a
run's grids from one call, and share one selection loop. The reported
number is the Spearman correlation between predicted scores and gold
scores (human judgments, or the graph measure's own values when it serves
as the gold standard).

A scorer offers three methods: `has(node)`; `grids(requests)`, the grid
of each (us, vs) request of a list (a run's records or sentences), a
float64 array of the scores of every pair in us x vs; and `pairs(us,
vs)`, the score of each aligned pair (us[k], vs[k]), the same as its
grids() cell. A measure scorer takes both from SimilarityRows, whose one
packer scores their cells in a few shared tables. Both raise
UnknownNodeError for unknown ids, and pairs() raises DataError for sides
of unequal length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import rescale
from .errors import ConfigError, DataError, DegenerateRangeError, RecordError
from .graph import TaxonomyGraph
from .io import real, records
from .metrics import InformationContentTable, SimilarityRows
from .trainer import ModelScorer


def _ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based) with ties averaged; NaNs never tie."""
    _, inverse, counts = np.unique(
        values, return_inverse=True, return_counts=True, equal_nan=False
    )
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


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
    """Read `lemma1<TAB>lemma2<TAB>score` lines (see taxovec.io); a pair on
    a second line, in either order, is a RecordError naming the first."""
    pairs: list[tuple[str, str, float]] = []
    first: dict[frozenset[str], str] = {}
    for where, (l1, l2, gold) in records(path, "lemma1<TAB>lemma2<TAB>score"):
        earlier = first.setdefault(frozenset((l1, l2)), where)
        if earlier != where:
            raise RecordError(f"{where}: lemma pair ({l1!r}, {l2!r}) repeats {earlier}")
        pairs.append((l1, l2, real(gold, where, "score")))
    return pairs


def load_candidates(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Read `lemma<TAB>comma-separated node ids` into a candidate map; a
    lemma on a second line is a RecordError naming the first."""
    candidates: dict[str, tuple[str, ...]] = {}
    first: dict[str, str] = {}
    for where, (lemma, cand_s) in records(path, "lemma<TAB>candidates"):
        if first.setdefault(lemma, where) != where:
            raise RecordError(f"{where}: lemma {lemma!r} repeats {first[lemma]}")
        candidates[lemma] = tuple(c.strip() for c in cand_s.split(",") if c.strip())
    return candidates


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
        *,
        ic_table: InformationContentTable | None = None,
        norm_range: tuple[float, float] | None = None,
    ):
        self.g = g
        self.rows = SimilarityRows(g, measure, ic_table=ic_table)
        self.measure = self.rows.measure
        if norm_range is not None:
            lo, hi = norm_range
            if not (math.isfinite(lo) and math.isfinite(hi)) or hi - lo < 1e-12:
                raise DegenerateRangeError(
                    f"degenerate normalization range ({lo!r}, {hi!r})"
                )
        self.norm_range = norm_range
        suffix = "norm" if norm_range else "raw"
        self.name = f"{self.measure}[{suffix}]"

    def has(self, node: str) -> bool:
        return self.g.has(node)

    def grids(self, requests: Sequence[tuple[Sequence[str], Sequence[str]]]) -> list[np.ndarray]:
        """SimilarityRows.grids through _scale."""
        return [self._scale(raw) for raw in self.rows.grids(requests)]

    def pairs(self, us: Sequence[str], vs: Sequence[str]) -> np.ndarray:
        """SimilarityRows.pairs through _scale."""
        return self._scale(self.rows.pairs(us, vs))

    def _scale(self, raw: np.ndarray) -> np.ndarray:
        """Raw scores with pair_similarity's 0.0 for a NaN (a pair without a
        path or common subsumer), put through dataset.rescale when normalized."""
        raw[np.isnan(raw)] = 0.0
        return raw if self.norm_range is None else rescale(raw, *self.norm_range)


def _select(
    records: list[LemmaPairRecord], grids: list[np.ndarray]
) -> tuple[list[SelectedPair], int]:
    """Per record, the first strict maximum in (c1, c2) order of its
    candidates1 x candidates2 grid, skipping NaN cells; records whose
    cells are all NaN are excluded and counted."""
    out: list[SelectedPair] = []
    for rec, grid in zip(records, grids):
        cells = grid.ravel()
        valid = np.flatnonzero(~np.isnan(cells))
        if len(valid):
            best = int(valid[np.argmax(cells[valid])])
            i, j = divmod(best, len(rec.candidates2))
            c1, c2 = rec.candidates1[i], rec.candidates2[j]
            out.append(SelectedPair(c1, c2, rec.gold_score, float(cells[best])))
    return out, len(records) - len(out)


def static_selection(
    records: list[LemmaPairRecord],
    g: TaxonomyGraph,
    measure: str,
    *,
    ic_table: InformationContentTable | None = None,
) -> tuple[list[SelectedPair], int]:
    """Per record, the candidate pair with maximal raw graph similarity.

    The grids are one SimilarityRows.grids call, where a disconnected pair
    (no path for shp/lch, no common subsumer for wup/jcn) is a NaN cell.
    """
    rows = SimilarityRows(g, measure, ic_table=ic_table)
    return _select(records, rows.grids([(r.candidates1, r.candidates2) for r in records]))


def dynamic_selection(records: list[LemmaPairRecord], scorer: ModelScorer) -> tuple[list[SelectedPair], int]:
    """Per record, the candidate pair the model itself scores highest.

    The grids are one scorer.grids call. Unembedded candidates raise a
    lookup error.
    """
    return _select(records, scorer.grids([(r.candidates1, r.candidates2) for r in records]))


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
    *,
    ic_table: InformationContentTable | None = None,
    golds: str = "human",
) -> EvalReport:
    """Correlate a scorer against gold scores over selected candidate pairs.

    selection "static" picks pairs by the raw graph measure (g and measure
    required); "dynamic" picks them on the scorer's own grid, whose
    selected cells are then the predictions. golds "human" correlates
    against the records' gold scores, "measure" against the graph
    measure's value on each selected pair.
    """
    if selection == "static":
        if g is None or measure is None:
            raise ConfigError("static selection requires a graph and a measure")
        selected, excluded = static_selection(records, g, measure, ic_table=ic_table)
        preds = scorer.pairs([p.u for p in selected], [p.v for p in selected]).tolist()
    elif selection == "dynamic":
        if not isinstance(scorer, ModelScorer):
            raise ConfigError("dynamic selection requires a model scorer")
        selected, excluded = dynamic_selection(records, scorer)
        preds = [p.selection_score for p in selected]
    else:
        raise ConfigError(f"unknown selection {selection!r}; expected static or dynamic")

    if len(selected) < 3:
        raise DataError(f"need at least 3 evaluable records, got {len(selected)}")
    if golds == "human":
        gold_values = [p.gold_score for p in selected]
    elif golds == "measure":
        if g is None or measure is None:
            raise ConfigError("measure golds require a graph and a measure")
        if selection == "static":
            gold_values = [p.selection_score for p in selected]
        else:
            measure_scorer = MeasureScorer(g, measure, ic_table=ic_table)
            gold_values = measure_scorer.pairs([p.u for p in selected], [p.v for p in selected]).tolist()
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


def score_histogram(values: list[float], bins: int = 20) -> list[tuple[float, float, int]]:
    """Histogram rows (bin_lo, bin_hi, count) over [0, 1]; out-of-range values clamp."""
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    clamped = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    counts, edges = np.histogram(clamped, bins=bins, range=(0.0, 1.0))
    return [
        (float(edges[k]), float(edges[k + 1]), int(counts[k])) for k in range(bins)
    ]
