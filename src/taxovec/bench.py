"""One-vs-all similarity speed benchmark.

Compares two ways of scoring one node against every node: traversing the
graph with the raw measure (one BFS serves all targets for the path-based
measures) versus a single matrix-vector product over the embedding rows.
Timings are medians over repeated full query passes with one discarded
warm-up pass; load time is never inside the timed region.
"""

from __future__ import annotations

import statistics
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import TaxonomyGraph
from .metrics import InformationContentTable, SimilarityRows
from .trainer import EmbeddingMatrix

TIMER_FLOOR_S = 100e-6


def one_vs_all_graph(g: TaxonomyGraph, measure: str, v: str, *, ic_table: InformationContentTable | None = None) -> np.ndarray:
    """Raw measure similarity of `v` to every node, self included.

    Reads a one-source SimilarityRows.table: for shp/lch one traversal
    over the nodes `v` reaches, for wup/jcn the subsumer DP without a
    traversal. Matches the per-pair measure functions elementwise;
    unreachable nodes (or pairs without a common subsumer) score 0. JCN
    keeps its infinity sentinel for zero-distance pairs.
    """
    return _dense_row(SimilarityRows(g, measure, ic_table=ic_table), v)


def _dense_row(rows: SimilarityRows, v: str) -> np.ndarray:
    out = rows.table(np.array([rows.g.idx(v)]))[:, 0]
    out[np.isnan(out)] = 0.0  # no path or no common subsumer
    return out


def one_vs_all_dot(m: EmbeddingMatrix, v: str) -> np.ndarray:
    """Score of `v` against every row: one matrix-vector product in stored dtype."""
    return m.matrix @ m.matrix[m.idx(v)]


@dataclass
class BenchReport:
    method: str
    seconds_per_query: float
    n_targets: int
    repeats: int
    speedup: float | None = None  # vs the graph baseline
    timer_warning: bool = False


@dataclass
class BenchResult:
    graph: BenchReport | None
    dot: BenchReport | None
    topk_overlap: float | None  # mean |top-k(graph) ∩ top-k(dot)| / k, informational


def _time_passes(fn, queries: list[str], repeats: int) -> tuple[float, bool]:
    """Median wall time of a full query pass; returns (seconds_per_query, warn)."""
    for q in queries:
        fn(q)
    totals = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for q in queries:
            fn(q)
        totals.append(time.perf_counter() - t0)
    median_total = statistics.median(totals)
    warn = median_total < TIMER_FLOOR_S
    if warn:
        warnings.warn(
            f"median pass time {median_total:.2e}s is under {TIMER_FLOOR_S:.0e}s; "
            "timer resolution is unreliable, increase the query batch"
        )
    return median_total / len(queries), warn


def _topk_overlap(a: np.ndarray, b: np.ndarray, k: int) -> float:
    k = min(k, len(a))
    top_a = set(np.argsort(-a, kind="stable")[:k].tolist())
    top_b = set(np.argsort(-b, kind="stable")[:k].tolist())
    return len(top_a & top_b) / k


def run_benchmark(
    g: TaxonomyGraph,
    measure: str,
    m: EmbeddingMatrix | None,
    queries: list[str],
    repeats: int = 5,
    *,
    ic_table: InformationContentTable | None = None,
    methods: tuple[str, ...] = ("graph", "dot"),
    topk: int = 10,
) -> BenchResult:
    """Time one-vs-all queries for the requested methods over shared queries.

    Needs >= 5 repeats for a stable median. The top-k overlap between the
    two rankings is reported when both methods run; it is informational
    (an embedding is an approximation, not a reorder-free replacement).
    """
    if repeats < 5:
        raise ConfigError(f"repeats must be >= 5, got {repeats}")
    if topk < 1:
        raise ConfigError(f"topk must be >= 1, got {topk}")
    if not queries:
        raise ConfigError("need at least one query node")
    if not methods:
        raise ConfigError("need at least one method; expected graph, dot or both")
    for method in methods:
        if method not in ("graph", "dot"):
            raise ConfigError(f"unknown method {method!r}; expected graph or dot")
    if "dot" in methods and m is None:
        raise ConfigError("dot method requires an embedding matrix")

    graph_report = dot_report = None
    if "graph" in methods:
        for q in queries:
            g.idx(q)
        rows = SimilarityRows(g, measure, ic_table=ic_table)  # set-up shared by every query
        per_query, warn = _time_passes(lambda q: _dense_row(rows, q), queries, repeats)
        graph_report = BenchReport(
            method=f"graph[{measure.lower()}]",
            seconds_per_query=per_query,
            n_targets=g.n,
            repeats=repeats,
            speedup=1.0,
            timer_warning=warn,
        )
    if "dot" in methods:
        for q in queries:
            m.idx(q)
        per_query, warn = _time_passes(lambda q: one_vs_all_dot(m, q), queries, repeats)
        dot_report = BenchReport(
            method=f"dot[{np.dtype(m.matrix.dtype).name}]",
            seconds_per_query=per_query,
            n_targets=m.n,
            repeats=repeats,
            timer_warning=warn,
        )

    overlap = None
    if graph_report and dot_report:
        dot_report.speedup = (
            graph_report.seconds_per_query / dot_report.seconds_per_query
        )
        overlaps = []
        for q in queries:
            sims = _dense_row(rows, q)
            # rank infinities ahead of everything finite, as raw order implies
            sims = np.where(np.isinf(sims), np.finfo(np.float64).max, sims)
            scores = np.asarray(one_vs_all_dot(m, q), dtype=np.float64)
            overlaps.append(_topk_overlap(sims, scores, topk))
        overlap = float(np.mean(overlaps))
    return BenchResult(graph=graph_report, dot=dot_report, topk_overlap=overlap)
