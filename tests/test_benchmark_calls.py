"""The calls perfbench/workloads.py makes into taxovec, in its exact forms.

The benchmark's code changes only with the benchmark itself, so an API
change that breaks one of these forms fails here, in the suite, rather
than in a benchmark run.
"""

from __future__ import annotations

import math

import numpy as np

from taxovec import (
    DatasetConfig,
    ModelScorer,
    build_fast,
    build_full,
    compute_depths,
    evaluate,
    one_vs_all_graph,
    pair_similarity,
    propagate_counts,
    read_pairs,
    write_pairs,
)
from taxovec.evaluation import LemmaPairRecord
from taxovec.trainer import EmbeddingMatrix

from conftest import random_dag_graph

BUILD_KINDS = (  # as in the build workload: three full builds, one fast on a larger graph
    ("full_shp", "full", "shp"),
    ("full_wup", "full", "wup"),
    ("full_jcn", "full", "jcn"),
    ("fast_shp", "fast", "shp"),
)


def test_builds_and_pair_similarity_take_positional_depths_and_ic_table(tmp_path):
    st = {"full": random_dag_graph(40, 1, extra=8), "fast": random_dag_graph(90, 2, extra=12)}
    st["depths"] = compute_depths(st["full"])  # also handed to the fast build of the larger graph
    st["ic"] = propagate_counts(st["full"], [float(i % 3 + 1) for i in range(st["full"].n)])
    for kind, mode, measure in BUILD_KINDS:
        g = st[mode]
        cfg = DatasetConfig(measure=measure, mode=mode, seed=7)
        builder = build_fast if mode == "fast" else build_full
        b = builder(g, cfg, st["depths"], st["ic"])
        own = builder(g, cfg, ic_table=st["ic"] if g is st["full"] else None)
        assert list(b.pairs) == list(own.pairs), kind
        out = tmp_path / f"pairs_{kind}.tsv"
        write_pairs(out, b)
        pairs, _ = read_pairs(out)
        lo, hi = b.norm_min, b.norm_max
        for k in range(0, len(pairs), max(1, len(pairs) // 7)):
            u, v, s = pairs[k].u, pairs[k].v, pairs[k].s
            raw = pair_similarity(measure, g, u, v, st["depths"], st["ic"])
            want = 1.0 if math.isinf(raw) else min(1.0, max(0.0, (raw - lo) / (hi - lo)))
            assert abs(want - s) <= 1e-9, (kind, u, v)


def test_query_calls():
    g = random_dag_graph(30, 3, extra=6)
    rng = np.random.default_rng(0)
    m = EmbeddingMatrix(g.ids, rng.uniform(-0.05, 0.05, size=(g.n, 8)).astype(np.float32))
    q = g.ids[g.n // 2]
    grow = one_vs_all_graph(g, "shp", q)
    for t in range(0, g.n, 5):
        assert grow[t] == pair_similarity("shp", g, q, g.ids[t])
    records = [
        LemmaPairRecord(f"a{r}", f"b{r}", float(r), tuple(g.ids[r::7][:3]), tuple(g.ids[r + 2::5][:2]))
        for r in range(6)
    ]
    scorer = ModelScorer(m, "dot")
    for selection in ("static", "dynamic"):
        rep = evaluate(records, scorer, selection, g=g, measure="shp")
        assert rep.n_evaluated + rep.n_excluded == len(records)
