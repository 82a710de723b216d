"""Similarity-row kernel tests: rows against the per-pair measures, and
block passes against rows.

Graphs are drawn by hypothesis: random DAGs with multiple inheritance,
forests whose trees can share a child, and the same forests joined under
a virtual root by load_edge_list. The block tests add isolated nodes and
sizes up to 200 nodes, so that blocks of one source, of a full BLOCK and
of a partial last block all occur.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxovec.errors import ConfigError
from taxovec.graph import TaxonomyGraph, compute_depths, shortest_path_length
from taxovec.metrics import (
    BLOCK,
    MEASURES,
    SimilarityRows,
    lcs_index,
    pair_similarity,
    propagate_counts,
)

from conftest import graph_from, graphs, random_dag_edges
from oracles import floyd_warshall_undirected

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None)


def context(g: TaxonomyGraph, seed: int):
    rng = np.random.default_rng(seed)
    raw = [float(x) for x in rng.integers(0, 3, size=g.n)]
    raw[0] += 1.0  # some mass, some unobserved nodes
    return compute_depths(g), propagate_counts(g, raw)


def dense_rows(g, measure, depths, table, max_dist=None) -> np.ndarray:
    """n x n matrix of rows; NaN where a node is not in the source's row."""
    rows = SimilarityRows(g, measure, depths, table)
    out = np.full((g.n, g.n), np.nan)
    for src in range(g.n):
        targets, sims = rows.row(src, max_dist)
        assert targets[0] == src
        out[src, targets] = sims
    return out


@PROPERTY_SETTINGS
@given(g=graphs, seed=st.integers(0, 3))
def test_row_equals_pair_similarity(g, seed):
    depths, table = context(g, seed)
    for measure in MEASURES:
        rows = dense_rows(g, measure, depths, table)
        for u in range(g.n):
            for v in range(g.n):
                want = pair_similarity(measure, g, g.ids[u], g.ids[v], depths, table)
                got = rows[u, v]
                if math.isnan(got):
                    # absent: no path; NaN inside the row: no common subsumer
                    assert want == 0.0
                    if measure in ("shp", "lch"):
                        assert shortest_path_length(g, g.ids[u], g.ids[v]) is None
                    else:
                        assert lcs_index(g, depths, u, v) is None
                else:
                    assert got == want


@PROPERTY_SETTINGS
@given(g=graphs, seed=st.integers(0, 3))
def test_rows_are_symmetric(g, seed):
    depths, table = context(g, seed)
    for measure in MEASURES:
        rows = dense_rows(g, measure, depths, table)
        assert np.array_equal(rows, rows.T, equal_nan=True)


@PROPERTY_SETTINGS
@given(g=graphs)
def test_two_edge_reach_matches_floyd_warshall(g):
    edges = [(c, p) for c in range(g.n) for p in g.parents[c]]
    dist = floyd_warshall_undirected(g.n, edges)
    depths, table = context(g, 0)
    full = dense_rows(g, "wup", depths, table)
    for src in range(g.n):
        targets, sims = SimilarityRows(g, "wup", depths).row(src, max_dist=2)
        assert sorted(targets.tolist()) == np.flatnonzero(dist[src] <= 2).tolist()
        assert np.array_equal(sims, full[src, targets], equal_nan=True)


@st.composite
def block_graphs(draw):
    """Graphs of 1 to 200 nodes: DAGs, forests or forests under a virtual
    root, some with isolated nodes anywhere in the load order."""
    n = draw(st.one_of(st.integers(1, 200), st.sampled_from([1, 2, BLOCK, BLOCK + 1, 2 * BLOCK + 1])))
    kind = draw(st.sampled_from(["dag", "forest", "rooted"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = set()
    for c in range(1, n):
        if kind == "dag" or rng.random() < 0.8:
            edges.add((c, int(rng.integers(0, c))))
    for _ in range(int(rng.integers(0, n // 4 + 1))):
        c = int(rng.integers(1, n))
        edges.add((c, int(rng.integers(0, c))))
    if draw(st.booleans()):
        isolated = set(rng.choice(n, size=min(n, 3), replace=False).tolist())
        edges = {(c, p) for c, p in edges if c not in isolated and p not in isolated}
    return graph_from(n, sorted(edges), virtual_root=kind == "rooted")


def assert_blocks_equal_rows(g, measure, depths, table, max_dist, picks=()):
    """Every block of consecutive sources, then each array in `picks`,
    against row() of each of its sources."""
    rows = SimilarityRows(g, measure, depths, table)
    blocks = [np.arange(first, min(first + BLOCK, g.n)) for first in range(0, g.n, BLOCK)]
    for block in [*blocks, *picks]:
        sources, targets, scores = rows.block(block, max_dist)
        assert set(sources.tolist()) == set(block.tolist())
        for src in block.tolist():
            mine = sources == src
            got = sorted(zip(targets[mine].tolist(), scores[mine].tolist()))
            want_t, want_s = rows.row(src, max_dist)
            want = sorted(zip(want_t.tolist(), want_s.tolist()))
            assert [t for t, _ in got] == [t for t, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=60, deadline=None, database=None)
@given(
    g=block_graphs(),
    measure=st.sampled_from(MEASURES),
    max_dist=st.sampled_from([None, 2]),
    seed=st.integers(0, 3),
    pick=st.tuples(st.integers(1, BLOCK), st.integers(0, 2**32 - 1)),
)
def test_block_equals_rows(g, measure, max_dist, seed, pick):
    depths, table = context(g, seed)
    # also up to BLOCK sources drawn anywhere, in no particular order
    size, pick_seed = pick
    sources = np.random.default_rng(pick_seed).choice(g.n, size=min(size, g.n), replace=False)
    assert_blocks_equal_rows(g, measure, depths, table, max_dist, picks=[sources])


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("max_dist", [None, 2, 1, 0])
def test_block_equals_rows_past_one_block(measure, max_dist):
    # 150 nodes, two of them isolated, three blocks
    n = 150
    edges = [(c, p) for c, p in random_dag_edges(n, 7, extra=40) if c not in (1, 2)]
    edges = [(c, p) for c, p in edges if not {c, p} & {40, 100}]
    g = graph_from(n, edges, virtual_root=False)
    depths, table = context(g, 1)
    picks = [np.array([149, 3, 77, 40, 0, 120]), np.random.default_rng(2).choice(n, BLOCK, replace=False)]
    assert_blocks_equal_rows(g, measure, depths, table, max_dist, picks)


@settings(max_examples=40, deadline=None, database=None)
@given(g=block_graphs(), seed=st.integers(0, 3), data=st.data())
def test_grid_equals_pair_similarity(g, seed, data):
    depths, table = context(g, seed)
    ids = st.sampled_from(g.ids)
    many = st.lists(ids, unique=True, min_size=min(g.n, BLOCK + 1), max_size=min(g.n, BLOCK + 8))
    # few or more than BLOCK distinct ids, some repeated; either side may be empty
    us = data.draw(st.one_of(st.lists(ids, max_size=8), many.map(lambda xs: xs + xs[:3])))
    vs = data.draw(st.lists(ids, max_size=6))
    for measure in MEASURES:
        got = SimilarityRows(g, measure, depths, table).grid(us, vs)
        assert got.shape == (len(us), len(vs))
        want = {(u, v): pair_similarity(measure, g, u, v, depths, table) for u in us for v in vs}
        got[np.isnan(got)] = 0.0
        assert got.tolist() == [[want[u, v] for v in vs] for u in us]


class TestSimilarityRows:
    def test_nan_marks_connected_pair_without_common_subsumer(self):
        # s has a parent in each tree, so a1 and b1 are connected through it
        g = TaxonomyGraph(
            ["a0", "a1", "b0", "b1", "s"],
            [("a1", "a0"), ("b1", "b0"), ("s", "a1"), ("s", "b1")],
        )
        depths = compute_depths(g)
        targets, sims = SimilarityRows(g, "wup", depths).row(g.idx("a1"))
        got = dict(zip((g.ids[t] for t in targets), sims.tolist()))
        assert set(got) == set(g.ids)
        assert math.isnan(got["b1"]) and math.isnan(got["b0"])
        assert got["s"] == pair_similarity("wup", g, "a1", "s", depths)

    def test_shp_row_in_visit_order(self, chain3):
        targets, sims = SimilarityRows(chain3, "shp").row(chain3.idx("a"))
        assert targets.tolist() == [0, 1, 2]
        assert sims.tolist() == [1.0, 0.5, 1 / 3]

    def test_unreachable_nodes_are_absent(self):
        g = TaxonomyGraph(["a", "b", "lone"], [("b", "a")])
        for measure in ("shp", "wup"):
            targets, _ = SimilarityRows(g, measure, compute_depths(g)).row(g.idx("a"))
            assert g.idx("lone") not in targets.tolist()

    def test_scorers_on_one_graph_share_its_schedule_and_ic_vector(self):
        # the set-up derived per graph and per table is built once, not per scorer
        g = graph_from(30, random_dag_edges(30, 3, extra=8), virtual_root=False)
        depths, table = context(g, 0)
        rows = [SimilarityRows(g, m, depths, table) for m in ("wup", "jcn", "wup", "jcn")]
        level, schedule = g.schedule
        for r in rows:
            assert r._level is level and r._schedule is schedule
        assert rows[1]._ic is rows[3]._ic is table.ic_vector
        assert table.ic_vector.tolist() == [table.ic(i) for i in range(g.n)]
        assert rows[0].grid(g.ids, g.ids).tobytes() == rows[2].grid(g.ids, g.ids).tobytes()

    def test_missing_context_is_a_config_error(self, chain3):
        with pytest.raises(ConfigError, match="depths"):
            SimilarityRows(chain3, "wup")
        with pytest.raises(ConfigError, match="information content"):
            SimilarityRows(chain3, "jcn", compute_depths(chain3))
        with pytest.raises(ConfigError, match="unknown measure"):
            SimilarityRows(chain3, "cosine")
