"""Similarity-row kernel tests: the levels, tables and grids of one source
and of many sources against the oracles, the Floyd-Warshall reach and
the per-pair measures. A block of sources is checked as its reach from
levels() with each reached cell scored by the aligned table(sources, cells).

Graphs are drawn by hypothesis: random DAGs with multiple inheritance,
forests whose trees can share a child, and the same forests joined under
a virtual root by load_edge_list. The block tests add isolated nodes and
sizes up to 200 nodes, so that blocks of one source, of a full BLOCK and
of a partial last block all occur.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxovec import metrics
from taxovec.bench import one_vs_all_graph
from taxovec.errors import ConfigError
from taxovec.graph import TaxonomyGraph
from taxovec.metrics import (
    BLOCK,
    MEASURES,
    SimilarityRows,
    lch_from_path,
    lcs_index,
    pair_similarity,
    propagate_counts,
    shp_from_path,
)

from conftest import block_graphs, edges_of, graph_from, graphs, random_dag_edges
from oracles import floyd_warshall_undirected

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None)


def context(g: TaxonomyGraph, seed: int):
    rng = np.random.default_rng(seed)
    raw = [float(x) for x in rng.integers(0, 3, size=g.n)]
    raw[0] += 1.0  # some mass, some unobserved nodes
    return propagate_counts(g, raw)


def distances(g: TaxonomyGraph) -> np.ndarray:
    """Floyd-Warshall undirected distances; inf without a path."""
    return floyd_warshall_undirected(g.n, edges_of(g))


def reach_cells(rows: SimilarityRows, sources, max_dist=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(targets, columns, scores) of a block: every (target, source) cell
    that levels() reaches within `max_dist`, unpacked, and its score from
    the aligned table()."""
    sources = np.asarray(sources, dtype=np.int64)
    targets, columns, _ = metrics.unpack(list(rows.levels(sources, max_dist)), len(sources))
    scores = rows.table(sources, (targets, columns))
    assert scores.shape == targets.shape
    return targets, columns, scores


def block_rows(rows: SimilarityRows, sources, max_dist=None) -> tuple[np.ndarray, np.ndarray]:
    """One block as len(sources) x n matrices (reached, scores); scores is
    NaN where a node is absent for a source. Each (source, target) pair
    must occur once."""
    targets, columns, scores = reach_cells(rows, sources, max_dist)
    hits = np.zeros((len(sources), rows.g.n), dtype=np.int64)
    np.add.at(hits, (columns, targets), 1)
    assert hits.max(initial=1) == 1
    out = np.full(hits.shape, np.nan)
    out[columns, targets] = scores
    return hits.astype(bool), out


def dense_rows(g, measure, table, max_dist=None) -> tuple[np.ndarray, np.ndarray]:
    """(reached, scores) as n x n matrices, one one-source block per row."""
    rows = SimilarityRows(g, measure, ic_table=table)
    reached, scores = zip(*(block_rows(rows, [src], max_dist) for src in range(g.n)))
    return np.vstack(reached), np.vstack(scores)


@PROPERTY_SETTINGS
@given(g=graphs, seed=st.integers(0, 3))
def test_row_equals_pair_similarity(g, seed):
    table = context(g, seed)
    dist = distances(g)
    for measure in MEASURES:
        reached, rows = dense_rows(g, measure, table)
        assert np.array_equal(reached, np.isfinite(dist))
        for u in range(g.n):
            for v in range(g.n):
                want = pair_similarity(measure, g, g.ids[u], g.ids[v], ic_table=table)
                got = rows[u, v]
                if not reached[u, v]:  # no path
                    assert math.isnan(got) and want == 0.0
                elif math.isnan(got):  # connected, but no common subsumer
                    assert measure in ("wup", "jcn") and lcs_index(g, u, v) is None
                    assert want == 0.0
                else:
                    assert got == want


@PROPERTY_SETTINGS
@given(g=graphs, seed=st.integers(0, 3))
def test_rows_are_symmetric(g, seed):
    table = context(g, seed)
    for measure in MEASURES:
        reached, rows = dense_rows(g, measure, table)
        assert np.array_equal(reached, reached.T)
        assert np.array_equal(rows, rows.T, equal_nan=True)


@PROPERTY_SETTINGS
@given(g=graphs)
def test_two_edge_reach_matches_floyd_warshall(g):
    dist = distances(g)
    table = context(g, 0)
    _, full = dense_rows(g, "wup", table)
    reached, near = dense_rows(g, "wup", table, max_dist=2)
    assert np.array_equal(reached, dist <= 2)
    assert np.array_equal(near, np.where(reached, full, np.nan), equal_nan=True)


def oracle_scores(g, measure, table, dist) -> np.ndarray:
    """n x n raw scores from the references, NaN without a path or, for
    wup/jcn, without a common subsumer. shp/lch map the Floyd-Warshall
    distance through shp_from_path/lch_from_path, as pair_similarity does
    with its own BFS distance; wup/jcn are pair_similarity."""
    out = np.full((g.n, g.n), np.nan)
    ancestors = [g.ancestors(i) for i in range(g.n)]
    for u, v in zip(*np.nonzero(np.triu(np.isfinite(dist)))):  # symmetric: u <= v
        u, v, d = int(u), int(v), int(dist[u, v])
        if measure == "shp":
            out[u, v] = shp_from_path(d)
        elif measure == "lch":
            out[u, v] = lch_from_path(d, g.max_depth)
        elif ancestors[u] & ancestors[v]:
            out[u, v] = pair_similarity(measure, g, g.ids[u], g.ids[v], ic_table=table)
        out[v, u] = out[u, v]
    return out


def assert_blocks_equal_rows(g, measure, table, max_dist, picks=()):
    """Every block of consecutive sources, then each array in `picks`,
    against the oracle rows of its sources: the Floyd-Warshall reach
    within `max_dist` and oracle_scores on it."""
    dist = distances(g)
    reach = dist <= (g.n if max_dist is None else max_dist)
    want = np.where(reach, oracle_scores(g, measure, table, dist), np.nan)
    rows = SimilarityRows(g, measure, ic_table=table)
    blocks = [np.arange(first, min(first + BLOCK, g.n)) for first in range(0, g.n, BLOCK)]
    for block in [*blocks, *picks]:
        reached, got = block_rows(rows, block, max_dist)
        assert np.array_equal(reached, reach[block])
        assert np.array_equal(got, want[block], equal_nan=True)


@settings(max_examples=60, deadline=None, database=None)
@given(
    g=block_graphs(),
    measure=st.sampled_from(MEASURES),
    max_dist=st.sampled_from([None, 2]),
    seed=st.integers(0, 3),
    pick=st.tuples(st.integers(1, BLOCK), st.integers(0, 2**32 - 1)),
)
def test_block_equals_rows(g, measure, max_dist, seed, pick):
    table = context(g, seed)
    # also up to BLOCK sources drawn anywhere, in no particular order
    size, pick_seed = pick
    sources = np.random.default_rng(pick_seed).choice(g.n, size=min(size, g.n), replace=False)
    assert_blocks_equal_rows(g, measure, table, max_dist, picks=[sources])


@functools.cache
def past_one_block_graph() -> TaxonomyGraph:
    """150 nodes, two of them isolated, three blocks."""
    n = 150
    edges = [(c, p) for c, p in random_dag_edges(n, 7, extra=40) if c not in (1, 2)]
    edges = [(c, p) for c, p in edges if not {c, p} & {40, 100}]
    return graph_from(n, edges, virtual_root=False)


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("max_dist", [None, 2, 1, 0])
def test_block_equals_rows_past_one_block(measure, max_dist):
    g = past_one_block_graph()
    table = context(g, 1)
    picks = [np.array([149, 3, 77, 40, 0, 120]), np.random.default_rng(2).choice(g.n, BLOCK, replace=False)]
    assert_blocks_equal_rows(g, measure, table, max_dist, picks)


@functools.cache
def past_one_block_oracle(measure: str) -> tuple[np.ndarray, np.ndarray]:
    """Floyd-Warshall distances and oracle_scores of past_one_block_graph."""
    g = past_one_block_graph()
    table = context(g, 1)
    dist = distances(g)
    return dist, oracle_scores(g, measure, table, dist)


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("max_dist", [None, 0, 1, 2])
@pytest.mark.parametrize("k", [1, 8, 9, 16, 17, 32, 33, 63, 64])
def test_block_triples_run_in_level_order(measure, max_dist, k):
    # the unpacked cells of the levels run by distance, then target, then
    # source position, as _take_nearest reads them, and the aligned table()
    # scores each; every unpack width (1, 2, 4 and 8 bytes of a word) and
    # both sides of each width's limit; the sources come in no particular order
    g = past_one_block_graph()
    table = context(g, 1)
    dist, want = past_one_block_oracle(measure)
    sources = np.random.default_rng(k).choice(g.n, k, replace=False)
    d = dist[sources]
    column, target = np.nonzero(d <= (g.n if max_dist is None else max_dist))
    d = d[column, target]
    later = np.lexsort((column, target, d))[np.count_nonzero(d == 0) :]  # by (distance, target, column)
    want_src = np.concatenate((sources, sources[column[later]]))  # level 0: the sources as given
    want_tgt = np.concatenate((sources, target[later]))
    got_tgt, got_col, got = reach_cells(SimilarityRows(g, measure, ic_table=table), sources, max_dist)
    got_src = sources[got_col]
    assert got_src.tolist() == want_src.tolist()
    assert got_tgt.tolist() == want_tgt.tolist()
    assert np.array_equal(got, want[want_src, want_tgt], equal_nan=True)


@PROPERTY_SETTINGS
@given(g=st.one_of(graphs, block_graphs()), data=st.data())
def test_one_source_levels_equal_its_bit_of_a_block(g, data):
    # the bool walk of one source against that source's bit column of a
    # bit-parallel walk of 2 to BLOCK sources, and the one-vs-all rows it
    # serves against Floyd-Warshall; every word is written to as it comes,
    # as a consumer may, and no walk may pass n levels
    order = np.array(data.draw(st.permutations(range(g.n)), label="order"), dtype=np.int64)
    rows = SimilarityRows(g, "shp")
    for block in np.array_split(order, -(-g.n // BLOCK)):  # every part has 2 to BLOCK sources when n >= 2
        for max_dist in (0, 1, 2, None):
            multi = list(itertools.islice(rows.levels(block, max_dist), g.n + 1))
            for j, s in enumerate(block.tolist()):
                want = [nodes[(words >> np.uint64(j)) & np.uint64(1) == 1].tolist() for nodes, words in multi]
                while not want[-1]:  # levels where only the other sources reach new nodes
                    want.pop()
                got = []
                for nodes, words in itertools.islice(rows.levels(np.array([s]), max_dist), g.n + 1):
                    assert words.dtype == np.uint64 and words.tolist() == [1] * len(nodes)
                    assert words.flags.writeable and words.view(np.uint8).size == 8 * len(nodes)
                    words[:] = 0
                    got.append(nodes.tolist())
                assert got == want
    dist = distances(g)
    for measure in ("shp", "lch"):
        want = np.nan_to_num(oracle_scores(g, measure, None, dist), nan=0.0)
        for s in range(g.n):
            assert one_vs_all_graph(g, measure, g.ids[s]).tolist() == want[s].tolist()


def source_calls(g: TaxonomyGraph, sources: np.ndarray):
    """Each way to hand a block of sources to a scorer of each measure:
    levels() (checked at its first level), and table() on every node and
    on given cells, which check them for wup/jcn too."""
    cell = np.zeros(1, dtype=np.int64)
    table = context(g, 0)
    for measure in MEASURES:
        rows = SimilarityRows(g, measure, ic_table=table)
        yield from (
            lambda rows=rows: next(rows.levels(sources)),
            lambda rows=rows: rows.table(sources),
            lambda rows=rows: rows.table(sources, (cell, cell)),
        )


class TestBlockSources:
    def test_more_than_block_sources_is_a_config_error(self):
        g = past_one_block_graph()
        for call in source_calls(g, np.arange(BLOCK + 6)):
            with pytest.raises(ConfigError, match=f"at most {BLOCK} distinct"):
                call()
        targets, _, _ = reach_cells(SimilarityRows(g, "shp"), np.arange(BLOCK))
        assert len(targets) == np.isfinite(distances(g)[:BLOCK]).sum()

    @pytest.mark.parametrize("sources", [[5, 5, 7], [7, 5, 7], [0, 1, 0]])
    def test_a_repeated_source_is_a_config_error(self, sources):
        for call in source_calls(past_one_block_graph(), np.array(sources)):
            with pytest.raises(ConfigError, match="distinct"):
                call()

    @pytest.mark.parametrize("sources", [[-1], [3, 150], [149, -150]])
    def test_an_index_outside_the_graph_is_a_config_error(self, sources):
        for call in source_calls(past_one_block_graph(), np.array(sources)):
            with pytest.raises(ConfigError, match=r"in \[0, 150\)"):
                call()


@settings(max_examples=40, deadline=None, database=None)
@given(g=block_graphs(), seed=st.integers(0, 3), data=st.data())
def test_grid_equals_pair_similarity(g, seed, data):
    table = context(g, seed)
    ids = st.sampled_from(g.ids)
    many = st.lists(ids, unique=True, min_size=min(g.n, BLOCK + 1), max_size=min(g.n, BLOCK + 8))
    # few or more than BLOCK distinct ids, some repeated; either side may be empty
    us = data.draw(st.one_of(st.lists(ids, max_size=8), many.map(lambda xs: xs + xs[:3])))
    vs = data.draw(st.lists(ids, max_size=6))
    for measure in MEASURES:
        got = SimilarityRows(g, measure, ic_table=table).grids([(us, vs)])[0]
        assert got.shape == (len(us), len(vs))
        want = {(u, v): pair_similarity(measure, g, u, v, ic_table=table) for u in us for v in vs}
        got[np.isnan(got)] = 0.0
        assert got.tolist() == [[want[u, v] for v in vs] for u in us]


@PROPERTY_SETTINGS
@given(g=st.one_of(graphs, block_graphs()), seed=st.integers(0, 3), data=st.data())
def test_table_equals_the_oracle_and_walks_no_further_than_its_farthest_cell(g, seed, data):
    # one source or 2 to BLOCK sources in no particular order, against every
    # node (the dense table), or every cell of a subset of distinct nodes in
    # no particular order, or of no node (the aligned table); a spy on
    # levels() counts the levels the shp/lch walk takes
    table = context(g, seed)
    dist = distances(g)
    order = data.draw(st.permutations(range(g.n)), label="order")
    count = data.draw(st.one_of(st.just(1), st.integers(2, BLOCK)), label="sources")
    sources = np.array(order[:count], dtype=np.int64)
    picked = data.draw(st.one_of(st.none(), st.lists(st.sampled_from(range(g.n)), unique=True)), label="targets")
    targets = None if picked is None else np.array(picked, dtype=np.int64)
    cells = np.arange(g.n) if targets is None else targets
    reach = dist[np.ix_(cells, sources)]
    if np.isfinite(reach).all():  # the walk ends at the level that reaches the last cell
        want_levels = int(reach.max(initial=0)) + 1
    else:  # an unreached cell: the walk runs through the sources' whole reach
        want_levels = int(dist[sources][np.isfinite(dist[sources])].max()) + 1
    for measure in MEASURES:
        rows = SimilarityRows(g, measure, ic_table=table)
        walk, walked = rows.levels, []

        def spy(*args):
            for level in walk(*args):
                walked.append(level)
                yield level

        rows.levels = spy
        if targets is None:
            got = rows.table(sources)
        else:
            columns = np.tile(np.arange(len(sources)), len(targets))
            got = rows.table(sources, (np.repeat(targets, len(sources)), columns)).reshape(len(targets), len(sources))
        want = oracle_scores(g, measure, table, dist)[np.ix_(cells, sources)]
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert len(walked) == (want_levels if measure in ("shp", "lch") else 0)


@PROPERTY_SETTINGS
@given(g=st.one_of(graphs, block_graphs()), data=st.data())
def test_grids_walk_no_further_than_their_farthest_requested_cell(g, data):
    # requests of at most BLOCK // 3 distinct ids of `us` pack into groups of
    # consecutive requests while their ids of `us` fit in BLOCK sources; a
    # spy on levels() sees one walk per group, which ends at the level of the
    # group's farthest requested cell, or runs through the sources' whole
    # reach when a requested pair has no path; `vs` is often near `us`, so
    # that a pair of two requests lies farther than any requested one
    dist = distances(g)
    nodes = st.sampled_from(range(g.n))

    def request(us):
        near = st.sampled_from(sorted({v for u in us for v in np.flatnonzero(dist[u] <= 1).tolist()}))
        return st.tuples(st.just(us), st.lists(st.one_of(near, nodes) if us else nodes, max_size=6))

    requests = data.draw(st.lists(st.lists(nodes, max_size=BLOCK // 3).flatmap(request), max_size=8), label="requests")
    groups = []  # (sources, requested distances)
    for us, vs in requests:
        if us and vs:
            if not groups or len(groups[-1][0] | set(us)) > BLOCK:
                groups.append((set(), []))
            groups[-1][0].update(us)
            groups[-1][1].extend(dist[u, v] for u in us for v in vs)
    for measure in ("shp", "lch"):
        rows = SimilarityRows(g, measure)
        walk, walks = rows.levels, []

        def spy(sources, max_dist=None):
            walked = []
            walks.append((sorted(sources.tolist()), walked))
            for level in walk(sources, max_dist):
                walked.append(level)
                yield level

        rows.levels = spy
        rows.grids([([g.ids[u] for u in us], [g.ids[v] for v in vs]) for us, vs in requests])
        assert [sources for sources, _ in walks] == [sorted(sources) for sources, _ in groups]
        for (sources, walked), (_, far) in zip(walks, groups):
            reach = dist[sources][np.isfinite(dist[sources])]
            assert len(walked) == int(max(far) if np.isfinite(far).all() else reach.max()) + 1


@pytest.mark.parametrize("measure", ["shp", "lch"])
@pytest.mark.parametrize("distinct, walks", [(10, 1), (2 * BLOCK, 2)])
def test_pairs_whose_blocks_share_their_rows_share_one_walk(measure, distinct, walks):
    # 2 * BLOCK aligned pairs make two blocks; over 10 distinct `us` their
    # rows fit in one table, so a spy on levels() sees one walk; over
    # 2 * BLOCK distinct `us` they do not, and it sees two
    g = past_one_block_graph()
    rng = np.random.default_rng(3)
    us = [g.ids[i] for i in rng.permutation(g.n)[:distinct]]
    us = [us[i] for i in rng.integers(0, distinct, 2 * BLOCK)] if distinct < 2 * BLOCK else us
    vs = [g.ids[i] for i in rng.integers(0, g.n, 2 * BLOCK)]
    rows = SimilarityRows(g, measure)
    walk, walked = rows.levels, []

    def spy(sources, max_dist=None):
        walked.append(sorted(sources.tolist()))
        yield from walk(sources, max_dist)

    rows.levels = spy
    got = rows.pairs(us, vs)
    assert len(walked) == walks
    assert sorted(i for sources in walked for i in sources) == sorted({g.idx(u) for u in us})
    got[np.isnan(got)] = 0.0
    assert got.tolist() == [pair_similarity(measure, g, u, v) for u, v in zip(us, vs)]


class TestSimilarityRows:
    def test_nan_marks_connected_pair_without_common_subsumer(self):
        # s has a parent in each tree, so a1 and b1 are connected through it
        g = TaxonomyGraph(
            ["a0", "a1", "b0", "b1", "s"],
            [("a1", "a0"), ("b1", "b0"), ("s", "a1"), ("s", "b1")],
        )
        targets, _, sims = reach_cells(SimilarityRows(g, "wup"), [g.idx("a1")])
        got = dict(zip((g.ids[t] for t in targets), sims.tolist()))
        assert set(got) == set(g.ids)
        assert math.isnan(got["b1"]) and math.isnan(got["b0"])
        assert got["s"] == pair_similarity("wup", g, "a1", "s")

    def test_unreachable_nodes_are_absent(self):
        g = TaxonomyGraph(["a", "b", "lone"], [("b", "a")])
        for measure in ("shp", "wup"):
            targets, _, _ = reach_cells(SimilarityRows(g, measure), [g.idx("a")])
            assert g.idx("lone") not in targets.tolist()

    def test_scorers_on_one_graph_share_its_schedule_and_ic_vector(self):
        # the set-up derived per graph and per table is built once, not per scorer
        g = graph_from(30, random_dag_edges(30, 3, extra=8), virtual_root=False)
        table = context(g, 0)
        rows = [SimilarityRows(g, m, ic_table=table) for m in ("wup", "jcn", "wup", "jcn")]
        level, schedule = g.schedule
        for r in rows:
            assert r._level is level and r._schedule is schedule
        assert rows[1]._ic is rows[3]._ic is table.ic_vector
        assert table.ic_vector.tolist() == [table.ic(i) for i in range(g.n)]
        assert rows[0].grids([(g.ids, g.ids)])[0].tobytes() == rows[2].grids([(g.ids, g.ids)])[0].tobytes()

    def test_missing_context_is_a_config_error(self, chain3):
        with pytest.raises(ConfigError, match="information content"):
            SimilarityRows(chain3, "jcn")
        with pytest.raises(ConfigError, match="unknown measure"):
            SimilarityRows(chain3, "cosine")


@PROPERTY_SETTINGS
@given(g=st.one_of(graphs, block_graphs()), count=st.sampled_from([1, 3, BLOCK]), data=st.data())
def test_bit_pass_seed_equals_the_ancestor_sets(g, count, data):
    sources = np.array(data.draw(st.permutations(range(g.n)), label="order")[:count], dtype=np.int64)
    rows = SimilarityRows(g, "wup")
    assert rows._seed(sources, bits=True).tobytes() == rows._seed(sources, bits=False).tobytes()
