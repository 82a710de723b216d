"""Dataset construction tests: pruning, normalization, files, determinism."""

from __future__ import annotations

import itertools
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxovec import dataset
from taxovec.dataset import (
    DEFAULT_THRESHOLDS,
    _normalize,
    MODES,
    DatasetConfig,
    Pairs,
    TrainingPair,
    build_fast,
    build_full,
    read_pairs,
    read_pairs_header,
    write_pairs,
)
from taxovec.errors import (
    ConfigError,
    DataError,
    DegenerateRangeError,
    EmptyDatasetError,
    UnknownNodeError,
)
from taxovec.graph import TaxonomyGraph, compute_depths
from taxovec.metrics import BLOCK, MEASURES, SimilarityRows, pair_similarity, propagate_counts, unpack

from conftest import (
    block_graphs,
    edge_list_lines,
    edge_lists,
    edges_of,
    graph_from,
    graph_from_lines,
    graphs,
    ids_for,
    random_dag_edges,
    random_tree_graph,
)
from oracles import floyd_warshall_undirected, pipeline_oracle, spearman_oracle, top_k_oracle


class TestBuildFull:
    def test_three_chain_normalized_values(self, chain3):
        build = build_full(chain3, DatasetConfig(measure="shp"))
        got = {(p.u, p.v): p.s for p in build.pairs}
        assert got == {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 0.0}
        assert build.norm_min == pytest.approx(1 / 3)
        assert build.norm_max == pytest.approx(0.5)

    def test_threshold_defaults_per_measure(self):
        assert DatasetConfig(measure="shp").raw_threshold == 0.1
        assert DatasetConfig(measure="jcn").raw_threshold == 0.1
        assert DatasetConfig(measure="wup").raw_threshold == 0.3
        assert DatasetConfig(measure="lch").raw_threshold == 1.5
        assert DatasetConfig(measure="lch", threshold=0.7).raw_threshold == 0.7
        assert DEFAULT_THRESHOLDS["shp"] == 0.1

    def test_empty_after_pruning(self, chain3):
        with pytest.raises(EmptyDatasetError):
            build_full(chain3, DatasetConfig(measure="shp", threshold=0.9))

    def test_tie_break_at_kth_rank_prefers_smaller_index(self):
        # star: center s (index 0), children c1..c4; k=2
        ids = ["s", "c1", "c2", "c3", "c4"]
        edges = [(c, "s") for c in ids[1:]]
        g = TaxonomyGraph(ids, edges)
        build = build_full(g, DatasetConfig(measure="shp", top_k=2))
        got = {tuple(sorted((p.u, p.v))) for p in build.pairs}
        expected = {
            ("c1", "s"), ("c2", "s"), ("c3", "s"), ("c4", "s"),
            ("c1", "c2"), ("c1", "c3"), ("c1", "c4"),
        }
        assert got == expected

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("measure", ["shp", "wup"])
    def test_top_k_beyond_int64_keeps_every_partner(self, measure, mode):
        g = random_tree_graph(30, 1)
        builder = build_fast if mode == "fast" else build_full
        huge = builder(g, DatasetConfig(measure=measure, top_k=2**63, mode=mode))
        every = builder(g, DatasetConfig(measure=measure, top_k=g.n - 1, mode=mode))
        assert huge.header()["top_k"] == str(2**63)
        for column in ("i", "j", "s"):
            np.testing.assert_array_equal(getattr(huge.pairs, column), getattr(every.pairs, column))
        assert (huge.candidate_count, huge.threshold_kept) == (every.candidate_count, every.threshold_kept)

    def test_matches_pipeline_oracle_all_measures(self):
        # both modes: fast mode's reach is the Floyd-Warshall pairs at most 2 edges apart
        for seed, mode in itertools.product(range(4), MODES):
            n = 24
            edges = random_dag_edges(n, seed, extra=6)
            ids = ids_for(n)
            g = TaxonomyGraph(ids, [(ids[c], ids[p]) for c, p in edges])
            rng = np.random.default_rng(seed)
            raw_counts = [float(x) for x in rng.integers(1, 9, size=n)]
            table = propagate_counts(g, raw_counts)
            # lch default threshold keeps a single distance on shallow
            # graphs, which normalization rejects; loosen it here
            for measure, threshold in (
                ("shp", None), ("lch", 0.5), ("wup", None), ("jcn", None)
            ):
                cfg = DatasetConfig(
                    measure=measure, threshold=threshold, top_k=4, mode=mode, seed=seed
                )
                build = (build_full if mode == "full" else build_fast)(g, cfg, ic_table=table)
                _, expected_norm, lo, hi, candidates, kept = pipeline_oracle(
                    n, edges, measure, cfg.raw_threshold, 4, raw_counts, max_dist=2 if mode == "fast" else None
                )
                got = {
                    (g.idx(p.u), g.idx(p.v)): p.s for p in build.pairs
                }
                assert set(got) == set(expected_norm), (mode, measure)
                for key, s in expected_norm.items():
                    assert got[key] == pytest.approx(s, abs=1e-12), (mode, measure, key)
                assert build.norm_min == pytest.approx(lo)
                assert build.norm_max == pytest.approx(hi)
                assert (build.candidate_count, build.threshold_kept) == (candidates, kept), (mode, measure)

    def test_outputs_in_unit_range_and_above_threshold(self):
        for seed in range(4):
            g = random_tree_graph(30, seed)
            cfg = DatasetConfig(measure="shp", top_k=5, seed=seed)
            build = build_full(g, cfg)
            from taxovec.metrics import shp_from_path
            from taxovec.graph import shortest_path_length

            for p in build.pairs:
                assert 0.0 <= p.s <= 1.0
                raw = shp_from_path(shortest_path_length(g, p.u, p.v))
                assert raw >= cfg.raw_threshold

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DatasetConfig(measure="nope")
        with pytest.raises(ConfigError):
            DatasetConfig(measure="shp", top_k=0)
        with pytest.raises(ConfigError):
            DatasetConfig(measure="shp", mode="turbo")
        with pytest.raises(ConfigError, match="nan"):
            DatasetConfig(measure="shp", threshold=float("nan"))

    def test_jcn_requires_ic_and_lch_reads_the_graphs_depths(self, chain3):
        with pytest.raises(ConfigError, match="information content"):
            build_full(chain3, DatasetConfig(measure="jcn"))
        cfg = DatasetConfig(measure="lch", threshold=0.0)
        assert list(build_full(chain3, cfg).pairs) == list(build_full(chain3, cfg, compute_depths(chain3)).pairs)


class TestBuildFast:
    def test_isolated_node_contributes_nothing(self):
        g = TaxonomyGraph(
            ["a", "b", "c", "lone"], [("b", "a"), ("c", "b")]
        )
        build = build_fast(g, DatasetConfig(measure="shp", threshold=0.0))
        nodes_in_pairs = {p.u for p in build.pairs} | {p.v for p in build.pairs}
        assert "lone" not in nodes_in_pairs

    def test_equals_full_restricted_to_distance_two_for_path_measures(self):
        # distance-monotone measures keep identical top-k prefixes, so the
        # fast pair set equals the full set restricted to distance <= 2
        for seed in range(10):
            n = 40
            edges = random_dag_edges(n, seed, extra=seed % 4)
            ids = ids_for(n)
            g = TaxonomyGraph(ids, [(ids[c], ids[p]) for c, p in edges])
            dist = floyd_warshall_undirected(n, edges)
            for measure, threshold in (("shp", None), ("lch", 0.5)):
                cfg = DatasetConfig(
                    measure=measure, threshold=threshold, top_k=5, seed=seed
                )
                full = build_full(g, cfg)
                fast = build_fast(g, cfg)
                full_keys = {
                    (g.idx(p.u), g.idx(p.v))
                    for p in full.pairs
                    if dist[g.idx(p.u), g.idx(p.v)] <= 2
                }
                fast_keys = {(g.idx(p.u), g.idx(p.v)) for p in fast.pairs}
                assert fast_keys == full_keys, measure

    def test_subset_of_full_pair_set(self):
        for seed in range(6):
            g = random_tree_graph(35, seed)
            cfg = DatasetConfig(measure="shp", top_k=6, seed=seed)
            full_keys = {(p.u, p.v) for p in build_full(g, cfg).pairs}
            fast_keys = {(p.u, p.v) for p in build_fast(g, cfg).pairs}
            assert fast_keys <= full_keys

    def test_candidate_count_on_chain(self):
        g = TaxonomyGraph(["a", "b", "c", "d"], [("b", "a"), ("c", "b"), ("d", "c")])
        fast = build_fast(g, DatasetConfig(measure="shp", threshold=0.0))
        # distances <= 2 on a 4-chain: ab,bc,cd,ac,bd
        assert fast.candidate_count == 5
        full = build_full(g, DatasetConfig(measure="shp", threshold=0.0))
        assert full.candidate_count == 6


class TestUnityNormalize:
    def test_affine_endpoints(self):
        assert _normalize(np.array([1.5, 3.0, 4.5]))[0].tolist() == [0.0, 0.5, 1.0]

    def test_infinity_clipped_to_one(self):
        assert _normalize(np.array([math.inf, 1.0, 2.0]))[0].tolist() == [1.0, 0.0, 1.0]

    def test_degenerate_all_equal(self):
        with pytest.raises(DegenerateRangeError):
            _normalize(np.array([2.0, 2.0, 2.0]))

    def test_too_few_finite(self):
        with pytest.raises(DegenerateRangeError):
            _normalize(np.array([math.inf, 1.0]))

    def test_rank_preserving(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            values = [float(v) for v in rng.normal(size=20)]
            out = _normalize(np.array(values))[0].tolist()
            assert spearman_oracle(values, out) == pytest.approx(1.0)


class TestFilesAndDeterminism:
    def test_write_read_round_trip(self, tmp_path, chain3):
        build = build_full(chain3, DatasetConfig(measure="shp", seed=5))
        path = tmp_path / "pairs.tsv"
        write_pairs(path, build)
        pairs, meta = read_pairs(path)
        assert list(pairs) == list(build.pairs)
        assert meta["measure"] == "shp"
        assert meta["mode"] == "full"
        assert meta["seed"] == "5"
        assert float(meta["norm_min"]) == build.norm_min
        assert float(meta["norm_max"]) == build.norm_max
        assert int(meta["top_k"]) == 50

    def test_scores_formatted_by_their_bits_across_chunks(self, tmp_path, monkeypatch):
        # each chunk's distinct scores are formatted once: -0.0 stays apart
        # from 0.0, and a score repeated across chunks is written alike
        monkeypatch.setattr(dataset, "WRITE_CHUNK", 3)
        s = np.array([0.0, -0.0, 0.5, 1 / 3, 0.5, -0.0, 0.0, 1.0])
        i, j = np.zeros(len(s), dtype=np.int32), np.arange(1, len(s) + 1, dtype=np.int32)
        ids = tuple(f"n{k}" for k in range(len(s) + 1))
        build = dataset.DatasetBuild(Pairs(ids, i, j, s), DatasetConfig("shp"), 0, 0, 0.0, 1.0)
        path = tmp_path / "pairs.tsv"
        write_pairs(path, build)
        rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        assert rows == [f"n0\t{ids[b]}\t{x!r}" for b, x in zip(j.tolist(), s.tolist())]

    def test_byte_identical_across_runs(self, tmp_path):
        for seed in (0, 7):
            g = random_tree_graph(25, 11)
            cfg = DatasetConfig(measure="shp", top_k=5, seed=seed)
            p1 = tmp_path / f"a{seed}.tsv"
            p2 = tmp_path / f"b{seed}.tsv"
            write_pairs(p1, build_full(g, cfg))
            write_pairs(p2, build_full(g, cfg))
            assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_order_not_content(self):
        g = random_tree_graph(25, 11)
        b0 = build_full(g, DatasetConfig(measure="shp", top_k=5, seed=0))
        b1 = build_full(g, DatasetConfig(measure="shp", top_k=5, seed=1))
        assert list(b0.pairs) != list(b1.pairs)
        assert sorted(b0.pairs) == sorted(b1.pairs)

    def test_read_rejects_bad_rows(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("a\tb\n")
        with pytest.raises(DataError, match=":1"):
            read_pairs(p)
        p.write_text("a\tb\t1.5\n")
        with pytest.raises(DataError, match="outside"):
            read_pairs(p)
        p.write_text("a\tb\txyz\n")
        with pytest.raises(DataError, match="bad similarity"):
            read_pairs(p)

    def test_read_rejects_self_and_repeated_pairs(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("a\tb\t0.5\nc\tc\t1.0\n")
        with pytest.raises(DataError, match=r"pairs.tsv:2: self pair on 'c'"):
            read_pairs(p)
        for repeat in ("a\tb\t0.25", "b\ta\t0.5"):
            p.write_text(f"# norm_min=0.0\na\tb\t0.5\nc\td\t1.0\n\n{repeat}\n")
            with pytest.raises(DataError, match=rf"pairs.tsv:5: pair .* repeats {p}:2$"):
                read_pairs(p)
        # the first repeat in line order, though (a, b) sorts before (c, d)
        p.write_text("a\tb\t0.5\nc\td\t1.0\nd\tc\t0.5\nb\ta\t0.5\n")
        with pytest.raises(DataError, match=rf"pairs.tsv:3: pair \('d', 'c'\) repeats {p}:2$"):
            read_pairs(p)

    def test_header_is_the_leading_comment_block(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("# norm_min=0\n\n# norm_max=1\na\tb\t0.5\n# norm_min=9\n# seed=4\nb\tc\t1.0\n")
        assert read_pairs(p)[1] == read_pairs_header(p) == {"norm_min": "0", "norm_max": "1"}

    def test_read_skips_utf8_bom(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("\ufeff# norm_min=0.25\na\tb\t0.5\n", encoding="utf-8")
        pairs, meta = read_pairs(p)
        assert (list(pairs), meta) == ([TrainingPair("a", "b", 0.5)], {"norm_min": "0.25"})
        assert read_pairs_header(p) == {"norm_min": "0.25"}
        p.write_text("\ufeffa\tb\t0.5\n", encoding="utf-8")
        pairs, meta = read_pairs(p)
        assert (list(pairs), meta) == ([TrainingPair("a", "b", 0.5)], {})

    def test_pair_invariants(self):
        for seed in range(4):
            g = random_tree_graph(30, seed)
            build = build_full(g, DatasetConfig(measure="shp", seed=seed))
            seen = set()
            for p in build.pairs:
                assert p.u != p.v
                key = tuple(sorted((p.u, p.v)))
                assert key not in seen
                seen.add(key)


@settings(max_examples=100, deadline=None, database=None)
@given(
    g=graphs,
    measure=st.sampled_from(MEASURES),
    mode=st.sampled_from(MODES),
    k=st.sampled_from([1, 3, None]),  # None: k = n
    threshold=st.sampled_from([0.0, None]),
    seed=st.integers(0, 3),
)
def test_pairs_keep_the_dataset_invariants(g, measure, mode, k, threshold, seed):
    rng = np.random.default_rng(seed)
    raw = [float(x) for x in rng.integers(0, 3, size=g.n)]
    raw[0] += 1.0
    table = propagate_counts(g, raw)
    cfg = DatasetConfig(measure, threshold, g.n if k is None else k, mode, seed)
    try:
        build = (build_full if mode == "full" else build_fast)(g, cfg, ic_table=table)
    except (EmptyDatasetError, DegenerateRangeError):
        return
    # each node's top-k by the references: pair_similarity over the
    # Floyd-Warshall reach (two edges in fast mode), ties to the smaller index
    reach = floyd_warshall_undirected(g.n, edges_of(g)) <= (2 if mode == "fast" else g.n)

    def top_k(u):
        partners = sorted(
            (-pair_similarity(measure, g, g.ids[u], g.ids[v], ic_table=table), v)
            for v in np.flatnonzero(reach[u]).tolist()
            if v != u
        )
        return [v for neg, v in partners if -neg >= cfg.raw_threshold][: cfg.top_k]

    tops = [top_k(u) for u in range(g.n)]
    seen = set()
    for p in build.pairs:
        u, v = g.idx(p.u), g.idx(p.v)
        assert 0.0 <= p.s <= 1.0
        assert u != v
        assert (min(u, v), max(u, v)) not in seen
        seen.add((min(u, v), max(u, v)))
        assert v in tops[u] or u in tops[v]


def build_outcome(g, cfg, ic_table=None):
    """The pairs, header and counts of a build, or the type and message of its data error."""
    try:
        b = (build_full if cfg.mode == "full" else build_fast)(g, cfg, ic_table=ic_table)
    except DataError as e:
        return type(e), str(e)
    return b.pairs.i.tobytes(), b.pairs.j.tobytes(), b.pairs.s.tobytes(), b.header(), b.candidate_count, b.threshold_kept


@settings(max_examples=150, deadline=None, database=None)
@given(
    g=st.one_of(graphs, block_graphs()),
    measure=st.sampled_from(dataset.LEVEL_MEASURES),
    mode=st.sampled_from(MODES),
    k=st.sampled_from([1, 50, None]),  # None: k = n
    data=st.data(),
)
def test_level_selection_matches_reach_selection(g, measure, mode, k, data):
    # the reference is the fast wup/jcn path, _select_reach: the levels'
    # reach scored by SimilarityRows.table, block by block; with
    # LEVEL_MEASURES emptied, a whole shp/lch build takes the wup/jcn paths,
    # _select_reach in fast mode and the dense _select_table in full mode
    rows = SimilarityRows(g, measure)
    score = rows.path_score
    at = score(data.draw(st.integers(0, g.n), label="distance"))
    threshold = data.draw(st.sampled_from([
        at, math.nextafter(at, math.inf), math.nextafter(at, -math.inf), 0.0, -1.0, -math.inf,
        math.nextafter(score(1), math.inf),  # no pair passes
    ]), label="threshold")
    cfg = DatasetConfig(measure, threshold, g.n if k is None else k, mode, seed=3)
    # the distances whose score passes, and how far a build walks: a full one to the last of them
    max_dist = 2 if mode == "fast" else None
    passing = sum(score(d) >= threshold for d in range(g.n if max_dist is None else max_dist + 1))
    walk = max(passing - 1, 0) if max_dist is None else max_dist
    top_k = min(cfg.top_k, g.n)
    for first in range(0, g.n, BLOCK):
        sources = np.arange(first, min(first + BLOCK, g.n))
        codes, dists, reached, kept = dataset._select_levels(rows, sources, walk, passing, top_k)
        want = dataset._select_reach(rows, sources, max_dist, threshold, top_k)
        got_order, want_order = np.argsort(codes, kind="stable"), np.argsort(want[0], kind="stable")
        assert codes[got_order].tobytes() == want[0][want_order].tobytes()
        sims = np.array([score(d) for d in range(passing)])[dists[got_order]]
        assert sims.tobytes() == want[1][want_order].tobytes()
        assert kept == want[3]
        if max_dist is not None:  # a full build's levels stop at the threshold
            assert reached == want[2]
    # the pairs, header and counts of the whole build, also where it raises
    got = build_outcome(g, cfg)
    with mock.patch.object(dataset, "LEVEL_MEASURES", ()):
        want = build_outcome(g, cfg)
    assert got == want
    if threshold > score(1):
        assert want == (EmptyDatasetError, f"no pairs survive threshold {threshold!r} for measure {measure!r}")


@settings(max_examples=150, deadline=None, database=None)
@given(
    g=st.one_of(graphs, block_graphs()),
    measure=st.sampled_from(["wup", "jcn"]),
    k=st.sampled_from([1, 50, None]),  # None: k = n
    data=st.data(),
)
def test_table_selection_matches_reach_selection(g, measure, k, data):
    # the reference is _select_reach over each source's whole reach: the
    # levels' cells scored by SimilarityRows.table, block by block
    rng = np.random.default_rng(data.draw(st.integers(0, 3), label="counts"))
    raw = [float(x) for x in rng.integers(0, 3, size=g.n)]
    raw[0] += 1.0  # zero counts too: infinite IC ends score 0.0, collapsed distances +inf
    table = propagate_counts(g, raw)
    rows = SimilarityRows(g, measure, ic_table=table)
    grid = rows.grids([(g.ids, g.ids)])[0]
    u, v = (data.draw(st.integers(0, g.n - 1), label=end) for end in ("u", "v"))
    at = 0.0 if np.isnan(grid[u, v]) else float(grid[u, v])
    threshold = data.draw(st.sampled_from([
        at, math.nextafter(at, math.inf), math.nextafter(at, -math.inf), 0.0, -math.inf,
        math.nextafter(grid[np.isfinite(grid)].max(initial=0.0), math.inf),  # above every finite score
    ]), label="threshold")
    cfg = DatasetConfig(measure, threshold, g.n if k is None else k, "full", seed=3)
    top_k = min(cfg.top_k, g.n)
    for first in range(0, g.n, BLOCK):
        sources = np.arange(first, min(first + BLOCK, g.n))
        got = dataset._select_table(rows, sources, threshold, top_k)
        want = dataset._select_reach(rows, sources, None, threshold, top_k)
        got_order, want_order = np.argsort(got[0], kind="stable"), np.argsort(want[0], kind="stable")
        assert got[0][got_order].tobytes() == want[0][want_order].tobytes()
        assert got[1][got_order].tobytes() == want[1][want_order].tobytes()
        assert got[2:] == want[2:]  # reached and kept, from both ends
    # the pairs, header and counts of the whole build, also where it raises
    got = build_outcome(g, cfg, table)
    reach = lambda rows, sources, t, k: dataset._select_reach(rows, sources, None, t, k)  # noqa: E731
    with mock.patch.object(dataset, "_select_table", reach):
        want = build_outcome(g, cfg, table)
    assert got == want


TIED_SCORES = [0.0, -0.0, math.inf, 1.0, 0.5]  # a few values, so that scores tie often


@st.composite
def top_k_inputs(draw):
    """(sources, columns, tgt, sim, n, k) of one block: distinct (column,
    target) cells, as a table or a reach gives them, with tied, signed-zero
    and infinite scores, columns as uint8 (unpack) or int64 (np.nonzero)."""
    n = draw(st.one_of(st.integers(1, 300), st.just(2**25)), label="n")
    first = draw(st.integers(0, n - 1), label="first source")
    sources = np.arange(first, min(first + BLOCK, n))
    cells = draw(st.lists(st.tuples(st.integers(0, len(sources) - 1), st.integers(0, n - 1)), unique=True,
                          max_size=200), label="cells")
    score = st.one_of(st.sampled_from(TIED_SCORES), st.floats(allow_nan=False))
    sim = np.array(draw(st.lists(score, min_size=len(cells), max_size=len(cells)), label="scores"), dtype=float)
    columns = np.array([c for c, _ in cells], dtype=draw(st.sampled_from([np.uint8, np.int64]), label="dtype"))
    largest = int(np.bincount(columns, minlength=len(sources)).max())
    k = draw(st.integers(1, largest + 2), label="k")  # below, at and above the largest source's count
    return sources, columns, np.array([t for _, t in cells], dtype=np.int64), sim, n, k


def ties(k, dtype=np.int64):  # one source's triples at 0.0, -0.0 and inf, targets 0..4
    return (np.array([9]), np.zeros(5, dtype=dtype), np.array([4, 0, 3, 1, 2]),
            np.array([0.0, -0.0, math.inf, math.inf, -0.0]), 10, k)


@settings(max_examples=300, deadline=None, database=None)
@example(inputs=(np.arange(3), np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64), np.empty(0), 3, 1))
@example(inputs=ties(1, np.uint8))  # k = 1: the lower target of the two inf
@example(inputs=ties(3))  # a cut inside the tied zeros
@example(inputs=ties(5))  # k = the group size: no sort
@given(inputs=top_k_inputs())
def test_top_k_keeps_each_sources_best_by_score_then_target(inputs):
    sources, columns, tgt, sim, n, k = inputs
    codes, kept = dataset._top_k(*inputs)
    assert codes.dtype == np.int64 and kept.dtype == np.float64 and len(codes) == len(kept)
    got = sorted(zip(codes.tolist(), (struct.pack("<d", s) for s in kept.tolist())))
    assert got == top_k_oracle(sources, columns, tgt, sim, n, k)


@pytest.mark.parametrize("n, bits", [(2**60, 63), (2**61, 64), (2**62, 65)])
def test_a_top_k_key_over_63_bits_is_a_config_error(n, bits):
    # two triples of one source: 1 column bit (two sources), 1 rank bit (two
    # scores), the target bits of n and the sign bit; no array as large as n
    inputs = (np.array([0, 1]), np.zeros(2, dtype=np.uint8), np.array([5, 6]), np.array([0.5, 0.25]), n, 1)
    if bits == 63:
        assert dataset._top_k(*inputs)[0].tolist() == [5]
    else:
        with pytest.raises(ConfigError, match=f"top-k key of {bits} bits for {n} nodes: the limit is 63"):
            dataset._top_k(*inputs)


def test_reach_selection_unpacks_at_most_2n_words(monkeypatch):
    # a root and 63 of its n - 1 children as sources: the root reaches every
    # child at distance 1 and each child source every other child at
    # distance 2, so the two levels hold 2n - 1 words, more than one level
    # can, all unpacked in one call; a level holds a node once, so a walk of
    # max_dist 2 never unpacks more than 2n words
    n = 320
    g = graph_from(n, [(c, 0) for c in range(1, n)], virtual_root=False)
    table = propagate_counts(g, [1.0] * n)
    words = []

    def spy(held, sources):
        words.append(sum(len(nodes) for nodes, _ in held))
        return unpack(held, sources)

    monkeypatch.setattr(dataset, "unpack", spy)
    for measure in ("wup", "jcn"):
        words.clear()
        rows = SimilarityRows(g, measure, ic_table=table)
        _, _, reached, _ = dataset._select_reach(rows, np.arange(BLOCK), 2, 0.0, n)
        assert words == [2 * n - 1]
        assert reached == BLOCK * (n - 1)  # every other node is within two edges of each source


@settings(max_examples=100, deadline=None, database=None)
@given(
    ne=st.one_of(edge_lists(forest=False), edge_lists(forest=True)),
    virtual_root=st.booleans(),
    # jcn is left out, and so is a top-k below n: jcn's deepest common subsumer
    # breaks depth ties by node index (lcs_index) and the top-k breaks score
    # ties by partner index, so both follow the id numbering as documented
    measure=st.sampled_from(["shp", "lch", "wup"]),
    mode=st.sampled_from(MODES),
    threshold=st.sampled_from([0.0, None]),
    data=st.data(),
)
def test_pairs_do_not_depend_on_the_edge_list_order(ne, virtual_root, measure, mode, threshold, data):
    # DAGs with multiple inheritance and forests, alone or under a virtual root;
    # shuffling the lines renumbers the nodes by first mention
    lines = edge_list_lines(*ne)
    shuffled = data.draw(st.permutations(lines), label="lines")

    def outcome(g):
        cfg = DatasetConfig(measure, threshold, g.n, mode)
        try:
            b = (build_full if mode == "full" else build_fast)(g, cfg)
        except DataError as e:
            return type(e), str(e)
        pairs = {frozenset((p.u, p.v)): p.s.hex() for p in b.pairs}
        assert len(pairs) == len(b.pairs)
        return pairs, b.candidate_count, b.threshold_kept, b.norm_min, b.norm_max

    assert outcome(graph_from_lines(shuffled, virtual_root)) == outcome(graph_from_lines(lines, virtual_root))


class TestTrainingPairType:
    def test_is_lightweight_tuple(self):
        p = TrainingPair("a", "b", 0.5)
        assert tuple(p) == ("a", "b", 0.5)
        assert p.s == 0.5


class TestPairs:
    ROWS = [("b", "a", 0.5), ("c", "b", 0.25), ("a", "d", 1.0)]

    def test_from_rows_numbers_ids_by_first_mention(self):
        pairs = Pairs.from_rows(self.ROWS)
        assert pairs.ids == ("b", "a", "c", "d")
        assert (pairs.i.tolist(), pairs.j.tolist(), pairs.s.tolist()) == ([0, 2, 1], [1, 0, 3], [0.5, 0.25, 1.0])
        assert (pairs.i.dtype, pairs.j.dtype, pairs.s.dtype) == (np.int32, np.int32, np.float64)
        assert list(pairs) == [TrainingPair(*row) for row in self.ROWS]

    def test_indexing(self):
        pairs = Pairs.from_rows(self.ROWS)
        assert len(pairs) == 3
        assert pairs[-1] == pairs[np.int64(2)] == TrainingPair("a", "d", 1.0)
        with pytest.raises(IndexError):
            pairs[3]
        for view in (pairs[1:], pairs[np.array([False, True, True])]):
            assert isinstance(view, Pairs) and view.ids is pairs.ids
            assert list(view) == list(pairs)[1:]
        assert len(Pairs.from_rows([])) == 0

    def test_on_maps_ids_to_graph_indices(self):
        g = TaxonomyGraph(["a", "b", "c", "d"], [("b", "a"), ("c", "b"), ("d", "a")])
        i, j = Pairs.from_rows(self.ROWS).on(g)
        assert (i.tolist(), j.tolist(), i.dtype) == ([1, 2, 0], [0, 1, 3], np.int64)
        # an unknown id is named only if a selected pair holds it
        g3 = TaxonomyGraph(["a", "b", "c"], [("b", "a"), ("c", "b")])
        assert Pairs.from_rows(self.ROWS)[:2].on(g3)[0].tolist() == [1, 2]
        with pytest.raises(UnknownNodeError, match="'d'"):
            Pairs.from_rows(self.ROWS).on(g3)


# Multi-inheritance DAG; then a forest whose node `s` has a parent in each
# of two trees (so the trees are connected but share no subsumer), a third
# tree and an isolated node; then the same forest under a virtual root.
DAG_EDGES = "".join(f"n{c:02d}\tn{p:02d}\n" for c, p in random_dag_edges(30, 5, extra=9))
FOREST_EDGES = (
    "a1\ta0\na2\ta0\na3\ta1\na4\ta1\na5\ta2\n"
    "b1\tb0\nb2\tb0\nb3\tb1\n"
    "s\ta3\ns\tb1\ns1\ts\n"
    "c1\tc0\nc2\tc0\nlone\n"
)
IDENTITY_THRESHOLDS = {"shp": None, "lch": 0.5, "wup": None, "jcn": None}

# Graphs larger than one 64-source block, with a node count that is no
# multiple of 64: a 150-node multi-inheritance DAG with three roots; the
# same DAG with two isolated nodes, one first in load order and one in
# the middle; and the DAG under a virtual root.
_BLOCK_LINES = [
    f"m{c:03d}\tm{p:03d}" for c, p in random_dag_edges(150, 7, extra=40) if c not in (1, 2)
]
BLOCK_DAG_EDGES = "".join(line + "\n" for line in _BLOCK_LINES)
BLOCK_ISOLATED_EDGES = "".join(
    line + "\n"
    for line in ["iso_a", *_BLOCK_LINES[:75], "iso_b", *_BLOCK_LINES[75:]]
)

# sha256 of write_pairs output, captured from the per-pair implementation
# that predates the similarity-row kernel; the block-* digests from the
# per-source row build that predates the block pass.
PAIRS_DIGESTS = {
    "dag/shp/full/None/3": "518b0fbc35eabe947e7cb22cccda4639e6e48db1bb104ec00b84cee8696e7132",
    "dag/shp/fast/None/3": "fe7b845f25985c3fc5cd5c097374fadf51ff74ce5cc4202614752d83242f491d",
    "dag/lch/full/0.5/3": "098a3fb6fd6937da7d21de6ac7e5ec9a31cf5b71a02db4f07bff794daea3cd6e",
    "dag/lch/fast/0.5/3": "ab961aa97abc743ec3a403ce7170956b881df7273c500da5affac94c86a18d33",
    "dag/wup/full/None/3": "c3c51b9f6726c0345c55defa15649fcc292ac2bdba6513c02697eb1de38d3d97",
    "dag/wup/fast/None/3": "276a373cd75508e3561e76ba26ba8ef3ee0a233e496e21a582544ac3d6d7c152",
    "dag/jcn/full/None/3": "19ff5cb77973935cc567def0860769767fc1ebdfb9ad53797ae5bd8e42316f40",
    "dag/jcn/fast/None/3": "f8a081a43346c0445b756e21d7958bb08ed5d3b5b53fc4646def2b76c1468ddc",
    "forest/shp/full/None/3": "50e924b99f584b7fbb837588094992b9f2079ea5e9d0d5f728b2ad2b30638551",
    "forest/shp/fast/None/3": "c9aefb1f72d5c9b01eb2ac2396b75a21722afb8c35c4034ca5f96f3bee996877",
    "forest/lch/full/0.5/3": "484f7b5d4f9c5a7f5277b2dd14891460c097003a2dbd6dcf4ecbd02ddd1f34f0",
    "forest/lch/fast/0.5/3": "890f03b93a9ff6926c45e275038978cfd12ba5d56ab99e5820e0ac93be2d612d",
    "forest/wup/full/None/3": "06c569bc0e78ecb9cc9b400a0a253b4fdd357c18e7a85d08327b01815d7f1638",
    "forest/wup/fast/None/3": "ebfd80e8f0289ddac608ef1e704bbc0b4d0a76542ccd73228fa6867c91071324",
    "forest/jcn/full/None/3": "86f9bf4f6ad936c9aaba17c6e82da97476cae1ba382fa00843b65299c985765a",
    "forest/jcn/fast/None/3": "38eaa81bcd8315d053f45791c9850009c8416f49b9b25904178d1f8bc3115b9f",
    "rooted/shp/full/None/3": "074f5efa7b3825a04c0cc2293f47b49502fb0d76c4f4b4c9f6f8ba9aecf58d64",
    "rooted/shp/fast/None/3": "2febf395e65d64a29df548efe23fbec265dc41a2c4efea8e5d4c0fcc16f66241",
    "rooted/lch/full/0.5/3": "0901bcf80e1e5f5ac0c2b8795f636ebf7cf2da3af7553cc3174478450924d566",
    "rooted/lch/fast/0.5/3": "493d1183254ea8d65bbc595f0af737be820b2dc1e2e601e453fea00093f708a9",
    "rooted/wup/full/None/3": "345d3fed81ac87b8e9f8bbaf4098b3da8f28e17bdb9443491277e5f76cf8d2c8",
    "rooted/wup/fast/None/3": "abb8457c2bfbd436c115e0ea3339dd7cfb1cde78913302d16a523ca98d05a985",
    "rooted/jcn/full/None/3": "fc1af5c82101c1fc0926dde5e91741d94921d1e1247531f63a600bc35ba2f9f3",
    "rooted/jcn/fast/None/3": "476901d2fa1a8e3d2c14fe66ad1cb884092684fcdcd90b33af55a8382147b78a",
    "forest/wup/full/0.0/50": "bb480ddf9b305ac0b0e3eb92030df1f47ceb855ac37dac0eb3e66d390aa97bef",
    "block/shp/full/None/3": "1ceb57cd199683f1e331a2bab18b8f258282e0a2e36976d06f8c1ec7c3e4ac3e",
    "block/shp/fast/None/3": "723f139279fc682b1149909adf9e513eea320776073e0094a1e01952965ae9cf",
    "block/lch/full/0.5/3": "9d83f77933e54651534d6b97aa9c838040a86da84eee5907ef97a52a8fb08697",
    "block/lch/fast/0.5/3": "f71230914ce544926d0b411dba4ba38e78d71cd5243dcd93a400e952c1ee2174",
    "block/wup/full/None/3": "ace572ce41f77ed8d738bcae7f5b8bb9a90fae3f6f75eaeb178349302a35ae05",
    "block/wup/fast/None/3": "d870e3a6baec3087a015d04f6c0d1b6f3a8154879541d91c0197ba900f83c8a8",
    "block/jcn/full/None/3": "36ac005c07af651da74d4e440f8f7552ac60dbef15b3d07ca5b8f03f35a5fe8b",
    "block/jcn/fast/None/3": "25265979332e3bbe014da03ee17ca44386dc77447ab05197ea387d9b12243136",
    "block-isolated/shp/full/None/3": "1ceb57cd199683f1e331a2bab18b8f258282e0a2e36976d06f8c1ec7c3e4ac3e",
    "block-isolated/shp/fast/None/3": "723f139279fc682b1149909adf9e513eea320776073e0094a1e01952965ae9cf",
    "block-isolated/lch/full/0.5/3": "9d83f77933e54651534d6b97aa9c838040a86da84eee5907ef97a52a8fb08697",
    "block-isolated/lch/fast/0.5/3": "f71230914ce544926d0b411dba4ba38e78d71cd5243dcd93a400e952c1ee2174",
    "block-isolated/wup/full/None/3": "ace572ce41f77ed8d738bcae7f5b8bb9a90fae3f6f75eaeb178349302a35ae05",
    "block-isolated/wup/fast/None/3": "d870e3a6baec3087a015d04f6c0d1b6f3a8154879541d91c0197ba900f83c8a8",
    "block-isolated/jcn/full/None/3": "c6cea03e180c41a310875c4d660f15010ac6685ac3cd04808adf699a7ae3ddd5",
    "block-isolated/jcn/fast/None/3": "65395f885578205ed87baba6be7e16902bf979cdefab767cf6a1d7f3630f1e50",
    "block-rooted/shp/full/None/3": "a6a98930e59623ece6fc9bb7308d703d77f1ce076fcf116cef47dc953c82ef6b",
    "block-rooted/shp/fast/None/3": "7520cc97a5c3dccb2a02a99eb900296cb47ddd54f5bb991679d4f7613c7673c2",
    "block-rooted/lch/full/0.5/3": "931da3295266198d16d5c078351f54fde4bbf7583a57d3dd14ff559f620dae3d",
    "block-rooted/lch/fast/0.5/3": "70c4b5737020a9f3042f1d3490d1978cc064e4085c914a87b0250b9930756f36",
    "block-rooted/wup/full/None/3": "ad699bd7c37aa2b5ae03d64c1e5ba0d8617886a72012aa3195faa38ffa6ba27c",
    "block-rooted/wup/fast/None/3": "33aa8a726b72fb79c2195f67153941267f6ea384e6d13a225ef4c4a6ac7e660e",
    "block-rooted/jcn/full/None/3": "f75704dd40724a8ff118eaf8fc8e22f91ac2bdd0ccbca6325a66a9088c17f27e",
    "block-rooted/jcn/fast/None/3": "06dabb1db21066699a29277e562b16773798d6735550da97adbaddda0621f67d",
    "block-isolated/jcn/full/0.0/50": "a9f921cd3cf63ef3f97efce5b68407b1b35a5e5d3884f40654fb08d8860b58ef",
    "block-rooted/wup/fast/0.0/50": "df18a9cb294cafb556ba41a901046cfde809ae36b8c458fc07db17bda35b612d",
}


def pairs_digests(tmp_path) -> dict[str, str]:
    import hashlib

    from taxovec.graph import load_edge_list

    graphs = {}
    for name, text, root in (
        ("dag", DAG_EDGES, None),
        ("forest", FOREST_EDGES, None),
        ("rooted", FOREST_EDGES, "ROOT"),
        ("block", BLOCK_DAG_EDGES, None),
        ("block-isolated", BLOCK_ISOLATED_EDGES, None),
        ("block-rooted", BLOCK_DAG_EDGES, "ROOT"),
    ):
        path = tmp_path / f"{name}.tsv"
        path.write_text(text)
        graphs[name] = load_edge_list(path, virtual_root=root)
    cases = [
        (name, measure, mode, IDENTITY_THRESHOLDS[measure], 3)
        for name in graphs
        for measure in ("shp", "lch", "wup", "jcn")
        for mode in ("full", "fast")
    ]
    # keeps every candidate, including the connected pairs without a common
    # subsumer, which score 0.0
    cases.append(("forest", "wup", "full", 0.0, 50))
    cases.append(("block-isolated", "jcn", "full", 0.0, 50))
    cases.append(("block-rooted", "wup", "fast", 0.0, 50))
    out = {}
    for name, measure, mode, threshold, top_k in cases:
        g = graphs[name]
        table = propagate_counts(g, [float(i % 3) for i in range(g.n)])
        cfg = DatasetConfig(measure=measure, threshold=threshold, top_k=top_k, mode=mode, seed=11)
        build = (build_fast if mode == "fast" else build_full)(g, cfg, ic_table=table)
        path = tmp_path / "pairs.tsv"
        write_pairs(path, build)
        key = f"{name}/{measure}/{mode}/{threshold}/{top_k}"
        out[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


class TestByteIdentity:
    def test_pairs_files_match_recorded_digests(self, tmp_path):
        assert pairs_digests(tmp_path) == PAIRS_DIGESTS
