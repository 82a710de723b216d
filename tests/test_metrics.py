"""Similarity measure tests: formulas, propagation, and shared properties."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from taxovec.dataset import DatasetConfig, build_fast, build_full
from taxovec.errors import ConfigError, DataError, UnknownNodeError
from taxovec.graph import TaxonomyGraph, compute_depths, shortest_path_length
from taxovec.metrics import (
    InformationContentTable,
    jcn_index,
    lch_from_path,
    load_raw_counts,
    pair_similarity,
    propagate_counts,
    shp_from_path,
    validate_measure,
    wup_index,
)

from conftest import ids_for, random_dag_edges, random_dag_graph, random_tree_graph
from oracles import ancestor_closure, ic_counts_oracle, lcs_oracle


class TestShp:
    def test_identity(self, chain3):
        assert pair_similarity("shp", chain3, "a", "a") == 1.0

    def test_chain_two_hops(self, chain3):
        assert pair_similarity("shp", chain3, "a", "c") == pytest.approx(1 / 3)

    def test_disconnected_scores_zero(self):
        g = TaxonomyGraph(["a", "b", "c"], [("b", "a")])
        assert pair_similarity("shp", g, "a", "c") == 0.0


class TestLch:
    def test_identity_at_depth_ten(self):
        # -log(1/(2*10)) = log 20
        assert lch_from_path(0, 10) == pytest.approx(2.995732273553991, rel=1e-12)

    def test_chain_endpoints(self, chain3):
        got = pair_similarity("lch", chain3, "a", "c")
        assert got == pytest.approx(0.6931471805599453, rel=1e-12)

    def test_matches_formula_on_random_trees(self):
        for seed in range(5):
            g = random_tree_graph(40, seed)
            rng = np.random.default_rng(seed)
            for _ in range(30):
                u, v = (g.ids[int(i)] for i in rng.integers(0, g.n, size=2))
                pathlen = shortest_path_length(g, u, v)
                expected = -math.log((pathlen + 1) / (2.0 * g.max_depth))
                got = pair_similarity("lch", g, u, v)
                assert got == pytest.approx(expected, rel=1e-6)

    def test_reads_the_graphs_depths(self, chain3):
        # the graph's own DepthIndex is accepted and changes nothing
        assert pair_similarity("lch", chain3, "a", "c") == lch_from_path(2, chain3.max_depth)
        assert pair_similarity("lch", chain3, "a", "c", compute_depths(chain3)) == lch_from_path(2, 3)


class TestWup:
    def test_identity(self, star3):
        assert pair_similarity("wup", star3, "x", "x") == 1.0

    def test_siblings_under_root(self, star3):
        assert pair_similarity("wup", star3, "x", "y") == pytest.approx(0.5)

    def test_matches_ancestor_oracle(self):
        for seed in range(6):
            n = 30
            edges = random_dag_edges(n, seed, extra=10)
            g = TaxonomyGraph(ids_for(n), [(f"n{c:03d}", f"n{p:03d}") for c, p in edges])
            anc = ancestor_closure(n, edges)
            rng = np.random.default_rng(seed)
            for _ in range(40):
                u, v = (int(i) for i in rng.integers(0, n, size=2))
                lcs = lcs_oracle(anc, list(g.depths), u, v)
                expected = (
                    0.0
                    if lcs is None
                    else 2.0 * g.depths[lcs] / (g.depths[u] + g.depths[v])
                )
                got = pair_similarity("wup", g, g.ids[u], g.ids[v])
                assert got == pytest.approx(expected, rel=1e-12)


class TestJcn:
    def fixture_table(self, star3):
        # raw {r:2, x:1, y:1} propagates to {r:4, x:1, y:1}
        return propagate_counts(star3, [2.0, 1.0, 1.0])

    def test_hand_computed_value(self, star3):
        table = self.fixture_table(star3)
        assert table.counts == (4.0, 1.0, 1.0)
        got = pair_similarity("jcn", star3, "x", "y", ic_table=table)
        assert got == pytest.approx(1.0 / (2.0 * math.log(4.0)), rel=1e-12)

    def test_zero_denominator_is_inf(self, star3):
        table = self.fixture_table(star3)
        assert pair_similarity("jcn", star3, "x", "x", ic_table=table) == math.inf
        # distinct nodes with identical ic and an lcs absorbing all mass
        assert jcn_index(star3, table, star3.idx("x"), star3.idx("x")) == math.inf

    def test_zero_count_endpoint_scores_zero(self, star3):
        table = propagate_counts(star3, [2.0, 0.0, 1.0])
        assert table.ic(star3.idx("x")) == math.inf
        assert pair_similarity("jcn", star3, "x", "y", ic_table=table) == 0.0

    def test_requires_ic_table(self, star3):
        with pytest.raises(ConfigError):
            pair_similarity("jcn", star3, "x", "y")

    def test_no_common_subsumer_scores_zero(self):
        g = TaxonomyGraph(["a", "b", "c", "d"], [("b", "a"), ("d", "c")])
        table = propagate_counts(g, [1.0, 1.0, 1.0, 1.0])
        assert pair_similarity("jcn", g, "b", "d", ic_table=table) == 0.0


class TestPropagateCounts:
    def test_chain_cumulative(self):
        # chain with root c: a <- b <- c reversed; here a,b leaves upward to c
        g = TaxonomyGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        table = propagate_counts(g, [2.0, 1.0, 0.0])
        assert table.counts == (2.0, 3.0, 3.0)
        assert table.total == 3.0

    def test_all_zero_rejected(self, chain3):
        with pytest.raises(DataError):
            propagate_counts(chain3, [0.0, 0.0, 0.0])

    def test_diamond_leaf_counted_once(self):
        # z -> p, z -> q, p -> r, q -> r: z's mass must reach r exactly once
        g = TaxonomyGraph(["r", "p", "q", "z"], [("p", "r"), ("q", "r"), ("z", "p"), ("z", "q")])
        table = propagate_counts(g, [0.0, 0.0, 0.0, 5.0])
        assert table.counts[g.idx("r")] == 5.0
        assert table.total == 5.0

    def test_matches_descendant_oracle(self):
        for seed in range(6):
            n = 20
            edges = random_dag_edges(n, seed, extra=8)
            g = TaxonomyGraph(ids_for(n), [(f"n{c:03d}", f"n{p:03d}") for c, p in edges])
            rng = np.random.default_rng(seed)
            raw = [float(x) for x in rng.integers(0, 5, size=n)]
            if sum(raw) == 0:
                raw[0] = 1.0
            expected_counts, expected_total = ic_counts_oracle(n, edges, raw)
            table = propagate_counts(g, raw)
            assert list(table.counts) == pytest.approx(expected_counts)
            assert table.total == pytest.approx(expected_total)

    def test_parent_count_dominates_child(self):
        for seed in range(5):
            g = random_dag_graph(25, seed, extra=10)
            rng = np.random.default_rng(seed)
            raw = [float(x) for x in rng.integers(1, 6, size=g.n)]
            table = propagate_counts(g, raw)
            for c in range(g.n):
                for p in g.parents[c]:
                    assert table.counts[p] >= table.counts[c]

    def test_ic_range_and_full_mass_root(self):
        g = TaxonomyGraph(["r", "x"], [("x", "r")])
        table = propagate_counts(g, [1.0, 3.0])
        assert table.ic(g.idx("r")) == 0.0
        assert table.ic(g.idx("x")) >= 0.0


class TestLoadRawCounts:
    def test_parse_accumulate_and_default_zero(self, tmp_path, chain3):
        p = tmp_path / "c.tsv"
        p.write_text("# counts\na\t2\nb\t1\na\t3\n")
        raw = load_raw_counts(p, chain3)
        assert raw == [5.0, 1.0, 0.0]

    def test_utf8_bom_skipped(self, tmp_path, chain3):
        p = tmp_path / "c.tsv"
        p.write_text("\ufeffa\t2\n", encoding="utf-8")
        assert load_raw_counts(p, chain3) == [2.0, 0.0, 0.0]

    def test_negative_rejected(self, tmp_path, chain3):
        p = tmp_path / "c.tsv"
        p.write_text("a\t-1\n")
        with pytest.raises(DataError, match="negative"):
            load_raw_counts(p, chain3)

    def test_unknown_node_rejected(self, tmp_path, chain3):
        p = tmp_path / "c.tsv"
        p.write_text("a\t1\nzzz\t3\n")
        with pytest.raises(UnknownNodeError, match=rf"^{re.escape(str(p))}:2: unknown node id 'zzz'$"):
            load_raw_counts(p, chain3)

    def test_malformed_line(self, tmp_path, chain3):
        p = tmp_path / "c.tsv"
        p.write_text("a\tnotanumber\n")
        with pytest.raises(DataError, match=":1"):
            load_raw_counts(p, chain3)


class TestMeasureProperties:
    def _context(self, seed):
        g = random_dag_graph(25, seed, extra=8)
        rng = np.random.default_rng(seed)
        table = propagate_counts(g, [float(x) for x in rng.integers(1, 8, size=g.n)])
        return g, table, rng

    def test_symmetry(self):
        for seed in range(5):
            g, table, rng = self._context(seed)
            for _ in range(25):
                u, v = (g.ids[int(i)] for i in rng.integers(0, g.n, size=2))
                for measure in ("shp", "lch", "wup", "jcn"):
                    uv = pair_similarity(measure, g, u, v, ic_table=table)
                    vu = pair_similarity(measure, g, v, u, ic_table=table)
                    assert uv == pytest.approx(vu, rel=1e-12) or (
                        math.isinf(uv) and math.isinf(vu)
                    )

    def test_shp_lch_monotone_in_path_length(self):
        max_depth = 12
        shp_vals = [shp_from_path(k) for k in range(10)]
        lch_vals = [lch_from_path(k, max_depth) for k in range(10)]
        assert shp_vals == sorted(shp_vals, reverse=True)
        assert lch_vals == sorted(lch_vals, reverse=True)

    def test_value_ranges(self):
        # wup range guarantees need single-parent ancestry: in a multi-parent
        # graph with shortest-root-path depths an ancestor can sit deeper
        # than its descendant, pushing wup above 1
        for seed in range(4):
            g = random_tree_graph(25, seed)
            rng = np.random.default_rng(seed)
            table = propagate_counts(g, [float(x) for x in rng.integers(1, 8, size=g.n)])
            log_bound = math.log(2 * g.max_depth)
            for _ in range(30):
                u, v = (g.ids[int(i)] for i in rng.integers(0, g.n, size=2))
                if shortest_path_length(g, u, v) is None:
                    continue
                assert 0.0 < pair_similarity("shp", g, u, v) <= 1.0
                lch = pair_similarity("lch", g, u, v)
                assert 0.0 < lch <= log_bound + 1e-12
                wup = pair_similarity("wup", g, u, v, ic_table=table)
                assert 0.0 < wup <= 1.0

    def test_wup_positive_on_dags(self):
        for seed in range(4):
            g, table, rng = self._context(seed)
            for _ in range(30):
                u, v = (g.ids[int(i)] for i in rng.integers(0, g.n, size=2))
                assert pair_similarity("wup", g, u, v, ic_table=table) > 0.0

    def test_self_similarity_maximal(self):
        for seed in range(4):
            g = random_tree_graph(25, seed)
            rng = np.random.default_rng(seed)
            table = propagate_counts(g, [float(x) for x in rng.integers(1, 8, size=g.n)])
            for u in (g.ids[int(i)] for i in rng.integers(0, g.n, size=5)):
                for measure in ("shp", "lch", "wup", "jcn"):
                    self_sim = pair_similarity(measure, g, u, u, ic_table=table)
                    for v in (g.ids[int(i)] for i in rng.integers(0, g.n, size=10)):
                        other = pair_similarity(measure, g, u, v, ic_table=table)
                        assert self_sim >= other


class TestValidation:
    def test_unknown_measure(self):
        with pytest.raises(ConfigError, match="unknown measure"):
            validate_measure("cosine")

    def test_case_insensitive(self):
        assert validate_measure("ShP") == "shp"

    @pytest.mark.parametrize("measure", ["lch", "wup", "jcn"])
    def test_depths_of_another_graph_rejected(self, measure):
        # lch used to score them silently, and wup to fail inside numpy
        g, big = random_tree_graph(40, 1), random_dag_graph(300, 2, extra=30)
        table = propagate_counts(g, [1.0] * g.n)
        with pytest.raises(ConfigError, match="depths of another graph"):
            build_full(g, DatasetConfig(measure=measure), compute_depths(big), table)
        with pytest.raises(ConfigError, match="depths of another graph"):
            pair_similarity(measure, g, g.ids[1], g.ids[2], compute_depths(big), table)

    def test_ic_table_of_another_graph_rejected(self):
        g, big = random_tree_graph(40, 1), random_dag_graph(300, 2, extra=30)
        table = propagate_counts(big, [1.0] * big.n)
        with pytest.raises(ConfigError, match="IC table of 300 nodes, not 40"):
            build_full(g, DatasetConfig(measure="jcn"), ic_table=table)
        with pytest.raises(ConfigError, match="IC table of 300 nodes, not 40"):
            pair_similarity("jcn", g, g.ids[1], g.ids[2], ic_table=table)

    def test_shp_ignores_another_graphs_context(self):
        # a fast shp build may be handed the depths and IC table of a larger graph
        g, big = random_dag_graph(300, 2, extra=30), random_tree_graph(40, 1)
        table = propagate_counts(big, [1.0] * big.n)
        cfg = DatasetConfig(measure="shp", seed=3)
        assert list(build_fast(g, cfg, compute_depths(big), table).pairs) == list(build_fast(g, cfg).pairs)

    def test_wup_self_uses_lcs_identity(self, chain3):
        got = wup_index(chain3, chain3.idx("c"), chain3.idx("c"))
        assert got == 1.0
