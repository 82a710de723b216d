"""Evaluation tests: rank correlation, candidate selection, report assembly."""

from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taxovec.dataset import DatasetConfig, build_full
from taxovec.errors import ConfigError, DataError, DegenerateRangeError, RecordError, UnknownNodeError
from taxovec.evaluation import (
    LemmaPairRecord,
    MeasureScorer,
    ModelScorer,
    SelectedPair,
    dynamic_selection,
    evaluate,
    load_candidates,
    load_lemma_pairs,
    make_records,
    score_histogram,
    spearman,
    static_selection,
)
from taxovec.graph import TaxonomyGraph
from taxovec.metrics import BLOCK, pair_similarity, propagate_counts
from taxovec.trainer import EmbeddingMatrix, TrainConfig, score, train

from conftest import block_graphs, every_scorer, random_dag_graph, random_tree_graph
from oracles import model_score_oracle, spearman_oracle


class TestSpearman:
    def test_identity_and_reverse(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert spearman(x, x) == pytest.approx(1.0)
        assert spearman(x, x[::-1]) == pytest.approx(-1.0)

    def test_tied_ranks_fractional(self):
        assert spearman([1, 2, 2, 4], [1, 3, 3, 2]) == pytest.approx(1 / 3)
        assert spearman_oracle([1, 2, 2, 4], [1, 3, 3, 2]) == pytest.approx(1 / 3)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)), min_size=3, max_size=40),
        st.sampled_from([lambda v: v**3, lambda v: math.exp(v / 64), math.atan]),
        st.sampled_from([lambda v: -v, lambda v: 1 / (v + 2000), lambda v: math.exp(-v / 64)]),
    )
    def test_rank_transform_property(self, points, increasing, decreasing):
        # integer draws keep every transform injective in floats, so ties
        # survive exactly and the ranks, hence rho, move exactly
        x, y = [float(a) for a, _ in points], [float(b) for _, b in points]
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        rho = spearman(x, y)
        assert spearman([increasing(v) for v in x], y) == rho
        assert spearman(x, [increasing(v) for v in y]) == rho
        assert spearman([decreasing(v) for v in x], y) == -rho
        assert spearman(x, [decreasing(v) for v in y]) == -rho

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = [float(v) for v in rng.normal(size=15)]
            y = [float(v) for v in rng.normal(size=15)]
            base = spearman(x, y)
            assert spearman([math.exp(v) for v in x], y) == pytest.approx(base)
            assert spearman(x, [3 * v + 7 for v in y]) == pytest.approx(base)

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            x = [round(float(v), 1) for v in rng.normal(size=n)]
            y = [round(float(v), 1) for v in rng.normal(size=n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert spearman(x, y) == pytest.approx(spearman_oracle(x, y), abs=1e-12)

    def test_errors(self):
        with pytest.raises(DataError):
            spearman([1, 2, 3], [1, 2])
        with pytest.raises(DataError):
            spearman([1, 2], [1, 2])
        with pytest.raises(DataError):
            spearman([5, 5, 5], [1, 2, 3])
        with pytest.raises(DataError):
            spearman([1, 2, 3], [7, 7, 7])


class TestLoaders:
    def test_lemma_pairs(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("# header comment\ncat\tdog\t7.35\n\nrun\twalk\t6.2\n")
        assert load_lemma_pairs(p) == [("cat", "dog", 7.35), ("run", "walk", 6.2)]

    def test_utf8_bom_skipped(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("\ufeffcat\tdog\t7.35\n", encoding="utf-8")
        assert load_lemma_pairs(p) == [("cat", "dog", 7.35)]
        p.write_text("\ufeffcat\tn01\n", encoding="utf-8")
        assert load_candidates(p) == {"cat": ("n01",)}

    def test_lemma_pairs_errors(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("cat\tdog\n")
        with pytest.raises(DataError, match=":1"):
            load_lemma_pairs(p)
        p.write_text("cat\tdog\thigh\n")
        with pytest.raises(DataError, match="bad score"):
            load_lemma_pairs(p)

    def test_candidates(self, tmp_path):
        p = tmp_path / "cands.tsv"
        p.write_text("cat\tn01, n02 ,n03\ndog\tn04\nghost\t,\n")
        got = load_candidates(p)
        assert got["cat"] == ("n01", "n02", "n03")
        assert got["dog"] == ("n04",)
        assert got["ghost"] == ()
        p.write_text("cat only\n")
        with pytest.raises(DataError, match=":1"):
            load_candidates(p)

    def test_repeated_lemma_names_the_earlier_line(self, tmp_path):
        p = tmp_path / "cands.tsv"
        p.write_text("x\ta\n# comment\ny\tc\nx\tb\n")
        with pytest.raises(RecordError, match=rf"^{re.escape(str(p))}:4: lemma 'x' repeats {re.escape(str(p))}:1$"):
            load_candidates(p)

    def test_repeated_lemma_pair_names_the_earlier_line(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        for repeat in ("x\ty\t3.0", "y\tx\t1.0"):  # the same gold or another, in either order
            p.write_text(f"x\ty\t1.0\n# comment\nx\tz\t2.0\n{repeat}\n")
            u, v = repeat.split("\t")[:2]
            at = re.escape(str(p))
            with pytest.raises(RecordError, match=rf"^{at}:4: lemma pair \('{u}', '{v}'\) repeats {at}:1$"):
                load_lemma_pairs(p)

    def test_make_records_excludes_unmapped(self):
        pairs = [("a", "b", 1.0), ("a", "zz", 2.0), ("ghost", "b", 3.0)]
        cands = {"a": ("n1",), "b": ("n2", "n3"), "ghost": ()}
        records, excluded = make_records(pairs, cands)
        assert excluded == 2
        assert len(records) == 1
        assert records[0].lemma1 == "a"
        assert records[0].candidates2 == ("n2", "n3")


def brute_force_static(records, g, measure, ic_table=None):
    """In-order scan keeping the strictly best candidate pair per record.

    Connectivity is shp > 0 (a path exists), which on the single-tree
    fixtures used here coincides with the per-measure rule.
    """
    out = []
    excluded = 0
    for rec in records:
        chosen = None
        for c1 in rec.candidates1:
            for c2 in rec.candidates2:
                if pair_similarity("shp", g, c1, c2) <= 0.0:
                    continue
                sim = pair_similarity(measure, g, c1, c2, ic_table=ic_table)
                if chosen is None or sim > chosen[0]:
                    chosen = (sim, c1, c2)
        if chosen is None:
            excluded += 1
            continue
        out.append(SelectedPair(chosen[1], chosen[2], rec.gold_score, chosen[0]))
    return out, excluded


class TestStaticSelection:
    def test_tie_prefers_candidate_list_order(self):
        g = TaxonomyGraph(["r", "x", "y", "z"], [("x", "r"), ("y", "r"), ("z", "r")])
        rec_xy = LemmaPairRecord("l1", "l2", 5.0, ("x", "y"), ("z",))
        rec_yx = LemmaPairRecord("l1", "l2", 5.0, ("y", "x"), ("z",))
        sel, _ = static_selection([rec_xy], g, "shp")
        assert (sel[0].u, sel[0].v) == ("x", "z")
        sel, _ = static_selection([rec_yx], g, "shp")
        assert (sel[0].u, sel[0].v) == ("y", "z")
        assert sel[0].selection_score == pytest.approx(1 / 3)

    def test_disconnected_records_counted(self):
        g = TaxonomyGraph(
            ["a", "b", "p", "q"], [("b", "a"), ("q", "p")]
        )
        records = [
            LemmaPairRecord("l1", "l2", 1.0, ("a",), ("q",)),  # across components
            LemmaPairRecord("l3", "l4", 2.0, ("a", "p"), ("b",)),  # mixed
        ]
        sel, excluded = static_selection(records, g, "shp")
        assert excluded == 1
        assert len(sel) == 1
        assert (sel[0].u, sel[0].v) == ("a", "b")

    def test_wup_jcn_exclude_only_pairs_without_common_subsumer(self):
        # s has a parent in each tree: a1 and b1 are connected through s but
        # share no subsumer; x is unobserved, so its jcn scores are 0.0
        g = TaxonomyGraph(
            ["a0", "a1", "x", "b0", "b1", "s"],
            [("a1", "a0"), ("x", "a0"), ("b1", "b0"), ("s", "a1"), ("s", "b1")],
        )
        table = propagate_counts(g, [1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        records = [
            LemmaPairRecord("l1", "l2", 1.0, ("a1",), ("b1",)),  # no subsumer
            LemmaPairRecord("l3", "l4", 2.0, ("a1", "b1"), ("x",)),  # a0 is shared
        ]
        for measure in ("wup", "jcn"):
            sel, excluded = static_selection(records, g, measure, ic_table=table)
            assert excluded == 1
            assert [(p.u, p.v) for p in sel] == [("a1", "x")]
            want = pair_similarity(measure, g, "a1", "x", ic_table=table)
            assert sel[0].selection_score == want
        assert sel[0].selection_score == 0.0
        # both pairs have a path, so shp keeps both records
        assert static_selection(records, g, "shp")[1] == 0

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(4)
        for seed in range(5):
            g = random_tree_graph(20, seed)
            records = []
            for r in range(8):
                c1 = tuple(rng.sample(g.ids, rng.randint(1, 4)))
                c2 = tuple(rng.sample(g.ids, rng.randint(1, 4)))
                records.append(LemmaPairRecord(f"u{r}", f"v{r}", float(r), c1, c2))
            for measure in ("shp", "lch", "wup"):
                got, got_ex = static_selection(records, g, measure)
                want, want_ex = brute_force_static(records, g, measure)
                assert got_ex == want_ex
                assert [(p.u, p.v) for p in got] == [(p.u, p.v) for p in want]
                for gp, wp in zip(got, want):
                    assert gp.selection_score == pytest.approx(wp.selection_score)


class TestDynamicSelection:
    def embedding(self, g, seed=0):
        rng = np.random.default_rng(seed)
        return EmbeddingMatrix(g.ids, rng.normal(size=(g.n, 6)))

    def test_picks_model_argmax(self):
        g = random_tree_graph(15, 2)
        m = self.embedding(g)
        rng = random.Random(7)
        records = [
            LemmaPairRecord(
                f"u{r}",
                f"v{r}",
                float(r),
                tuple(rng.sample(g.ids, 3)),
                tuple(rng.sample(g.ids, 3)),
            )
            for r in range(6)
        ]
        sel, excluded = dynamic_selection(records, ModelScorer(m, "dot"))
        assert excluded == 0
        for rec, pick in zip(records, sel):
            best = max(
                score(m, c1, c2, "dot")
                for c1 in rec.candidates1
                for c2 in rec.candidates2
            )
            assert pick.selection_score == pytest.approx(best)
            assert score(m, pick.u, pick.v, "dot") == pytest.approx(best)

    def test_dominates_static_choice_under_model_score(self):
        g = random_tree_graph(20, 3)
        m = self.embedding(g, seed=5)
        rng = random.Random(1)
        records = [
            LemmaPairRecord(
                f"u{r}",
                f"v{r}",
                float(r),
                tuple(rng.sample(g.ids, 3)),
                tuple(rng.sample(g.ids, 3)),
            )
            for r in range(8)
        ]
        dyn, _ = dynamic_selection(records, ModelScorer(m, "dot"))
        sta, _ = static_selection(records, g, "shp")
        for d, s in zip(dyn, sta):
            assert score(m, d.u, d.v) >= score(m, s.u, s.v) - 1e-12


class TestEvaluate:
    def setup_graph(self):
        g = random_tree_graph(25, 6)
        rng = random.Random(11)
        records = [
            LemmaPairRecord(
                f"u{r}",
                f"v{r}",
                float(rng.random()),
                tuple(rng.sample(g.ids, 2)),
                tuple(rng.sample(g.ids, 2)),
            )
            for r in range(10)
        ]
        return g, records

    def test_measure_scorer_self_correlation(self):
        g, records = self.setup_graph()
        scorer = MeasureScorer(g, "shp")
        report = evaluate(records, scorer, "static", g=g, measure="shp", golds="measure")
        assert report.spearman == pytest.approx(1.0)
        assert report.n_evaluated == len(records)
        assert report.scorer == "shp[raw]"
        assert report.golds == "measure"

    def test_human_golds_match_hand_computation(self):
        g, records = self.setup_graph()
        scorer = MeasureScorer(g, "shp")
        report = evaluate(records, scorer, "static", g=g, measure="shp")
        sel, _ = static_selection(records, g, "shp")
        expected = spearman(
            [scorer.grids([([p.u], [p.v])])[0][0, 0] for p in sel], [p.gold_score for p in sel]
        )
        assert report.spearman == pytest.approx(expected)

    def test_returns_predictions_of_selected_pairs(self):
        g, records = self.setup_graph()
        scorer = MeasureScorer(g, "shp")
        report = evaluate(records, scorer, "static", g=g, measure="shp")
        sel, _ = static_selection(records, g, "shp")
        assert report.predictions == [scorer.grids([([p.u], [p.v])])[0][0, 0] for p in sel]

    def test_record_order_does_not_matter(self):
        g, records = self.setup_graph()
        scorer = MeasureScorer(g, "shp")
        a = evaluate(records, scorer, "static", g=g, measure="shp")
        b = evaluate(records[::-1], scorer, "static", g=g, measure="shp")
        assert a.spearman == pytest.approx(b.spearman)

    def test_dynamic_with_model(self):
        g, records = self.setup_graph()
        m = train(
            build_full(g, DatasetConfig(measure="shp", seed=0)).pairs,
            g,
            TrainConfig(d=8, epochs=3, seed=0),
        )
        report = evaluate(records, ModelScorer(m), "dynamic")
        assert report.selection == "dynamic"
        assert report.scorer == "model[dot]"
        assert -1.0 <= report.spearman <= 1.0

    def test_config_errors(self):
        g, records = self.setup_graph()
        scorer = MeasureScorer(g, "shp")
        with pytest.raises(ConfigError):
            evaluate(records, scorer, "static")  # no graph/measure
        with pytest.raises(ConfigError):
            evaluate(records, scorer, "dynamic")  # measure scorer cannot select
        with pytest.raises(ConfigError):
            evaluate(records, scorer, "sideways", g=g, measure="shp")
        with pytest.raises(ConfigError):
            evaluate(records, scorer, "static", g=g, measure="shp", golds="oracle")

    def test_too_few_records(self):
        g, records = self.setup_graph()
        scorer = MeasureScorer(g, "shp")
        with pytest.raises(DataError, match="at least 3"):
            evaluate(records[:2], scorer, "static", g=g, measure="shp")


class TestMeasureScorerNormalization:
    def test_rescale_and_clip(self, star3):
        scorer = MeasureScorer(star3, "shp", norm_range=(0.4, 0.8))
        # raw shp(x, y) = 1/3 -> below range -> clips to 0
        assert scorer.grids([(["x"], ["y"])])[0][0, 0] == 0.0
        # raw shp(r, x) = 0.5 -> (0.5 - 0.4) / 0.4 = 0.25
        assert scorer.grids([(["r"], ["x"])])[0][0, 0] == pytest.approx(0.25)
        # raw shp(x, x) = 1.0 -> above range -> clips to 1
        assert scorer.grids([(["x"], ["x"])])[0][0, 0] == 1.0
        assert scorer.name == "shp[norm]"

    def test_degenerate_range_rejected(self, star3):
        with pytest.raises(DegenerateRangeError):
            MeasureScorer(star3, "shp", norm_range=(0.5, 0.5))
        with pytest.raises(DegenerateRangeError):
            MeasureScorer(star3, "shp", norm_range=(0.0, math.inf))

    def test_model_scorer_mode_validation(self):
        m = EmbeddingMatrix(["a"], np.zeros((1, 2)))
        with pytest.raises(ConfigError):
            ModelScorer(m, "manhattan")


class TestScorerGrids:
    """grid and pairs are the scoring entry points; cells match the per-pair references."""

    def test_model_grid_matches_score_oracle(self):
        rng = np.random.default_rng(3)
        ids = [f"n{i}" for i in range(9)]
        for dtype in (np.float32, np.float64):
            matrix = rng.normal(size=(9, 7)).astype(dtype)
            matrix[4] = 0.0
            m = EmbeddingMatrix(ids, matrix)
            us, vs = ids[:6], ids[2:] + ["n4", "n0"]
            for mode in ("dot", "cosine"):
                grid = ModelScorer(m, mode).grids([(us, vs)])[0]
                assert grid.shape == (len(us), len(vs)) and grid.dtype == np.float64
                for i, u in enumerate(us):
                    for j, v in enumerate(vs):
                        want = model_score_oracle(matrix, m.idx(u), m.idx(v), mode)
                        assert abs(grid[i, j] - want) <= 1e-12 * abs(want)
            assert ModelScorer(m, "cosine").grids([(["n4"], ids)])[0].tolist() == [[0.0] * 9]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 8),
        st.sampled_from([1, 2, 3, 7, 16, 33, 300]),
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from(["dot", "cosine"]),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_pairs_equal_grid_diagonal_and_oracle_bit_for_bit(self, n, d, dtype, mode, seed, data):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(n, d)).astype(dtype)
        matrix[rng.random(n) < 0.3] = 0.0  # zero rows
        ids = [f"n{i}" for i in range(n)]
        m = EmbeddingMatrix(ids, matrix)
        picks = st.lists(st.integers(0, n - 1), min_size=1, max_size=12)
        rows_u = data.draw(picks)  # repeated ids and self pairs come up often
        rows_v = data.draw(st.lists(st.integers(0, n - 1), min_size=len(rows_u), max_size=len(rows_u)))
        us, vs = [ids[i] for i in rows_u], [ids[j] for j in rows_v]
        scorer = ModelScorer(m, mode)
        pairs = scorer.pairs(us, vs)
        grid = scorer.grids([(us, vs)])[0]
        oracle = np.array([[model_score_oracle(matrix, i, j, mode) for j in rows_v] for i in rows_u])
        assert pairs.dtype == grid.dtype == np.float64
        assert pairs.tobytes() == np.diagonal(grid).tobytes() == np.diagonal(oracle).tobytes()
        assert grid.tobytes() == oracle.tobytes()
        with pytest.raises(DataError):  # a side of one is not broadcast
            scorer.pairs(us + us[:1], us[:1])

    @settings(max_examples=40, deadline=None, database=None)
    @given(g=block_graphs(), seed=st.integers(0, 3), d=st.sampled_from([1, 7, 300]), data=st.data())
    def test_grids_equal_one_grid_per_request_bit_for_bit(self, g, seed, d, data):
        # requests of few or more than BLOCK distinct ids, some repeated; either side may be empty
        ids = st.sampled_from(g.ids)
        many = st.lists(ids, unique=True, min_size=min(g.n, BLOCK + 1), max_size=min(g.n, BLOCK + 8))
        side = st.one_of(st.lists(ids, max_size=8), many.map(lambda xs: xs + xs[:3]))
        requests = data.draw(st.lists(st.tuples(side, st.lists(ids, max_size=6)), max_size=6))
        scorers = every_scorer(g, seed, d)  # model scorers (d wide) and measure scorers
        for scorer in scorers + [s.rows for s in scorers if isinstance(s, MeasureScorer) and s.norm_range is None]:  # NaN kept
            got = scorer.grids(requests)
            want = [scorer.grids([(us, vs)])[0] for us, vs in requests]
            assert [x.shape for x in got] == [x.shape for x in want] == [(len(us), len(vs)) for us, vs in requests]
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    @settings(max_examples=40, deadline=None, database=None)
    @given(g=block_graphs(), seed=st.integers(0, 3), count=st.sampled_from([0, 1, 5, BLOCK, 2 * BLOCK + 3]))
    def test_measure_pairs_equal_their_grid_cells_bit_for_bit(self, g, seed, count):
        # aligned pairs past one block, ids repeated on both sides and self pairs among them
        rng = np.random.default_rng(seed)
        us, vs = ([g.ids[i] for i in rng.integers(0, g.n, size=count).tolist()] for _ in range(2))
        for scorer in every_scorer(g, seed)[2:]:  # the measure scorers, raw and normalized
            got = scorer.pairs(us, vs)
            want = np.array([scorer.grids([([u], [v])])[0][0, 0] for u, v in zip(us, vs)], dtype=np.float64)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            with pytest.raises(UnknownNodeError):
                scorer.pairs([g.ids[0], "zzz"], [g.ids[0], g.ids[0]])
            with pytest.raises(DataError):  # a side of one is not broadcast
                scorer.pairs([g.ids[0]] * 2, [g.ids[0]])

    def test_model_grid_unknown_id(self):
        m = EmbeddingMatrix(["a", "b"], np.ones((2, 3)))
        scorer = ModelScorer(m)
        assert scorer.has("a") and not scorer.has("zzz")
        with pytest.raises(UnknownNodeError):
            scorer.grids([(["a"], ["b", "zzz"])])[0]

    def test_measure_grid_matches_pair_similarity(self):
        g = random_dag_graph(30, 5, extra=9)
        raw_counts = [float((7 * i) % 5) for i in range(g.n)]  # some nodes unobserved
        table = propagate_counts(g, raw_counts)
        us, vs = g.ids[::3] + g.ids[:4], g.ids[1::4] + g.ids[::9]  # repeats, self pairs
        for measure in ("shp", "lch", "wup", "jcn"):
            want = np.array(
                [[pair_similarity(measure, g, u, v, ic_table=table) for v in vs] for u in us]
            )
            raw = MeasureScorer(g, measure, ic_table=table).grids([(us, vs)])[0]
            assert np.array_equal(raw, want)
            if measure == "jcn":  # unobserved endpoints score 0.0, collapsed distances inf
                assert (raw == 0.0).any() and np.isinf(raw).any()
            finite = want[np.isfinite(want)]
            lo, hi = np.percentile(finite, 25), np.percentile(finite, 75)
            norm = MeasureScorer(g, measure, ic_table=table, norm_range=(lo, hi)).grids([(us, vs)])[0]
            clipped = [[max(0.0, min(1.0, (x - lo) / (hi - lo))) for x in row] for row in want]
            assert norm.tolist() == clipped
            assert 0.0 < norm.mean() < 1.0

    def test_measure_grid_unknown_id(self, star3):
        scorer = MeasureScorer(star3, "shp")
        assert scorer.has("x") and not scorer.has("zzz")
        with pytest.raises(UnknownNodeError):
            scorer.grids([(["x", "zzz"], ["y"])])[0]


class TestScoreHistogram:
    def test_counts_and_edges(self):
        rows = score_histogram([0.05, 0.5, 0.95, 1.0], bins=2)
        assert rows == [(0.0, 0.5, 1), (0.5, 1.0, 3)]

    def test_out_of_range_clamps(self):
        rows = score_histogram([-5.0, 2.0, 0.3], bins=4)
        assert rows[0][2] == 1
        assert rows[-1][2] == 1
        assert sum(c for _, _, c in rows) == 3

    def test_bad_bins(self):
        with pytest.raises(ConfigError):
            score_histogram([0.5], bins=0)
