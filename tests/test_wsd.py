"""Sense disambiguation tests: sentence graphs, selection, scoring, file IO."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxovec.errors import ConfigError, DataError, UnknownNodeError
from taxovec.evaluation import MeasureScorer
from taxovec.wsd import (
    SentenceInstance,
    Token,
    WsdConfig,
    disambiguate,
    disambiguate_sweep,
    first_sense_baseline,
    gold_maps,
    load_instances,
    micro_f1,
    random_sense_baseline,
    score_sentences,
    write_predictions,
)

from conftest import block_graphs, every_scorer, graphs
from oracles import sentence_degrees_oracle, sentence_picks_oracle, sentence_scores_oracle, wsd_degree_oracle


class StubScorer:
    """Symmetric lookup-table scorer; candidates marked `missing` raise."""

    name = "stub"

    def __init__(self, table, default=0.0, missing=()):
        self.table = {frozenset(k): v for k, v in table.items()}
        self.default = default
        self.missing = set(missing)

    def has(self, node):
        return node not in self.missing

    def grids(self, requests):
        for node in (node for us, vs in requests for node in (*us, *vs)):
            if node in self.missing:
                raise UnknownNodeError(f"no such node {node!r}")
        return [
            np.array([self.table.get(frozenset((u, v)), self.default) for u in us for v in vs],
                     dtype=np.float64).reshape(len(us), len(vs))
            for us, vs in requests
        ]


def sentence(*tokens):
    return SentenceInstance("s1", tuple(Token(*t) for t in tokens))


def degree_of(run, threshold):
    """A one-sentence run's degrees by (token index, candidate)."""
    return dict(zip(run.nodes, run.degrees(threshold).tolist()))


class TestBuildSentenceGraph:
    def test_single_edge_above_threshold(self):
        inst = sentence((0, "cat", ("A",), None), (1, "dog", ("B",), None))
        scores = score_sentences([inst], StubScorer({("A", "B"): 0.99}))
        degree = degree_of(scores, 0.95)
        assert np.count_nonzero(scores.weights > 0.95) == 1
        assert degree[(0, "A")] == pytest.approx(0.99)
        assert degree[(1, "B")] == pytest.approx(0.99)

    def test_below_and_at_threshold_excluded(self):
        inst = sentence((0, "cat", ("A",), None), (1, "dog", ("B",), None))
        for w in (0.5, 0.95):
            scores = score_sentences([inst], StubScorer({("A", "B"): w}))
            assert np.count_nonzero(scores.weights > 0.95) == 0
            assert degree_of(scores, 0.95)[(0, "A")] == 0.0

    def test_no_intra_token_edges(self):
        inst = sentence((0, "bank", ("A", "B"), None))
        scores = score_sentences([inst], StubScorer({("A", "B"): 1.0}))
        assert np.count_nonzero(scores.weights > 0.5) == 0
        assert degree_of(scores, 0.5) == {(0, "A"): 0.0, (0, "B"): 0.0}

    def test_degrees_accumulate_across_tokens(self):
        inst = sentence(
            (0, "x", ("A1", "A2"), None), (1, "y", ("B1", "B2"), None)
        )
        scorer = StubScorer(
            {("A1", "B1"): 0.96, ("A2", "B1"): 0.96, ("A2", "B2"): 0.97}
        )
        degree = degree_of(score_sentences([inst], scorer), 0.95)
        assert degree[(0, "A1")] == pytest.approx(0.96)
        assert degree[(0, "A2")] == pytest.approx(1.93)
        assert degree[(1, "B1")] == pytest.approx(1.92)
        assert degree[(1, "B2")] == pytest.approx(0.97)

    def test_scorer_failures_skipped_and_counted(self):
        inst = sentence(
            (0, "x", ("A", "GONE"), None), (1, "y", ("B",), None)
        )
        scorer = StubScorer({("A", "B"): 0.99}, missing={"GONE"})
        scores = score_sentences([inst], scorer)
        assert scores.skipped == 1
        assert np.count_nonzero(scores.weights > 0.9) == 1

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(2)
        cands = [f"c{k}" for k in range(6)]
        inst = sentence(
            (0, "t0", tuple(cands[:3]), None), (1, "t1", tuple(cands[3:]), None)
        )
        table = {
            (a, b): float(rng.random()) for a in cands[:3] for b in cands[3:]
        }
        scores = score_sentences([inst], StubScorer(table))
        prev = None
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
            edges = set(map(tuple, scores.pairs[scores.weights > threshold].tolist()))
            if prev is not None:
                assert edges <= prev
            prev = edges


class TestSelectSenses:
    def test_highest_degree_wins(self):
        inst = sentence(
            (0, "x", ("A1", "A2"), None), (1, "y", ("B1", "B2"), None)
        )
        scorer = StubScorer(
            {("A1", "B1"): 0.96, ("A2", "B1"): 0.96, ("A2", "B2"): 0.97}
        )
        assert score_sentences([inst], scorer).picks(0.95) == [{0: "A2", 1: "B1"}]

    def test_no_edges_falls_back_to_first_candidate(self):
        inst = sentence((0, "x", ("A1", "A2"), None), (1, "y", ("B1",), None))
        assert score_sentences([inst], StubScorer({})).picks(0.95) == [{0: "A1", 1: "B1"}]

    def test_degree_tie_keeps_earlier_candidate(self):
        inst = sentence(
            (0, "x", ("A1", "A2"), None), (1, "y", ("B",), None)
        )
        scorer = StubScorer({("A1", "B"): 0.99, ("A2", "B"): 0.99})
        assert score_sentences([inst], scorer).picks(0.9)[0][0] == "A1"

    def test_tokens_without_candidates_absent(self):
        inst = sentence((0, "x", (), None), (1, "y", ("B",), None))
        assert score_sentences([inst], StubScorer({})).picks(0.9) == [{1: "B"}]

    def test_candidate_order_breaks_ties(self):
        scorer = StubScorer({})
        for order in (("A1", "A2"), ("A2", "A1")):
            inst = sentence((0, "x", order, None))
            assert score_sentences([inst], scorer).picks(0.9)[0][0] == order[0]

    def test_a_candidate_listed_twice_counts_once(self):
        # listed twice, A would count twice in B's degree: 1.2 against C's 1.0
        scorer = StubScorer({("A", "B"): 0.6, ("C", "D"): 1.0})
        for x in (("A",), ("A", "A")):
            inst = sentence((0, "x", x, None), (1, "y", ("C", "B"), None), (2, "z", ("D",), None))
            scores = score_sentences([inst], scorer)
            assert degree_of(scores, 0.5) == {(0, "A"): 0.6, (1, "C"): 1.0, (1, "B"): 0.6, (2, "D"): 1.0}
            assert len(scores.weights) == 5
            assert disambiguate([inst], WsdConfig(scorer, threshold=0.5)) == ([{0: "A", 1: "C", 2: "D"}], 0)


POOL = ("c0", "c1", "c2", "c3", "GONE")  # few ids, so they repeat within and across tokens


@st.composite
def scored_sentences(draw):
    """A sentence of up to 5 tokens, some without candidates, over POOL; a
    symmetric table of weights; and a threshold, often equal to a weight."""
    tokens = tuple(
        Token(k, f"t{k}", tuple(draw(st.lists(st.sampled_from(POOL), max_size=4))), None)
        for k in range(draw(st.integers(0, 5)))
    )
    weight = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    table = {(u, v): draw(weight) for k, u in enumerate(POOL) for v in POOL[k:]}
    threshold = draw(st.one_of(st.sampled_from(sorted(set(table.values()))), st.floats(-0.5, 1.5)))
    return SentenceInstance("s", tokens), table, threshold


@settings(max_examples=300, deadline=None, database=None)
@given(scored_sentences())
def test_degrees_and_picks_match_the_reference(case):
    inst, table, threshold = case
    scorer = StubScorer(table, missing={"GONE"})
    weight = lambda u, v: None if "GONE" in (u, v) else table.get((u, v), table.get((v, u)))  # noqa: E731
    want_degree, want_picks, want_skipped = wsd_degree_oracle(
        [(tok.index, tok.candidates) for tok in inst.tokens], weight, threshold
    )
    scores = score_sentences([inst], scorer)
    degree = degree_of(scores, threshold)
    assert {k: v.hex() for k, v in degree.items()} == {k: v.hex() for k, v in want_degree.items()}
    assert scores.picks(threshold) == [want_picks]
    assert scores.skipped == want_skipped
    assert disambiguate([inst], WsdConfig(scorer, threshold)) == ([want_picks], want_skipped)


@settings(max_examples=60, deadline=None, database=None)
@given(g=st.one_of(graphs, block_graphs()), seed=st.integers(0, 3), data=st.data())
def test_a_run_scores_as_its_sentences_one_by_one(g, seed, data):
    # up to 4 sentences of up to 5 tokens over a few of g's nodes and one it
    # lacks, so candidates repeat within and across tokens and sentences;
    # then, if drawn, two hand-built ones that repeat a token index
    pool = data.draw(st.lists(st.sampled_from(g.ids), min_size=1, max_size=6), label="pool") + ["GONE"]
    instances = [
        SentenceInstance(f"s{k}", tuple(
            Token(t, f"t{t}", tuple(data.draw(st.lists(st.sampled_from(pool), max_size=4))), None)
            for t in range(data.draw(st.integers(0, 5)))
        ))
        for k in range(data.draw(st.integers(0, 4), label="sentences"))
    ]
    if data.draw(st.booleans(), label="repeats"):
        instances += [
            SentenceInstance("r0", (Token(0, "a", (pool[-1], pool[0]), None), Token(0, "b", tuple(pool[:2]), None))),
            SentenceInstance("r1", (Token(1, "a", tuple(pool[:3]), None), Token(2, "b", (pool[0],), None),
                                    Token(1, "c", (pool[-1], *pool[:2]), None), Token(1, "d", (), None))),
        ]
    firsts, at = [], 0  # each token's first node, run-wide
    for inst in instances:
        for tok in inst.tokens:
            if tok.candidates:
                firsts.append(at)
                at += len(set(tok.candidates))
    for scorer in every_scorer(g, seed):
        run = score_sentences(instances, scorer)
        want = [sentence_scores_oracle(inst, scorer) for inst in instances]
        assert run.starts == np.cumsum([0, *(len(nodes) for nodes, *_ in want)]).tolist()
        assert run.nodes == [node for nodes, *_ in want for node in nodes] and run.slots.tolist() == firsts
        offset = [pairs + first for (_, pairs, _, _), first in zip(want, run.starts)]
        assert run.pairs.tolist() == np.concatenate([np.empty((0, 2), dtype=np.int64), *offset]).tolist()
        assert run.weights.tobytes() == np.concatenate([np.empty(0), *(weights for _, _, weights, _ in want)]).tobytes()
        assert run.skipped == sum(case[3] for case in want)
        cells = run.weights
        thresholds = [0.0, 0.5, *np.unique(cells[np.isfinite(cells)])[:3].tolist()]  # some equal to a weight
        sweep = disambiguate_sweep(instances, scorer, thresholds)
        for t, (picks, skipped) in zip(thresholds, sweep):
            degrees = [sentence_degrees_oracle(*case[:3], t) for case in want]
            assert [x.hex() for x in run.degrees(t).tolist()] == [x.hex() for d in degrees for x in d]
            assert picks == run.picks(t) == [sentence_picks_oracle(inst, d) for d, inst in zip(degrees, instances)]
            assert skipped == run.skipped
        assert first_sense_baseline(instances) == run.picks(math.inf)


def test_an_empty_run_picks_nothing(star3):
    for scorer in (MeasureScorer(star3, "shp"), MeasureScorer(star3, "wup")):
        run = score_sentences([], scorer)
        assert run.starts == [0] and run.nodes == [] and run.skipped == 0
        assert run.degrees(0.5).tolist() == [] and run.picks(0.5) == run.picks(math.inf) == []
        assert disambiguate_sweep([], scorer, [0.0, 0.5]) == [([], 0)] * 2
        assert first_sense_baseline([]) == []


class TestDisambiguate:
    def test_end_to_end_with_measure_scorer(self, star3):
        scorer = MeasureScorer(star3, "shp")
        inst = sentence(
            (0, "first", ("x", "r"), "x"), (1, "second", ("y",), "y")
        )
        # shp: (x,y)=1/3, (r,y)=1/2 -> with threshold 0.4 only (r,y) connects
        preds, skipped = disambiguate([inst], WsdConfig(scorer, threshold=0.4))
        assert skipped == 0
        assert preds == [{0: "r", 1: "y"}]
        # with threshold 0.3 both edges exist; x ties r at 1/3 < 1/2 -> still r
        preds, _ = disambiguate([inst], WsdConfig(scorer, threshold=0.3))
        assert preds == [{0: "r", 1: "y"}]

    def test_skipped_pairs_aggregate(self):
        insts = [
            sentence((0, "x", ("A", "GONE"), None), (1, "y", ("B",), None)),
            sentence((0, "x", ("GONE",), None), (1, "y", ("B",), None)),
        ]
        scorer = StubScorer({("A", "B"): 0.99}, missing={"GONE"})
        preds, skipped = disambiguate(insts, WsdConfig(scorer, threshold=0.9))
        assert skipped == 2
        assert preds[0] == {0: "A", 1: "B"}


class CountingScorer(StubScorer):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.grids_calls = self.requests = 0

    def grids(self, requests):
        self.grids_calls += 1
        self.requests += len(requests)
        return super().grids(requests)


class TestSweep:
    def test_scores_each_sentence_once(self):
        rng = np.random.default_rng(5)
        cands = [f"c{k}" for k in range(9)]
        table = {(a, b): float(rng.random()) for a in cands for b in cands if a < b}
        insts = [
            sentence(
                (0, "x", tuple(cands[:3]), None),
                (1, "y", tuple(cands[3:6]), None),
                (2, "z", (*cands[6:], "GONE"), None),
            ),
            sentence((0, "x", ("c1", "c8"), None), (1, "y", (), None), (2, "z", ("c4", "c1"), None)),
        ]
        thresholds = (0.2, 0.5, 0.8)
        scorer = CountingScorer(table, missing={"GONE"})
        results = disambiguate_sweep(insts, scorer, thresholds)
        assert (scorer.grids_calls, scorer.requests) == (1, len(insts))  # one grids call of a grid per sentence
        for t, result in zip(thresholds, results):
            assert result == disambiguate(insts, WsdConfig(scorer, threshold=t))
        assert results[0][1] == 6  # GONE against every candidate of tokens 0 and 1
        assert results[0][0] != results[2][0]  # the thresholds do differ

    def test_normalized_scorer_rejects_any_out_of_range_threshold(self, star3):
        scorer = MeasureScorer(star3, "shp", norm_range=(0.2, 1.0))
        inst = sentence((0, "x", ("x",), None), (1, "y", ("y",), None))
        with pytest.raises(ConfigError, match="outside"):
            disambiguate_sweep([inst], scorer, (0.5, 1.5))


class TestBaselines:
    def test_first_sense(self):
        insts = [sentence((0, "x", ("A1", "A2"), None), (1, "y", (), None))]
        assert first_sense_baseline(insts) == [{0: "A1"}]

    def test_random_seeded_reproducible(self):
        insts = [
            sentence((k, f"t{k}", (f"a{k}", f"b{k}", f"c{k}"), None))
            for k in range(20)
        ]
        a = random_sense_baseline(insts, seed=3)
        b = random_sense_baseline(insts, seed=3)
        c = random_sense_baseline(insts, seed=4)
        assert a == b
        assert a != c

    def test_random_accuracy_near_uniform_chance(self):
        tokens = tuple(
            Token(k, f"t{k}", (f"g{k}", f"x{k}", f"y{k}"), f"g{k}")
            for k in range(3000)
        )
        insts = [SentenceInstance("big", tokens)]
        preds = random_sense_baseline(insts, seed=0)
        s = micro_f1(preds, gold_maps(insts))
        assert s.precision == pytest.approx(1 / 3, abs=0.03)
        assert s.precision == s.recall == s.f1


class TestMicroF1:
    def test_all_correct(self):
        preds = [{0: "A", 1: "B"}]
        golds = [{0: "A", 1: "B"}]
        s = micro_f1(preds, golds)
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)
        assert (s.attempted, s.correct, s.total_gold) == (2, 2, 2)

    def test_partial_coverage_lowers_recall(self):
        preds = [{0: "A"}]
        golds = [{0: "A", 1: "B"}]
        s = micro_f1(preds, golds)
        assert s.precision == 1.0
        assert s.recall == 0.5
        assert s.f1 == pytest.approx(2 / 3)

    def test_untagged_tokens_do_not_count(self):
        preds = [{0: "A", 5: "whatever"}]  # token 5 has no gold
        golds = [{0: "A"}]
        s = micro_f1(preds, golds)
        assert (s.attempted, s.correct, s.total_gold) == (1, 1, 1)
        assert s.f1 == 1.0

    def test_zero_attempted_warns(self):
        with pytest.warns(UserWarning, match="no predictions"):
            s = micro_f1([{}], [{0: "A"}])
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)
        assert s.total_gold == 1

    def test_full_coverage_collapses_to_accuracy(self):
        preds = [{0: "A", 1: "X", 2: "C"}]
        golds = [{0: "A", 1: "B", 2: "C"}]
        s = micro_f1(preds, golds)
        assert s.precision == s.recall == s.f1 == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            micro_f1([{}, {}], [{}])


class TestConfig:
    def test_normalized_scorer_threshold_range(self, star3):
        normalized = MeasureScorer(star3, "shp", norm_range=(0.2, 0.8))
        with pytest.raises(ConfigError):
            WsdConfig(normalized, threshold=1.5)
        raw = MeasureScorer(star3, "shp")
        WsdConfig(raw, threshold=1.5)  # raw scale: any threshold goes

    def test_nan_threshold_is_a_config_error(self, star3):
        # NaN keeps no edge, which would silently give every token its first sense
        for norm_range in (None, (0.2, 0.8)):
            with pytest.raises(ConfigError, match="nan"):
                WsdConfig(MeasureScorer(star3, "shp", norm_range=norm_range), threshold=float("nan"))


class TestInstanceIO:
    SAMPLE = (
        "# corpus sample\n"
        "s1\t0\tcat\tn01,n02\tn01\n"
        "s1\t1\tthe\t-\t-\n"
        "s1\t2\tdog\tn03\t-\n"
        "\n"
        "s2\t0\trun\tn04, n05\tn05\n"
    )

    def test_load(self, tmp_path):
        p = tmp_path / "inst.tsv"
        p.write_text(self.SAMPLE)
        insts = load_instances(p)
        assert [i.instance_id for i in insts] == ["s1", "s2"]
        t0 = insts[0].tokens[0]
        assert t0 == Token(0, "cat", ("n01", "n02"), "n01")
        assert insts[0].tokens[1].candidates == ()
        assert insts[0].tokens[1].gold is None
        assert insts[1].tokens[0].candidates == ("n04", "n05")

    def test_utf8_bom_skipped(self, tmp_path):
        # the BOM sits right before the first sentence id
        plain, bom = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
        body = self.SAMPLE.split("\n", 1)[1]
        plain.write_text(body, encoding="utf-8")
        bom.write_text("\ufeff" + body, encoding="utf-8")
        assert load_instances(bom) == load_instances(plain)

    def test_round_trip_via_predictions(self, tmp_path):
        src = tmp_path / "inst.tsv"
        src.write_text(self.SAMPLE)
        insts = load_instances(src)
        preds = first_sense_baseline(insts)
        out = tmp_path / "preds.tsv"
        write_predictions(out, insts, preds)
        lines = out.read_text().splitlines()
        assert lines[0] == "s1\t0\tcat\tn01,n02\tn01"
        assert lines[1] == "s1\t1\tthe\t-\t-"
        assert lines[3] == ""
        assert lines[4] == "s2\t0\trun\tn04,n05\tn04"
        # the output is itself a loadable instance file
        reloaded = load_instances(out)
        assert [i.instance_id for i in reloaded] == ["s1", "s2"]

    def test_gold_maps(self, tmp_path):
        p = tmp_path / "inst.tsv"
        p.write_text(self.SAMPLE)
        insts = load_instances(p)
        assert gold_maps(insts) == [{0: "n01"}, {0: "n05"}]

    def test_load_errors(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("s1\t0\tcat\tn01\n")
        with pytest.raises(DataError, match="5 tab-separated"):
            load_instances(p)
        p.write_text("s1\tzero\tcat\tn01\tn01\n")
        with pytest.raises(DataError, match="bad token index"):
            load_instances(p)
        p.write_text("s1\t0\tcat\tn01\tn01\ns2\t1\tdog\tn02\t-\n")
        with pytest.raises(DataError, match="sentence id changed"):
            load_instances(p)
        p.write_text("s1\t0\tcat\tn01\tn01\ns1\t0\tdog\tn02\t-\n")
        with pytest.raises(DataError, match="duplicate token index"):
            load_instances(p)

    def test_write_length_mismatch(self, tmp_path):
        insts = [sentence((0, "x", ("A",), None))]
        with pytest.raises(DataError):
            write_predictions(tmp_path / "p.tsv", insts, [])
