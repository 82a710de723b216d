"""Graph-centrality word sense disambiguation.

Every candidate sense of every token in a sentence becomes a node (a
sense listed twice for one token is one node); edges connect candidates
of different tokens whenever a scorer rates the pair strictly above a
threshold. Each token then takes its candidate with the highest weighted
degree (sum of incident edge weights); ties, including the no-edges
case, fall back to the first listed candidate, which is the most
frequent sense when lists are frequency-ordered.

Scoring and thresholding are separate steps: score_sentences scores a
whole run with one `grids` call of the scorer (see evaluation), one square
grid per sentence over its candidates that the scorer `has`, and
RunScores.degrees sums the weights above a threshold of every sentence
with one bincount, so a threshold sweep scores each sentence once.
score_sentence and SentenceScores are the same for one sentence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, RecordError
from .evaluation import MeasureScorer, ModelScorer
from .graph import spans
from .io import atomic_write, natural, paragraphs


class Token(NamedTuple):
    index: int
    lemma: str
    candidates: tuple[str, ...]
    gold: str | None


@dataclass(frozen=True)
class SentenceInstance:
    instance_id: str
    tokens: tuple[Token, ...]


@dataclass
class WsdConfig:
    """Scoring threshold and the pair scorer that weighs candidate edges.

    The 0.95 default assumes scores on a [0,1] scale (an embedding model,
    or a graph measure rescaled with dataset normalization constants); a
    raw-scale measure scorer may use any threshold.
    """

    scorer: MeasureScorer | ModelScorer
    threshold: float = 0.95

    def __post_init__(self) -> None:
        if math.isnan(self.threshold):
            raise ConfigError("threshold must be a number, got nan")
        normalized = isinstance(self.scorer, MeasureScorer) and self.scorer.norm_range
        if normalized and not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(
                f"threshold {self.threshold!r} outside [0,1] for a normalized scorer"
            )


GraphNode = tuple[int, str]  # (token index, candidate id); a candidate listed twice for a token is one node


def _degrees(pairs: np.ndarray, weights: np.ndarray, threshold: float, nodes: int) -> list[float]:
    """Each of `nodes` nodes' sum of the weights strictly above `threshold`
    of the pairs it ends, added in pair order from 0.0 by one bincount."""
    keep = weights > threshold
    degree = np.bincount(pairs[keep].ravel(), np.repeat(weights[keep], 2), minlength=nodes)
    return degree.astype(np.float64, copy=False).tolist()  # no pair kept: bincount gives int zeros


@dataclass
class SentenceScores:
    """A sentence's scored cross-token pairs: `pairs` index the distinct
    `nodes` in (token a, token b, candidate of a, candidate of b) order
    with a before b."""

    nodes: list[GraphNode]
    pairs: np.ndarray
    weights: np.ndarray
    skipped_pairs: int

    def degrees(self, threshold: float) -> dict[GraphNode, float]:
        """Each node's sum of the weights strictly above `threshold`, summed
        in pair order."""
        return dict(zip(self.nodes, _degrees(self.pairs, self.weights, threshold, len(self.nodes))))


@dataclass
class RunScores:
    """The SentenceScores of a run of sentences in run-wide arrays: sentence
    k owns nodes[starts[k]:starts[k + 1]] and the rows
    pair_starts[k]:pair_starts[k + 1] of `pairs` (run-wide node indices)
    and `weights`, and skipped[k] pairs."""

    nodes: list[GraphNode]
    starts: list[int]
    pairs: np.ndarray
    weights: np.ndarray
    pair_starts: list[int]
    skipped: list[int]

    def sentence(self, k: int) -> SentenceScores:
        first, (lo, hi) = self.starts[k], self.pair_starts[k : k + 2]
        return SentenceScores(self.nodes[first : self.starts[k + 1]], self.pairs[lo:hi] - first,
                              self.weights[lo:hi], self.skipped[k])

    def degrees(self, threshold: float) -> list[dict[GraphNode, float]]:
        """SentenceScores.degrees of every sentence, from one bincount."""
        degree = _degrees(self.pairs, self.weights, threshold, len(self.nodes))
        return [dict(zip(self.nodes[a:b], degree[a:b])) for a, b in zip(self.starts, self.starts[1:])]


def score_sentence(inst: SentenceInstance, scorer: MeasureScorer | ModelScorer) -> SentenceScores:
    """score_sentences of the one sentence."""
    return score_sentences([inst], scorer).sentence(0)


def score_sentences(
    instances: Sequence[SentenceInstance], scorer: MeasureScorer | ModelScorer
) -> RunScores:
    """Each sentence's cross-token pairs scored from one scorer grid over
    its distinct known candidates, all grids from one `grids` call; a pair
    with a candidate the scorer does not have is left out and counted as
    skipped. A candidate listed twice for one token is scored once, at its
    first place, so the listing cannot weigh a partner's degree.

    A slot is a token with candidates, holding its distinct ones. After
    one pass over the tokens, the pairs are enumerated run-wide: each slot
    against the later slots of its sentence, then each such slot pair's
    candidates, a-major, which is SentenceScores' pair order.
    """
    nodes: list[GraphNode] = []
    starts = [0]  # each sentence's first node
    sizes: list[int] = []  # distinct candidates per slot
    ends: list[int] = []  # per slot, the slot past its sentence's last one
    pos: list[int] = []  # each node's place in its sentence's known candidates, -1 if unknown
    knowns: list[list[str]] = []
    for inst in instances:
        col: dict[str, int] = {}
        first = len(sizes)
        for tok in inst.tokens:
            if tok.candidates:
                cands = dict.fromkeys(tok.candidates)
                sizes.append(len(cands))
                for cand in cands:
                    nodes.append((tok.index, cand))
                    if cand not in col and scorer.has(cand):
                        col[cand] = len(col)
                    pos.append(col.get(cand, -1))
        ends.extend([len(sizes)] * (len(sizes) - first))
        starts.append(len(nodes))
        knowns.append(list(col))

    size = np.array(sizes, dtype=np.int64)
    slot = np.arange(len(size))
    later = np.array(ends, dtype=np.int64) - slot - 1  # partner slots of each slot
    sa = np.repeat(slot, later)
    sb = spans(slot + 1, later)
    cells = size[sa] * size[sb]
    i, j = np.divmod(spans(np.zeros_like(cells), cells), np.repeat(size[sb], cells))
    lead = np.cumsum(size) - size  # each slot's first node
    a, b = np.repeat(lead[sa], cells) + i, np.repeat(lead[sb], cells) + j

    grids = scorer.grids([(known, known) for known in knowns])
    width = np.array([len(known) for known in knowns], dtype=np.int64)
    corner = np.cumsum(width * width) - width * width  # each grid's first cell in `flat`
    flat = np.concatenate([np.empty(0), *(grid.ravel() for grid in grids)])
    owner = np.repeat(np.arange(len(instances)), np.diff(starts))[a]  # each pair's sentence
    total = np.bincount(owner, minlength=len(instances))
    place = np.array(pos, dtype=np.int64)
    place_a, place_b = place[a], place[b]
    scored = (place_a >= 0) & (place_b >= 0)
    a, b, place_a, place_b, owner = (x[scored] for x in (a, b, place_a, place_b, owner))
    weights = flat[corner[owner] + place_a * width[owner] + place_b]
    kept = np.bincount(owner, minlength=len(instances))
    return RunScores(nodes, starts, np.column_stack((a, b)), weights, [0, *np.cumsum(kept).tolist()],
                     (total - kept).tolist())


def select_senses(degrees: Mapping[GraphNode, float], inst: SentenceInstance) -> dict[int, str]:
    """Chosen candidate per token index, by maximal weighted degree.

    Only a strictly higher degree displaces an earlier candidate, so ties
    (and nodes without degree) resolve to the first listed sense. Tokens
    without candidates are absent from the result.
    """
    return {  # max keeps the first of equal keys
        tok.index: max(tok.candidates, key=lambda cand: degrees.get((tok.index, cand), 0.0))
        for tok in inst.tokens
        if tok.candidates
    }


def disambiguate(
    instances: list[SentenceInstance], cfg: WsdConfig
) -> tuple[list[dict[int, str]], int]:
    """Predictions per instance plus the count of scorer-skipped pairs."""
    return disambiguate_sweep(instances, cfg.scorer, [cfg.threshold])[0]


def disambiguate_sweep(
    instances: list[SentenceInstance],
    scorer: MeasureScorer | ModelScorer,
    thresholds: Sequence[float],
) -> list[tuple[list[dict[int, str]], int]]:
    """disambiguate at every threshold in turn, scoring each sentence once."""
    cfgs = [WsdConfig(scorer, t) for t in thresholds]  # validates every threshold first
    scored = score_sentences(instances, scorer)
    skipped = sum(scored.skipped)
    return [
        ([select_senses(degree, inst) for degree, inst in zip(scored.degrees(cfg.threshold), instances)], skipped)
        for cfg in cfgs
    ]


def random_sense_baseline(
    instances: list[SentenceInstance], seed: int
) -> list[dict[int, str]]:
    """Uniform random candidate per token, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    out: list[dict[int, str]] = []
    for inst in instances:
        choice: dict[int, str] = {}
        for tok in inst.tokens:
            if tok.candidates:
                choice[tok.index] = tok.candidates[int(rng.integers(len(tok.candidates)))]
        out.append(choice)
    return out


def first_sense_baseline(instances: list[SentenceInstance]) -> list[dict[int, str]]:
    """First listed candidate per token: select_senses with every candidate tied."""
    return [select_senses({}, inst) for inst in instances]


@dataclass
class WsdScore:
    precision: float
    recall: float
    f1: float
    attempted: int
    correct: int
    total_gold: int


def micro_f1(
    predictions: list[Mapping[int, str]], golds: list[Mapping[int, str]]
) -> WsdScore:
    """Micro-averaged precision/recall/F1 over gold-tagged tokens.

    precision = correct/attempted, recall = correct/gold-tagged; only
    gold-tagged tokens count as attempted. A system that answers every
    gold-tagged token gets precision = recall = F1 = accuracy. With zero
    attempts all three are 0 and a warning is issued.
    """
    if len(predictions) != len(golds):
        raise DataError(
            f"prediction/gold length mismatch: {len(predictions)} vs {len(golds)}"
        )
    attempted = correct = total_gold = 0
    for pred, gold in zip(predictions, golds):
        for tok_idx, gold_sense in gold.items():
            total_gold += 1
            if tok_idx in pred:
                attempted += 1
                if pred[tok_idx] == gold_sense:
                    correct += 1
    if attempted == 0:
        warnings.warn("no predictions on gold-tagged tokens; scores are 0")
        return WsdScore(0.0, 0.0, 0.0, 0, 0, total_gold)
    precision = correct / attempted
    recall = correct / total_gold if total_gold else 0.0
    f1 = 0.0
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    return WsdScore(precision, recall, f1, attempted, correct, total_gold)


def gold_maps(instances: list[SentenceInstance]) -> list[dict[int, str]]:
    """Token index to gold sense, per instance, skipping untagged tokens."""
    return [
        {tok.index: tok.gold for tok in inst.tokens if tok.gold is not None}
        for inst in instances
    ]


def load_instances(path: str | Path) -> list[SentenceInstance]:
    """Read the token-per-line instance format (see taxovec.io).

    Lines are `sentence_id<TAB>token_index<TAB>lemma<TAB>candidates<TAB>gold`
    with comma-separated candidates; `-` marks no candidates or no gold.
    A blank line ends the current sentence.
    """
    instances: list[SentenceInstance] = []
    for sentence in paragraphs(path, "sentence_id<TAB>token_index<TAB>lemma<TAB>candidates<TAB>gold"):
        sent_id = sentence[0][1][0]
        tokens: dict[int, Token] = {}
        for where, (sid, tok_idx_s, lemma, cand_s, gold_s) in sentence:
            tok_idx = natural(tok_idx_s, where, "token index")
            if sid != sent_id:
                raise RecordError(
                    f"{where}: sentence id changed without a blank line ({sent_id!r} -> {sid!r})"
                )
            if tok_idx in tokens:
                raise RecordError(f"{where}: duplicate token index {tok_idx}")
            candidates = () if cand_s == "-" else tuple(c.strip() for c in cand_s.split(",") if c.strip())
            tokens[tok_idx] = Token(tok_idx, lemma, candidates, None if gold_s == "-" else gold_s)
        instances.append(SentenceInstance(sent_id, tuple(tokens.values())))
    return instances


def write_predictions(
    path: str | Path,
    instances: list[SentenceInstance],
    predictions: list[Mapping[int, str]],
) -> None:
    """Mirror the instance format with the chosen sense in the last column."""
    if len(instances) != len(predictions):
        raise DataError(
            f"instance/prediction length mismatch: {len(instances)} vs {len(predictions)}"
        )
    with atomic_write(path) as fh:
        for k, (inst, pred) in enumerate(zip(instances, predictions)):
            if k:
                fh.write("\n")
            for tok in inst.tokens:
                cand_s = ",".join(tok.candidates) if tok.candidates else "-"
                chosen = pred.get(tok.index, "-")
                fh.write(
                    f"{inst.instance_id}\t{tok.index}\t{tok.lemma}\t{cand_s}\t{chosen}\n"
                )
