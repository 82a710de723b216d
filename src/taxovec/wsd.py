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
grid per sentence over its candidates that the scorer `has`, into one
RunScores of run-wide arrays. RunScores.picks then takes each token's
sense from the degrees of one bincount over the whole run and one
maximum.reduceat over its tokens, so a threshold sweep scores each
sentence once and picks in a few numpy calls per threshold.
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


@dataclass
class RunScores:
    """A run of sentences' scored cross-token pairs in run-wide arrays.

    A slot is a token with candidates. `nodes` are the (token index,
    candidate) of each slot's distinct candidates: sentence k owns
    nodes[starts[k]:starts[k + 1]] and slot s's nodes begin at slots[s].
    `pairs` index `nodes` in (token a, token b, candidate of a, candidate
    of b) order with a before b, sentence by sentence, with `weights`
    their scores; `skipped` counts the pairs left out because the scorer
    lacks a candidate.
    """

    nodes: list[tuple[int, str]]
    starts: list[int]
    slots: np.ndarray
    pairs: np.ndarray
    weights: np.ndarray
    skipped: int

    def degrees(self, threshold: float) -> np.ndarray:
        """Each node's sum of the weights strictly above `threshold` of the
        pairs it ends, added in pair order from 0.0 by one bincount."""
        keep = self.weights > threshold
        degree = np.bincount(self.pairs[keep].ravel(), np.repeat(self.weights[keep], 2), minlength=len(self.nodes))
        return degree.astype(np.float64, copy=False)  # no pair kept: bincount gives int zeros

    def picks(self, threshold: float) -> list[dict[int, str]]:
        """Each sentence's {token index: candidate}: each slot's first node
        of highest degree, so the first listed candidate wins ties and the
        no-edges case. A token index held by two slots keeps the later's.
        Degrees are never NaN (only weights above the threshold are
        summed), so each slot's maximum is one of its nodes' degrees."""
        degree = self.degrees(threshold)
        best = np.maximum.reduceat(degree, self.slots)
        hits = np.flatnonzero(degree == np.repeat(best, np.diff(self.slots, append=len(self.nodes))))
        chosen = [self.nodes[k] for k in hits[np.searchsorted(hits, self.slots)].tolist()]
        bounds = np.searchsorted(self.slots, self.starts).tolist()  # each sentence's first slot
        return [dict(chosen[a:b]) for a, b in zip(bounds, bounds[1:])]


def score_sentences(
    instances: Sequence[SentenceInstance], scorer: MeasureScorer | ModelScorer
) -> RunScores:
    """Each sentence's cross-token pairs scored from one scorer grid over
    its distinct known candidates, all grids from one `grids` call; a pair
    with a candidate the scorer does not have is left out and counted as
    skipped. A candidate listed twice for one token is scored once, at its
    first place, so the listing cannot weigh a partner's degree.

    After one pass over the tokens, the pairs are enumerated run-wide:
    each slot against the later slots of its sentence, then each such slot
    pair's candidates, a-major, which is RunScores' pair order.
    """
    nodes: list[tuple[int, str]] = []
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
    place = np.array(pos, dtype=np.int64)
    scored = (place[a] >= 0) & (place[b] >= 0)
    a, b = a[scored], b[scored]
    owner = np.repeat(np.arange(len(instances)), np.diff(starts))[a]  # each pair's sentence
    weights = flat[corner[owner] + place[a] * width[owner] + place[b]]
    return RunScores(nodes, starts, lead, np.column_stack((a, b)), weights, len(scored) - len(a))


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
    return [(scored.picks(cfg.threshold), scored.skipped) for cfg in cfgs]


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
    """First listed candidate per token: RunScores.picks with every candidate tied."""
    return [{tok.index: tok.candidates[0] for tok in inst.tokens if tok.candidates} for inst in instances]


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
