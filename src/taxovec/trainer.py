"""Embedding training.

One matrix holds a row per graph node. Each training batch mixes positive
pairs (gold similarity s in (0,1]) with uniformly sampled negatives (s=0),
and every entry drags one random neighbor of each endpoint into a graph
regularizer that rewards adjacent rows for pointing the same way:

    L = (1/|B|) * sum[(vi.vj - s)^2 - alpha*(vi.vn + vj.vm)] + l1 * sum|theta|

with the L1 sum taken over rows the batch touches. Optimization is Adam
with lazy sparse moments: untouched rows keep their state, touched rows
use the global step for bias correction. Parameters are stored in
float32 by default; all arithmetic runs in float64.

Per batch, the gradient contributions fill one (rows, d) block in
scatter order and are summed per touched row by occurrence level (see
`_sum_by_row`): each cell gets the additions an `np.add.at` scatter
makes, in entry order from +0.0, so the sums are bit for bit the same.
`np.add.reduceat` was ruled out: it does not add in order. The touched
rows are gathered once, for the L1 term and the Adam step, which gathers
each moment array's touched rows once, updates them in place and writes
them back once. Each epoch maps the pairs' ids to graph indices with
`Pairs.on`, once per id, not per pair.
A seed fixes the saved embedding byte for byte; the tests pin the digests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NoReturn, Sequence

import numpy as np

from .dataset import Pairs
from .errors import ConfigError, DataError, NumericError, UnknownNodeError
from .graph import TaxonomyGraph
from .io import atomic_write, natural, open_text

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

INIT_SCALE = 0.05

HUB_OCCURRENCES = 8  # a row recurring more often in a batch sums its gradient in one pass

CHUNK_ROWS = 64  # embedding rows per np.loadtxt call; larger chunks were no faster and raised peak RSS


class EmbeddingMatrix:
    """Node id to dense vector map backed by one (N, d) array."""

    def __init__(self, ids: Sequence[str], matrix: np.ndarray):
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise ConfigError(
                f"matrix shape {matrix.shape} does not match {len(ids)} node ids"
            )
        self.ids: tuple[str, ...] = tuple(ids)
        self.index: dict[str, int] = {node: i for i, node in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise DataError("duplicate node ids in embedding matrix")
        self.matrix = matrix

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    def idx(self, node: str) -> int:
        try:
            return self.index[node]
        except KeyError:
            raise UnknownNodeError(f"node {node!r} has no embedding") from None

    def row(self, node: str) -> np.ndarray:
        return self.matrix[self.idx(node)]


class ModelScorer:
    """The one model similarity: float64 dots or cosines of rows, each dot
    `a @ b` from one matmul stacked over single rows. A cosine with a zero
    row is 0.0, and of a nonzero row with itself exactly 1.0 (not 1 - 2**-53)."""

    def __init__(self, m: EmbeddingMatrix, mode: str = "dot"):
        if mode not in ("dot", "cosine"):
            raise ConfigError(f"unknown score mode {mode!r}; expected dot or cosine")
        self.m = m
        self.mode = mode
        self.name = f"model[{mode}]"

    def has(self, node: str) -> bool:
        return node in self.m.index

    def grid(self, us: Sequence[str], vs: Sequence[str]) -> np.ndarray:
        """The (len(us), len(vs)) scores of every pair in us x vs."""
        return self.scores(self._rows(us)[:, None], self._rows(vs)[None, :])

    def pairs(self, us: Sequence[str], vs: Sequence[str]) -> np.ndarray:
        """The score of each aligned pair (us[k], vs[k])."""
        return self.scores(self._rows(us), self._rows(vs))

    def _rows(self, nodes: Sequence[str]) -> np.ndarray:
        return np.array([self.m.idx(node) for node in nodes], dtype=np.int64)

    def scores(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        """Scores of the row pairs of two broadcast index arrays."""
        a, b = (self.m.matrix[rows].astype(np.float64) for rows in (rows_a, rows_b))
        out = (a[..., None, :] @ b[..., :, None])[..., 0, 0]  # row-by-row dots
        if self.mode == "cosine":
            norm_a, norm_b = (np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0]) for x in (a, b))
            live = ~((norm_a < 1e-300) | (norm_b < 1e-300))  # else 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(live, out / (norm_a * norm_b), 0.0)
            out[live & (rows_a == rows_b)] = 1.0
        return out


def score(m: EmbeddingMatrix, u: str, v: str, mode: str = "dot") -> float:
    """ModelScorer's dot product or cosine of two node rows."""
    return float(ModelScorer(m, mode).pairs([u], [v])[0])


def check_writable_ids(ids: Sequence[str]) -> None:
    """Reject ids the whitespace-separated text format cannot hold."""
    for node in ids:
        if any(ch.isspace() for ch in node):
            raise DataError(f"node id {node!r} contains whitespace; not writable")


def save_embeddings(m: EmbeddingMatrix, path: str | Path) -> None:
    """Write the text format: `N d` header, then `node_id v1 ... vd` per row."""
    check_writable_ids(m.ids)
    with atomic_write(path) as fh:
        fh.write(f"{m.n} {m.d}\n")
        for node, row in zip(m.ids, m.matrix):
            # tolist() widens each entry exactly to a Python float, whose
            # repr is the shortest string that reads back to the same value
            fh.write(f"{node} {' '.join(map(repr, row.tolist()))}\n")


def _parse_rows(parts: Sequence[list[str]], d: int) -> np.ndarray | None:
    """The (len(parts), d) float64 values of lines split into [id, values],
    or None when any line is malformed."""
    if any(len(fields) != 1 + (d > 0) for fields in parts):  # [id, values], or [id] if d == 0
        return None
    if d == 0 or not parts:
        return np.empty((len(parts), d))
    try:
        rows = np.loadtxt([fields[1] for fields in parts], dtype=np.float64, comments=None,
                          quotechar=None, ndmin=2, max_rows=len(parts))
    except ValueError:
        return None
    return rows if rows.shape == (len(parts), d) else None


def load_embeddings(path: str | Path, dtype: str = "float32") -> EmbeddingMatrix:
    """Read the text format written by save_embeddings.

    Line 1 is `N d`; each of the next N lines is a node id and d values,
    split on any whitespace; only blank lines may follow. Encoding and
    numbers are as in taxovec.io, non-finite values rejected after the
    read. Rows are parsed CHUNK_ROWS lines at a time by numpy's C
    tokenizer; a chunk that fails is rescanned to report its bad line.
    """
    p = Path(path)
    with open_text(p) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{p}:1: expected header `N d`")
        try:
            n, d = (natural(token, f"{p}:1", "header") for token in header)
        except DataError:
            raise DataError(f"{p}:1: bad header {' '.join(header)!r}") from None
        ids: list[str] = []
        matrix = np.empty((n, d), dtype=dtype)
        while len(ids) < n:
            first = len(ids) + 2  # file line of the chunk's first row
            want = min(CHUNK_ROWS, n - len(ids))
            parts = [line.split(None, 1) for line in itertools.islice(fh, want)]
            rows = _parse_rows(parts, d)
            if rows is None:
                _diagnose(p, parts, first, d)
            if len(parts) < want:
                raise DataError(f"{p}:{first + len(parts)}: expected node id and {d} values")
            matrix[len(ids):len(ids) + want] = rows
            ids.extend(fields[0] for fields in parts)
        for lineno, line in enumerate(fh, start=n + 2):
            if line.strip():
                raise DataError(f"{p}:{lineno}: row beyond the {n} declared in the header")
    if not np.all(np.isfinite(matrix)):
        raise DataError(f"{p}: non-finite embedding entries")
    return EmbeddingMatrix(ids, matrix)


def _diagnose(p: Path, parts: Sequence[list[str]], first: int, d: int) -> NoReturn:
    """Raise the DataError of the first malformed line of a chunk that
    failed to parse; parts[k] is line first + k split into [id, values]."""
    for lineno, fields in enumerate(parts, start=first):
        if len(" ".join(fields).split()) != d + 1:
            raise DataError(f"{p}:{lineno}: expected node id and {d} values")
        if _parse_rows([fields], d) is None:
            raise DataError(f"{p}:{lineno}: non-numeric vector entry")
    raise DataError(f"{p}:{first}: rows {first}-{first + len(parts) - 1} do not parse together")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; defaults follow the tuned values in the module docstring."""

    d: int
    alpha: float = 0.01
    negatives: int = 3
    batch_size: int = 100
    epochs: int = 15
    learning_rate: float = 0.001
    l1: float = 1e-5
    seed: int = 0
    early_stop_patience: int = 2
    dev_set: Pairs | None = None
    neg_total: bool = False  # split `negatives` across both sides instead of n per side
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.d}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.negatives < 0:
            raise ConfigError(f"negatives must be >= 0, got {self.negatives}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.l1) and self.l1 >= 0):
            raise ConfigError(f"l1 must be finite and >= 0, got {self.l1}")
        if self.early_stop_patience < 1:
            raise ConfigError(
                f"early_stop_patience must be >= 1, got {self.early_stop_patience}"
            )

    def negatives_per_side(self) -> tuple[int, int]:
        if self.neg_total:
            return (self.negatives + 1) // 2, self.negatives // 2
        return self.negatives, self.negatives


@dataclass
class Batch:
    """Parallel arrays, one slot per entry; neighbor index -1 means isolated."""

    i: np.ndarray
    j: np.ndarray
    s: np.ndarray
    ni: np.ndarray
    nj: np.ndarray

    def __len__(self) -> int:
        return len(self.i)


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    median_loss: float
    dev_spearman: float | None = None


def _loss_and_grads(
    V: np.ndarray, batch: Batch, alpha: float, l1: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Loss of one batch, its mean entry loss plus the L1 penalty over the
    rows it touches, and the loss's gradient; train and batch_gradients share it.

    Returns (loss, touched_rows, grads_per_touched_row, per_entry_terms,
    touched_values), the last the touched rows of V in float64, a copy.
    All math in float64 regardless of storage dtype.
    """
    vi = V[batch.i].astype(np.float64, copy=False)
    vj = V[batch.j].astype(np.float64, copy=False)
    dots = np.einsum("ed,ed->e", vi, vj)
    err = dots - batch.s

    has_ni = batch.ni >= 0
    has_nj = batch.nj >= 0
    vn = V[np.where(has_ni, batch.ni, 0)].astype(np.float64, copy=False)
    vm = V[np.where(has_nj, batch.nj, 0)].astype(np.float64, copy=False)
    reg_i = np.where(has_ni, np.einsum("ed,ed->e", vi, vn), 0.0)
    reg_j = np.where(has_nj, np.einsum("ed,ed->e", vj, vm), 0.0)

    with np.errstate(over="ignore"):  # non-finite loss is detected by the caller
        terms = err**2 - alpha * (reg_i + reg_j)
    size = len(batch)
    loss = float(terms.sum() / size)

    # Gradient rows in scatter order: every i, every j, then every present
    # ni and nj, each with its contribution in one (rows, d) block. With
    # alpha == 0 the neighbors are still touched, with zero contributions.
    ni, nj = batch.ni[has_ni], batch.nj[has_nj]
    rows = np.concatenate([batch.i, batch.j, ni, nj])
    contribs = np.empty((len(rows), V.shape[1]))
    gi, gj = contribs[:size], contribs[size : 2 * size]
    gn, gm = contribs[2 * size : 2 * size + len(ni)], contribs[2 * size + len(ni) :]
    with np.errstate(over="ignore", invalid="ignore"):  # diverged rows surface
        err2 = 2.0 * err[:, None]                       # as a non-finite loss
        np.multiply(err2, vj, out=gi)
        np.multiply(err2, vi, out=gj)
        if alpha != 0.0:
            for part, nbr, has in ((gi, vn, has_ni), (gj, vm, has_nj)):
                nbr *= alpha  # part -= alpha * nbr * has, in place
                np.multiply(nbr, has[:, None], out=nbr)
                part -= nbr
            np.multiply(vi[has_ni], -alpha, out=gn)
            np.multiply(vj[has_nj], -alpha, out=gm)
        else:
            contribs[2 * size :] = 0.0
        contribs /= size
    touched, grads = _sum_by_row(rows, contribs)

    vt = V[touched].astype(np.float64, copy=False)
    if l1 > 0.0:
        work = np.abs(vt)
        loss += l1 * float(work.sum())
        np.sign(vt, out=work)
        work *= l1
        grads += work
    return loss, touched, grads, terms, vt


def _sum_by_row(rows: np.ndarray, contribs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending distinct rows and, per row, the sum of its contributions
    contribs[k] (rows[k] == row), added in k order starting from +0.0, the
    additions an np.add.at scatter makes.

    One stable argsort lists each row's positions in k order. The first
    occurrences open the sums; then each later occurrence rank adds its
    contributions to the rows that recur that often, one vectorized add
    per rank. A row recurring more than HUB_OCCURRENCES times sums its own
    contributions with one np.add.accumulate, which adds in order too; its
    ((c0 + c1) + ...) + 0.0 equals ((0.0 + c0) + c1) + ..., as a partial
    sum is -0.0 only while every term so far is.
    """
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    first = np.empty(len(rows), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(rows))
    grads = contribs[order[starts]]
    grads += 0.0
    hubs = counts > HUB_OCCURRENCES
    for slot in np.flatnonzero(hubs):
        at = order[starts[slot] : starts[slot] + counts[slot]]
        grads[slot] = np.add.accumulate(contribs[at], axis=0)[-1] + 0.0
    counts[hubs] = 1  # summed; out of the rank loop
    for rank in range(1, int(counts.max(initial=1))):
        slots = np.flatnonzero(counts > rank)
        grads[slots] += contribs[order[starts[slots] + rank]]
    return ranked[starts], grads


def batch_gradients(
    m: EmbeddingMatrix, batch: Batch, alpha: float, l1: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the batch loss w.r.t. each touched row.

    Returns (touched_row_indices, gradient_rows), rows sorted ascending.
    """
    _, touched, grads, _, _ = _loss_and_grads(m.matrix, batch, alpha, l1)
    return touched, grads


def _sample_neighbors(
    offsets: np.ndarray, flat: np.ndarray, nodes: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One uniform neighbor per node via CSR adjacency; -1 for isolated nodes."""
    deg = offsets[nodes + 1] - offsets[nodes]
    draws = rng.random(len(nodes))
    if flat.size == 0:
        return np.full(len(nodes), -1, dtype=np.int64)
    picks = offsets[nodes] + np.minimum((draws * deg).astype(np.int64), np.maximum(deg - 1, 0))
    picks = np.minimum(picks, flat.size - 1)  # isolated nodes read a dummy slot
    return np.where(deg > 0, flat[picks], -1)


def make_batches(pairs: Pairs, g: TaxonomyGraph, cfg: TrainConfig, epoch_seed) -> Iterator[Batch]:
    """Shuffled positives, each followed by its negatives, chunked into batches.

    Entry order per positive: the positive itself, then the first-endpoint
    negatives, then the second-endpoint negatives. Negative partners are
    uniform over all nodes with no filtering, so an occasional negative can
    collide with a truly similar pair. The RNG draw order is fixed
    (permutation, i-side negatives, j-side negatives, i neighbors,
    j neighbors), which makes the stream a pure function of the seed.
    """
    if not len(pairs):
        raise ConfigError("cannot make batches from an empty pair list")
    I, J = pairs.on(g)
    rng = np.random.default_rng(epoch_seed)
    P = len(pairs)
    perm = rng.permutation(P)
    I, J, S = I[perm], J[perm], pairs.s[perm]

    n_i, n_j = cfg.negatives_per_side()
    K = rng.integers(0, g.n, size=(P, n_i), dtype=np.int64)
    L = rng.integers(0, g.n, size=(P, n_j), dtype=np.int64)

    block = 1 + n_i + n_j
    E = P * block
    ei = np.empty(E, dtype=np.int64)
    ej = np.empty(E, dtype=np.int64)
    es = np.zeros(E, dtype=np.float64)

    ei[0::block] = I
    ej[0::block] = J
    es[0::block] = S
    for t in range(n_i):
        ei[1 + t :: block] = I
        ej[1 + t :: block] = K[:, t]
    for t in range(n_j):
        ei[1 + n_i + t :: block] = J
        ej[1 + n_i + t :: block] = L[:, t]

    ni = _sample_neighbors(*g.csr, ei, rng)
    nj = _sample_neighbors(*g.csr, ej, rng)

    for start in range(0, E, cfg.batch_size):
        cut = slice(start, start + cfg.batch_size)
        yield Batch(i=ei[cut], j=ej[cut], s=es[cut], ni=ni[cut], nj=nj[cut])


def train(
    pairs: Pairs,
    g: TaxonomyGraph,
    cfg: TrainConfig,
    on_epoch: Callable[[EpochStats], None] | None = None,
) -> EmbeddingMatrix:
    """Fit the embedding matrix with Adam.

    Rows start uniform(-0.05, 0.05) from cfg.seed; each epoch reshuffles and
    resamples batches from a (seed, epoch) stream. With a dev_set, epochs
    whose dev Spearman stops improving for `early_stop_patience` epochs end
    training and the best-epoch snapshot is returned; without one, all
    epochs run. A non-finite batch loss aborts with the epoch, batch, and
    first offending pair.
    """
    from .evaluation import spearman  # deferred: evaluation imports this module
    if not len(pairs):
        raise ConfigError("training needs at least one pair")
    if len(np.union1d(pairs.i, pairs.j)) < 2:
        raise ConfigError("training pairs must cover at least 2 distinct nodes")
    dev = (*cfg.dev_set.on(g), cfg.dev_set.s) if cfg.dev_set else None
    if dev is not None:  # checked before the first batch, not after an epoch
        golds = dev[2]
        if len(golds) < 3:
            raise DataError(f"the dev set needs at least 3 pairs, got {len(golds)}")
        if np.all(golds == golds[0]):
            raise DataError("the dev set's golds are constant, so it has no rank correlation")

    rng = np.random.default_rng(cfg.seed)
    V = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(g.n, cfg.d)).astype(cfg.dtype)
    m = EmbeddingMatrix(g.ids, V)
    scorer = ModelScorer(m)

    adam_m = np.zeros((g.n, cfg.d), dtype=np.float64)
    adam_v = np.zeros((g.n, cfg.d), dtype=np.float64)
    step = 0

    best_dev = -math.inf
    best_snapshot: np.ndarray | None = None
    stale = 0

    for epoch in range(cfg.epochs):
        losses: list[float] = []
        for bi, batch in enumerate(make_batches(pairs, g, cfg, [cfg.seed, epoch])):
            loss, touched, grads, terms, rows = _loss_and_grads(V, batch, cfg.alpha, cfg.l1)
            if not math.isfinite(loss):
                bad = int(np.flatnonzero(~np.isfinite(terms))[0]) if len(terms) else 0
                u, v = m.ids[int(batch.i[bad])], m.ids[int(batch.j[bad])]
                raise NumericError(
                    f"non-finite loss {loss!r} at epoch {epoch}, batch {bi}, "
                    f"pair ({u!r}, {v!r}, s={float(batch.s[bad])!r})"
                )
            losses.append(loss)

            # Adam on the touched rows: one gather and one write-back per
            # state array, every step in place. The operand order of
            # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g^2 and
            # lr*(m/c1) / (sqrt(v/c2) + eps) fixes the output bytes.
            step += 1
            mm = adam_m[touched]
            vv = adam_v[touched]
            mm *= ADAM_BETA1
            mm += (1 - ADAM_BETA1) * grads
            vv *= ADAM_BETA2
            grads *= grads
            grads *= 1 - ADAM_BETA2
            vv += grads
            adam_m[touched] = mm
            adam_v[touched] = vv
            mm /= 1 - ADAM_BETA1**step
            mm *= cfg.learning_rate
            vv /= 1 - ADAM_BETA2**step
            np.sqrt(vv, out=vv)
            vv += ADAM_EPS
            mm /= vv
            rows -= mm
            with np.errstate(over="ignore"):  # float32 overflow -> NumericError next batch
                V[touched] = rows

        dev_rho = None if dev is None else spearman(scorer.scores(dev[0], dev[1]), dev[2])
        if on_epoch is not None:
            on_epoch(
                EpochStats(
                    epoch=epoch,
                    mean_loss=float(np.mean(losses)),
                    median_loss=float(np.median(losses)),
                    dev_spearman=dev_rho,
                )
            )
        if dev_rho is not None:
            if dev_rho > best_dev:
                best_dev = dev_rho
                best_snapshot = V.copy()
                stale = 0
            else:
                stale += 1
                if stale >= cfg.early_stop_patience:
                    break

    if best_snapshot is not None:
        m.matrix = best_snapshot
    return m
