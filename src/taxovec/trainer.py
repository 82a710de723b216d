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

Per batch, every gradient contribution lands in its (touched row, column)
cell through one flat `np.bincount`, which adds the cell's contributions
in entry order starting from +0.0, exactly as an `np.add.at` scatter
would. The Adam step gathers each moment array's touched rows once,
updates them in place and writes them back once. Pairs are mapped to
index arrays once per `train` call. A seed fixes the saved embedding
byte for byte; the tests pin the digests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NoReturn, Sequence

import numpy as np

from .dataset import TrainingPair
from .errors import ConfigError, DataError, NumericError, UnknownNodeError
from .graph import TaxonomyGraph
from .io import atomic_write, natural, open_text

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

INIT_SCALE = 0.05

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


def score(m: EmbeddingMatrix, u: str, v: str, mode: str = "dot") -> float:
    """Dot product or cosine of two node rows, computed in float64.

    The cosine of a nonzero row with itself is exactly 1.0.
    """
    a = m.row(u).astype(np.float64)
    b = m.row(v).astype(np.float64)
    if mode == "dot":
        return float(a @ b)
    if mode == "cosine":
        na = math.sqrt(float(a @ a))
        nb = math.sqrt(float(b @ b))
        if na < 1e-300 or nb < 1e-300:
            return 0.0
        if u == v:  # dot / (na * nb) can round to 1 - 2**-53 for a row with itself
            return 1.0
        return float(a @ b) / (na * nb)
    raise ConfigError(f"unknown score mode {mode!r}; expected dot or cosine")


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
    dev_set: list[TrainingPair] | None = None
    neg_total: bool = False  # split `negatives` across both sides instead of n per side
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.d}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.negatives < 0:
            raise ConfigError(f"negatives must be >= 0, got {self.negatives}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.l1 < 0:
            raise ConfigError(f"l1 must be >= 0, got {self.l1}")
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
    V: np.ndarray, batch: Batch, alpha: float, l1: float, want_grads: bool
) -> tuple[float, np.ndarray, np.ndarray | None, np.ndarray]:
    """Shared core for batch_loss and batch_gradients.

    Returns (loss, touched_rows, grads_per_touched_row_or_None, per_entry_terms).
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

    # Gradient rows in scatter order: every i, every j, then (with alpha)
    # every present ni and nj. The same list defines the touched rows, so
    # one unique gives both the rows and each contribution's slot.
    rows = np.concatenate([batch.i, batch.j, batch.ni[has_ni], batch.nj[has_nj]])
    touched, slot = np.unique(rows, return_inverse=True)
    if l1 > 0.0:
        vt = V[touched].astype(np.float64, copy=False)
        loss += l1 * float(np.abs(vt).sum())
    if not want_grads:
        return loss, touched, None, terms

    with np.errstate(over="ignore", invalid="ignore"):  # diverged rows surface
        gi = 2.0 * err[:, None] * vj                    # as a non-finite loss
        gj = 2.0 * err[:, None] * vi
        contribs = [gi, gj]
        if alpha != 0.0:
            gi -= alpha * vn * has_ni[:, None]
            gj -= alpha * vm * has_nj[:, None]
            contribs += [-alpha * vi[has_ni], -alpha * vj[has_nj]]
    all_contribs = np.concatenate(contribs)
    all_contribs /= size

    # One flat bincount sums every contribution into its (row, column) cell
    # in entry order, starting from +0.0: the same additions as np.add.at.
    d = V.shape[1]
    cells = (slot[: len(all_contribs), None] * d + np.arange(d)).ravel()
    grads = np.bincount(
        cells, weights=all_contribs.ravel(), minlength=len(touched) * d
    ).reshape(-1, d)
    if l1 > 0.0:
        np.sign(vt, out=vt)
        vt *= l1
        grads += vt
    return loss, touched, grads, terms


def batch_loss(m: EmbeddingMatrix, batch: Batch, alpha: float, l1: float = 0.0) -> float:
    """Mean entry loss plus the L1 penalty over rows the batch touches."""
    loss, _, _, _ = _loss_and_grads(m.matrix, batch, alpha, l1, want_grads=False)
    return loss


def batch_gradients(
    m: EmbeddingMatrix, batch: Batch, alpha: float, l1: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of batch_loss w.r.t. each touched row.

    Returns (touched_row_indices, gradient_rows), rows sorted ascending.
    """
    _, touched, grads, _ = _loss_and_grads(m.matrix, batch, alpha, l1, want_grads=True)
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


def _index_pairs(
    pairs: list[TrainingPair], g: TaxonomyGraph
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoint indices and gold scores; UnknownNodeError for a missing node."""
    P = len(pairs)
    I = np.fromiter((g.idx(p.u) for p in pairs), dtype=np.int64, count=P)
    J = np.fromiter((g.idx(p.v) for p in pairs), dtype=np.int64, count=P)
    S = np.fromiter((p.s for p in pairs), dtype=np.float64, count=P)
    return I, J, S


def make_batches(
    pairs: list[TrainingPair],
    g: TaxonomyGraph,
    cfg: TrainConfig,
    epoch_seed,
) -> Iterator[Batch]:
    """Shuffled positives, each followed by its negatives, chunked into batches.

    Entry order per positive: the positive itself, then the first-endpoint
    negatives, then the second-endpoint negatives. Negative partners are
    uniform over all nodes with no filtering, so an occasional negative can
    collide with a truly similar pair. The RNG draw order is fixed
    (permutation, i-side negatives, j-side negatives, i neighbors,
    j neighbors), which makes the stream a pure function of the seed.
    """
    if not pairs:
        raise ConfigError("cannot make batches from an empty pair list")
    return _epoch_batches(_index_pairs(pairs, g), g.csr, cfg, epoch_seed)


def _epoch_batches(
    ijs: tuple[np.ndarray, np.ndarray, np.ndarray],
    csr: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    epoch_seed,
) -> Iterator[Batch]:
    """make_batches over pairs already mapped by _index_pairs and the
    graph's CSR adjacency, so train() maps the pairs once."""
    rng = np.random.default_rng(epoch_seed)
    I, J, S = ijs
    offsets, flat = csr
    n = len(offsets) - 1
    P = len(I)
    perm = rng.permutation(P)
    I, J, S = I[perm], J[perm], S[perm]

    n_i, n_j = cfg.negatives_per_side()
    K = rng.integers(0, n, size=(P, n_i), dtype=np.int64)
    L = rng.integers(0, n, size=(P, n_j), dtype=np.int64)

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

    ni = _sample_neighbors(offsets, flat, ei, rng)
    nj = _sample_neighbors(offsets, flat, ej, rng)

    for start in range(0, E, cfg.batch_size):
        end = min(start + cfg.batch_size, E)
        yield Batch(
            i=ei[start:end],
            j=ej[start:end],
            s=es[start:end],
            ni=ni[start:end],
            nj=nj[start:end],
        )


def _dev_spearman(m: EmbeddingMatrix, dev: list[TrainingPair]) -> float:
    from .evaluation import spearman  # deferred: evaluation imports this module

    preds = [score(m, p.u, p.v, "dot") for p in dev]
    golds = [p.s for p in dev]
    return spearman(preds, golds)


def train(
    pairs: list[TrainingPair],
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
    if not pairs:
        raise ConfigError("training needs at least one pair")
    nodes_seen = {p.u for p in pairs} | {p.v for p in pairs}
    if len(nodes_seen) < 2:
        raise ConfigError("training pairs must cover at least 2 distinct nodes")
    ijs = _index_pairs(pairs, g)

    rng = np.random.default_rng(cfg.seed)
    V = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(g.n, cfg.d)).astype(cfg.dtype)
    m = EmbeddingMatrix(g.ids, V)

    adam_m = np.zeros((g.n, cfg.d), dtype=np.float64)
    adam_v = np.zeros((g.n, cfg.d), dtype=np.float64)
    step = 0

    best_dev = -math.inf
    best_snapshot: np.ndarray | None = None
    stale = 0

    for epoch in range(cfg.epochs):
        losses: list[float] = []
        batches = _epoch_batches(ijs, g.csr, cfg, [cfg.seed, epoch])
        for bi, batch in enumerate(batches):
            loss, touched, grads, terms = _loss_and_grads(
                V, batch, cfg.alpha, cfg.l1, want_grads=True
            )
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
            rows = V[touched].astype(np.float64, copy=False)
            rows -= mm
            with np.errstate(over="ignore"):  # float32 overflow -> NumericError next batch
                V[touched] = rows

        dev_rho = None
        if cfg.dev_set:
            dev_rho = _dev_spearman(m, cfg.dev_set)
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
