"""Trainer tests: loss values, gradients, batching, optimization, model IO."""

from __future__ import annotations

import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxovec.dataset import (
    MODES,
    DatasetConfig,
    Pairs,
    TrainingPair,
    build_fast,
    build_full,
    read_pairs,
    write_pairs,
)
from taxovec.errors import DegenerateRangeError, EmptyDatasetError
from taxovec.errors import ConfigError, DataError, NumericError, UnknownNodeError
from taxovec.graph import TaxonomyGraph
from taxovec.trainer import (
    HUB_OCCURRENCES,
    Batch,
    EmbeddingMatrix,
    TrainConfig,
    _loss_and_grads,
    batch_gradients,
    load_embeddings,
    make_batches,
    save_embeddings,
    score,
    train,
)

from conftest import graphs, random_dag_graph, random_tree_graph
from oracles import finite_difference_grads


def batch_loss(m, batch, alpha, l1=0.0):
    """The loss of the core that train() and batch_gradients() share."""
    return _loss_and_grads(m.matrix, batch, alpha, l1)[0]


def entry_batch(entries):
    """Build a Batch from (i, j, s, ni, nj) tuples."""
    cols = list(zip(*entries))
    return Batch(
        i=np.array(cols[0], dtype=np.int64),
        j=np.array(cols[1], dtype=np.int64),
        s=np.array(cols[2], dtype=np.float64),
        ni=np.array(cols[3], dtype=np.int64),
        nj=np.array(cols[4], dtype=np.int64),
    )


def random_batch(n_rows, n_entries, rng):
    i = rng.integers(0, n_rows, n_entries)
    j = rng.integers(0, n_rows, n_entries)
    s = rng.random(n_entries)
    ni = rng.integers(0, n_rows, n_entries)
    nj = rng.integers(0, n_rows, n_entries)
    ni[rng.random(n_entries) < 0.25] = -1
    nj[rng.random(n_entries) < 0.25] = -1
    s[rng.random(n_entries) < 0.5] = 0.0  # negatives
    return Batch(i=i, j=j, s=s, ni=ni, nj=nj)


class TestLossValues:
    def test_single_positive_squared_error(self):
        m = EmbeddingMatrix(["a", "b"], np.array([[0.2, 0.4], [1.0, 0.0]]))
        batch = entry_batch([(0, 1, 0.5, -1, -1)])
        # dot = 0.2, err = -0.3
        assert batch_loss(m, batch, alpha=0.01) == pytest.approx(0.09, rel=1e-12)

    def test_zero_when_dot_matches_target(self):
        m = EmbeddingMatrix(["a", "b"], np.array([[0.5, 0.5], [0.6, 0.2]]))
        batch = entry_batch([(0, 1, 0.4, -1, -1)])
        assert batch_loss(m, batch, alpha=0.0) == 0.0

    def test_regularizer_subtracts_neighbor_dots(self):
        V = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.25, 0.0]])
        m = EmbeddingMatrix(["a", "b", "c", "d"], V)
        batch = entry_batch([(0, 1, 0.0, 2, 3)])
        # err = 0; reg_i = v0 . v2 = 0.5, reg_j = v1 . v3 = 0.0
        assert batch_loss(m, batch, alpha=0.01) == pytest.approx(-0.005)
        # missing neighbor slots contribute nothing
        half = entry_batch([(0, 1, 0.0, 2, -1)])
        assert batch_loss(m, half, alpha=0.01) == pytest.approx(-0.005)

    def test_l1_counts_only_touched_rows(self):
        V = np.array([[0.5, -0.5], [1.0, 1.0], [100.0, 100.0]])
        m = EmbeddingMatrix(["a", "b", "huge"], V)
        batch = entry_batch([(0, 1, 0.0, -1, -1)])
        base = batch_loss(m, batch, alpha=0.0, l1=0.0)
        with_l1 = batch_loss(m, batch, alpha=0.0, l1=0.1)
        # rows 0 and 1 have |.| sums 1.0 and 2.0; row 2 is untouched
        assert with_l1 - base == pytest.approx(0.1 * 3.0)

    def test_mean_over_entries(self):
        m = EmbeddingMatrix(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        one = entry_batch([(0, 1, 0.5, -1, -1)])
        two = entry_batch(
            [(0, 1, 0.5, -1, -1), (0, 0, 0.0, -1, -1)]
        )
        # entry losses: 0.25 and 1.0
        assert batch_loss(m, one, alpha=0.0) == pytest.approx(0.25)
        assert batch_loss(m, two, alpha=0.0) == pytest.approx(0.625)


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for trial in range(6):
            n_rows = int(rng.integers(5, 12))
            d = int(rng.integers(2, 6))
            # magnitudes >= 0.2 keep the L1 sign stable under the probe step
            V = rng.uniform(0.2, 1.0, size=(n_rows, d))
            V *= np.where(rng.random(V.shape) < 0.5, -1.0, 1.0)
            batch = random_batch(n_rows, 8, rng)
            alpha = float(rng.choice([0.0, 0.01, 0.5]))
            l1 = float(rng.choice([0.0, 1e-3]))
            m = EmbeddingMatrix([f"n{k}" for k in range(n_rows)], V)
            touched, grads = batch_gradients(m, batch, alpha=alpha, l1=l1)

            fd = finite_difference_grads(
                lambda M: batch_loss(
                    EmbeddingMatrix(m.ids, M), batch, alpha=alpha, l1=l1
                ),
                V,
                touched,
            )
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(grads - fd).max() / scale < 1e-6, trial

    def test_repeated_rows_accumulate(self):
        rng = np.random.default_rng(3)
        V = rng.uniform(0.2, 1.0, size=(3, 4))
        m = EmbeddingMatrix(["a", "b", "c"], V)
        batch = entry_batch(
            [(0, 1, 0.5, 2, 0), (0, 0, 0.0, 1, 1)]
        )
        touched, grads = batch_gradients(m, batch, alpha=0.1, l1=0.0)
        fd = finite_difference_grads(
            lambda M: batch_loss(EmbeddingMatrix(m.ids, M), batch, alpha=0.1),
            V,
            touched,
        )
        assert np.abs(grads - fd).max() < 1e-8

    def test_untouched_rows_not_reported(self):
        V = np.ones((5, 2))
        m = EmbeddingMatrix([f"n{k}" for k in range(5)], V)
        batch = entry_batch([(0, 1, 0.5, -1, -1)])
        touched, _ = batch_gradients(m, batch, alpha=0.01, l1=0.1)
        assert touched.tolist() == [0, 1]


def add_at_gradients(V, batch, alpha, l1):
    """Reference scatter: the per-entry np.add.at loop, in entry order."""
    V = V.astype(np.float64)
    has_ni, has_nj = batch.ni >= 0, batch.nj >= 0
    vi, vj = V[batch.i], V[batch.j]
    vn = V[np.where(has_ni, batch.ni, 0)]
    vm = V[np.where(has_nj, batch.nj, 0)]
    err = np.einsum("ed,ed->e", vi, vj) - batch.s
    gi = 2.0 * err[:, None] * vj
    gj = 2.0 * err[:, None] * vi
    rows, contribs = [batch.i, batch.j], [gi, gj]
    if alpha != 0.0:
        gi -= alpha * vn * has_ni[:, None]
        gj -= alpha * vm * has_nj[:, None]
        rows += [batch.ni[has_ni], batch.nj[has_nj]]
        contribs += [-alpha * vi[has_ni], -alpha * vj[has_nj]]
    touched = np.unique(
        np.concatenate([batch.i, batch.j, batch.ni[has_ni], batch.nj[has_nj]])
    )
    grads = np.zeros((len(touched), V.shape[1]))
    np.add.at(
        grads,
        np.searchsorted(touched, np.concatenate(rows)),
        np.concatenate(contribs) / len(batch),
    )
    if l1 > 0.0:
        grads += l1 * np.sign(V[touched])
    return touched, grads


class TestScatterReference:
    """batch_gradients sums exactly as the np.add.at loop does: same cells,
    same order, same signed zeros."""

    @pytest.mark.parametrize("alpha", [0.0, 0.01, 0.5])
    @pytest.mark.parametrize("l1", [0.0, 1e-3])
    def test_random_batches_with_a_hub_row(self, alpha, l1):
        rng = np.random.default_rng(23)
        for trial in range(5):
            n_rows, d = 30, int(rng.integers(1, 40))
            V = rng.normal(size=(n_rows, d)).astype(rng.choice(["float32", "float64"]))
            batch = random_batch(n_rows, 120, rng)
            hub = int(rng.integers(n_rows))
            for col in (batch.i, batch.j, batch.ni, batch.nj):
                col[rng.random(len(col)) < 0.3] = hub
            m = EmbeddingMatrix([f"n{k}" for k in range(n_rows)], V)
            touched, grads = batch_gradients(m, batch, alpha, l1)
            ref_touched, ref = add_at_gradients(V, batch, alpha, l1)
            assert touched.tobytes() == ref_touched.tobytes(), trial
            assert grads.tobytes() == ref.tobytes(), trial

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_all_zero_contributions_keep_their_zero_signs(self, alpha):
        rng = np.random.default_rng(5)
        V = np.zeros((5, 4))
        batch = random_batch(5, 40, rng)
        batch.s[:] = rng.choice([-0.5, 0.5], len(batch))  # products of -0.0 and +0.0
        m = EmbeddingMatrix([f"n{k}" for k in range(5)], V)
        _, grads = batch_gradients(m, batch, alpha)
        _, ref = add_at_gradients(V, batch, alpha, 0.0)
        assert grads.tobytes() == ref.tobytes()
        assert not np.signbit(grads).any()

    def assert_matches_reference(self, V, batch, alpha, l1):
        m = EmbeddingMatrix([f"n{k}" for k in range(len(V))], V)
        touched, grads = batch_gradients(m, batch, alpha, l1)
        ref_touched, ref = add_at_gradients(V, batch, alpha, l1)
        assert touched.tobytes() == ref_touched.tobytes()
        assert grads.tobytes() == ref.tobytes()
        return touched, grads

    @pytest.mark.parametrize("size", [1, 97, 1000])
    @pytest.mark.parametrize("alpha", [0.0, 0.01])
    def test_one_row_in_every_slot(self, size, alpha):
        # 4 * size occurrences: the rank loop at size 1, one accumulate above HUB_OCCURRENCES
        rng = np.random.default_rng(size)
        V = rng.normal(size=(6, 33))
        row = np.full(size, 4, dtype=np.int64)
        batch = Batch(i=row, j=row.copy(), s=rng.random(size), ni=row.copy(), nj=row.copy())
        touched, _ = self.assert_matches_reference(V, batch, alpha, 1e-3)
        assert touched.tolist() == [4]

    @pytest.mark.parametrize("size", [1, 97])
    @pytest.mark.parametrize("alpha", [0.0, 0.01])
    def test_one_row_of_negative_zero_contributions(self, size, alpha):
        # 2 * (0 - 0.5) * (+0.0) is -0.0 in every slot; the sum still starts from +0.0
        V = np.zeros((3, 4))
        row = np.ones(size, dtype=np.int64)
        batch = Batch(i=row, j=row.copy(), s=np.full(size, 0.5), ni=row.copy(), nj=row.copy())
        _, grads = self.assert_matches_reference(V, batch, alpha, 0.0)
        assert not np.signbit(grads).any()

    @pytest.mark.parametrize("l1", [0.0, 1e-3])
    def test_zero_alpha_touches_neighbors_with_zero_gradient(self, l1):
        rng = np.random.default_rng(8)
        V = rng.normal(size=(40, 7)).astype(np.float32)
        batch = random_batch(20, 60, rng)  # endpoints in rows 0-19
        batch.ni[:] = rng.integers(20, 40, len(batch))  # neighbors only in rows 20-39
        batch.nj[:] = rng.integers(20, 40, len(batch))
        touched, grads = self.assert_matches_reference(V, batch, 0.0, l1)
        only_neighbors = touched >= 20
        assert only_neighbors.any()
        expected = np.zeros((only_neighbors.sum(), 7))  # each sum starts from +0.0
        if l1 > 0.0:
            expected += l1 * np.sign(V[touched[only_neighbors]].astype(np.float64))
        assert grads[only_neighbors].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_zero_signs_on_the_rank_loop(self, alpha):
        rng = np.random.default_rng(12)
        V = np.where(rng.random((60, 5)) < 0.5, -0.0, 0.0)
        batch = random_batch(60, 25, rng)
        batch.s[:] = rng.choice([-0.5, 0.5], len(batch))  # products of -0.0 and +0.0
        rows = np.concatenate([batch.i, batch.j, batch.ni[batch.ni >= 0], batch.nj[batch.nj >= 0]])
        counts = np.unique(rows, return_counts=True)[1]
        assert 1 < counts.max() <= HUB_OCCURRENCES  # no row leaves the rank loop
        _, grads = self.assert_matches_reference(V, batch, alpha, 0.0)
        assert not np.signbit(grads).any()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 50),
        d=st.integers(1, 12),
        size=st.integers(1, 150),
        dtype=st.sampled_from(["float32", "float64"]),
        alpha=st.sampled_from([0.0, 0.01, 0.5]),
        l1=st.sampled_from([0.0, 1e-3]),
        missing=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_random_batches_property(self, seed, n_rows, d, size, dtype, alpha, l1, missing):
        rng = np.random.default_rng(seed)
        V = rng.normal(size=(n_rows, d)).astype(dtype)
        V[rng.random(V.shape) < 0.1] = 0.0
        batch = random_batch(n_rows, size, rng)
        batch.ni[rng.random(size) < missing] = -1
        batch.nj[rng.random(size) < missing] = -1
        self.assert_matches_reference(V, batch, alpha, l1)


class TestMakeBatches:
    def graph(self, n=10, seed=0):
        return random_tree_graph(n, seed)

    def pairs_for(self, g, count=5):
        ids = g.ids
        return Pairs.from_rows(
            TrainingPair(ids[k], ids[(k + 1) % len(ids)], 0.1 * (k + 1))
            for k in range(count)
        )

    def test_block_layout_three_per_side(self):
        g = self.graph()
        pairs = self.pairs_for(g, 5)
        cfg = TrainConfig(d=4, negatives=3, batch_size=1000)
        (batch,) = list(make_batches(pairs, g, cfg, epoch_seed=[0, 0]))
        assert len(batch) == 5 * 7
        # the golds are > 0, so exactly the positives have a nonzero s
        assert np.flatnonzero(batch.s).tolist() == [0, 7, 14, 21, 28]
        # each negative entry reuses one endpoint of its block's positive
        for b in range(5):
            pos_i, pos_j = batch.i[7 * b], batch.j[7 * b]
            for t in range(3):
                assert batch.i[7 * b + 1 + t] == pos_i
            for t in range(3):
                assert batch.i[7 * b + 4 + t] == pos_j

    def test_zero_negatives(self):
        g = self.graph()
        pairs = self.pairs_for(g, 4)
        cfg = TrainConfig(d=4, negatives=0, batch_size=1000)
        (batch,) = list(make_batches(pairs, g, cfg, epoch_seed=0))
        assert len(batch) == 4
        assert np.all(batch.s > 0.0)

    def test_total_negative_budget_splits_unevenly(self):
        g = self.graph()
        cfg = TrainConfig(d=4, negatives=3, neg_total=True, batch_size=1000)
        assert cfg.negatives_per_side() == (2, 1)
        (batch,) = list(make_batches(self.pairs_for(g, 2), g, cfg, epoch_seed=0))
        assert len(batch) == 2 * 4

    def test_chunking(self):
        g = self.graph()
        pairs = self.pairs_for(g, 3)  # 21 entries at 3 per side
        cfg = TrainConfig(d=4, negatives=3, batch_size=10)
        sizes = [len(b) for b in make_batches(pairs, g, cfg, epoch_seed=0)]
        assert sizes == [10, 10, 1]

    def test_seed_reproducibility(self):
        g = self.graph()
        pairs = self.pairs_for(g, 6)
        cfg = TrainConfig(d=4)
        a = list(make_batches(pairs, g, cfg, epoch_seed=[3, 1]))
        b = list(make_batches(pairs, g, cfg, epoch_seed=[3, 1]))
        c = list(make_batches(pairs, g, cfg, epoch_seed=[3, 2]))
        for x, y in zip(a, b):
            for name in ("i", "j", "s", "ni", "nj"):
                assert np.array_equal(getattr(x, name), getattr(y, name))
        assert any(
            not np.array_equal(x.i, y.i) or not np.array_equal(x.ni, y.ni)
            for x, y in zip(a, c)
        )

    def test_negative_partners_cover_all_nodes(self):
        g = self.graph(n=6)
        pairs = self.pairs_for(g, 6)
        cfg = TrainConfig(d=4, negatives=5, batch_size=10_000)
        (batch,) = list(make_batches(pairs, g, cfg, epoch_seed=9))
        partners = batch.j[batch.s == 0.0]  # the golds are > 0
        assert partners.min() >= 0 and partners.max() < g.n

    def test_neighbor_slots_respect_adjacency(self):
        g = TaxonomyGraph(
            ["r", "x", "y", "lone"], [("x", "r"), ("y", "r")]
        )
        pairs = Pairs.from_rows([TrainingPair("r", "x", 1.0), TrainingPair("lone", "y", 0.2)])
        cfg = TrainConfig(d=4, negatives=2, batch_size=1000)
        (batch,) = list(make_batches(pairs, g, cfg, epoch_seed=5))
        for e in range(len(batch)):
            for node, slot in ((batch.i[e], batch.ni[e]), (batch.j[e], batch.nj[e])):
                if len(g.neighbors[node]) == 0:
                    assert slot == -1
                else:
                    assert slot in g.neighbors[node]

    def test_empty_pairs_rejected(self):
        g = self.graph()
        with pytest.raises(ConfigError):
            list(make_batches(Pairs.from_rows([]), g, TrainConfig(d=4), epoch_seed=0))


class TestTraining:
    def test_deterministic_given_seed(self):
        g = random_tree_graph(20, 4)
        build = build_full(g, DatasetConfig(measure="shp", seed=1))
        cfg = TrainConfig(d=8, epochs=3, seed=11)
        m1 = train(build.pairs, g, cfg)
        m2 = train(build.pairs, g, cfg)
        assert m1.matrix.tobytes() == m2.matrix.tobytes()
        m3 = train(build.pairs, g, TrainConfig(d=8, epochs=3, seed=12))
        assert m1.matrix.tobytes() != m3.matrix.tobytes()

    def test_loss_decreases(self):
        g = random_tree_graph(30, 5)
        build = build_full(g, DatasetConfig(measure="shp", seed=3))
        stats = []
        cfg = TrainConfig(d=16, epochs=8, seed=7)
        train(build.pairs, g, cfg, on_epoch=stats.append)
        assert len(stats) == 8
        assert stats[-1].mean_loss < stats[0].mean_loss
        assert stats[-1].median_loss < stats[0].median_loss

    def test_single_pair_converges_to_target(self):
        g = TaxonomyGraph(["a", "b"], [("b", "a")])
        pairs = Pairs.from_rows([TrainingPair("a", "b", 0.8)])
        cfg = TrainConfig(
            d=4, alpha=0.0, negatives=0, l1=0.0, epochs=500,
            learning_rate=0.01, batch_size=10, seed=1,
        )
        m = train(pairs, g, cfg)
        assert abs(score(m, "a", "b") - 0.8) < 1e-2

    def test_regularizer_pulls_adjacent_rows_together(self):
        g = random_tree_graph(30, 5)
        build = build_full(g, DatasetConfig(measure="shp", seed=3))

        def mean_edge_dot(alpha):
            cfg = TrainConfig(d=16, alpha=alpha, negatives=2, epochs=10, seed=7)
            m = train(build.pairs, g, cfg)
            dots = [
                float(m.matrix[c].astype(np.float64) @ m.matrix[p].astype(np.float64))
                for c in range(g.n)
                for p in g.parents[c]
            ]
            return sum(dots) / len(dots)

        assert mean_edge_dot(0.1) > mean_edge_dot(0.0) + 0.05

    def test_early_stopping_restores_best_snapshot(self):
        g = random_tree_graph(25, 9)
        build = build_full(g, DatasetConfig(measure="shp", seed=0))
        dev = build.pairs[::3]
        tr = Pairs.from_rows(p for k, p in enumerate(build.pairs) if k % 3)
        stats = []
        cfg = TrainConfig(d=8, epochs=60, seed=2, dev_set=dev, early_stop_patience=2)
        m = train(tr, g, cfg, on_epoch=stats.append)
        assert len(stats) < 60
        from taxovec.evaluation import spearman

        returned = spearman([score(m, p.u, p.v) for p in dev], [p.s for p in dev])
        best_seen = max(s.dev_spearman for s in stats)
        assert returned == pytest.approx(best_seen, abs=1e-12)

    def test_without_dev_set_runs_all_epochs(self):
        g = random_tree_graph(15, 2)
        build = build_full(g, DatasetConfig(measure="shp", seed=1))
        stats = []
        train(build.pairs, g, TrainConfig(d=4, epochs=6, seed=0), on_epoch=stats.append)
        assert [s.epoch for s in stats] == list(range(6))
        assert all(s.dev_spearman is None for s in stats)

    def test_nonfinite_loss_reports_location(self):
        g = TaxonomyGraph(["a", "b", "c"], [("b", "a"), ("c", "b")])
        pairs = Pairs.from_rows([TrainingPair("a", "b", 1e155), TrainingPair("b", "c", 0.5)])
        with pytest.raises(NumericError, match="epoch 0"):
            train(pairs, g, TrainConfig(d=4, seed=0))

    def test_unknown_pair_node_rejected(self):
        g = TaxonomyGraph(["a", "b"], [("b", "a")])
        with pytest.raises(UnknownNodeError):
            train(Pairs.from_rows([TrainingPair("a", "z", 0.5)]), g, TrainConfig(d=4))

    def test_unknown_id_of_a_pairs_file_named_in_file_order(self, tmp_path):
        g = TaxonomyGraph(["a", "b"], [("b", "a")])
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tx\t0.5\nq\tb\t0.2\n")
        pairs, _ = read_pairs(path)
        with pytest.raises(UnknownNodeError, match="'x'"):
            train(pairs, g, TrainConfig(d=4))

    @pytest.mark.parametrize(
        "dev, error",
        [
            (Pairs.from_rows([TrainingPair("n000", "zz", 0.5)] * 3), UnknownNodeError),
            (Pairs.from_rows([TrainingPair("n000", "n001", 0.5), TrainingPair("n001", "n002", 0.3)]), DataError),
            (Pairs.from_rows([TrainingPair("n000", f"n00{k}", 0.5) for k in range(1, 5)]), DataError),
        ],
        ids=["unknown-id", "two-pairs", "constant-golds"],
    )
    def test_bad_dev_set_fails_before_the_first_batch(self, dev, error, monkeypatch):
        import taxovec.trainer

        calls = []
        core = taxovec.trainer._loss_and_grads

        def spy(*args, **kwargs):
            calls.append(1)
            return core(*args, **kwargs)

        monkeypatch.setattr(taxovec.trainer, "_loss_and_grads", spy)
        g = random_tree_graph(12, 6)
        build = build_full(g, DatasetConfig(measure="shp", seed=1))
        with pytest.raises(error):
            train(build.pairs, g, TrainConfig(d=4, epochs=2, dev_set=dev))
        assert calls == []

    def test_dtype_controls_storage(self):
        g = random_tree_graph(12, 6)
        build = build_full(g, DatasetConfig(measure="shp", seed=1))
        m32 = train(build.pairs, g, TrainConfig(d=4, epochs=2, dtype="float32"))
        m64 = train(build.pairs, g, TrainConfig(d=4, epochs=2, dtype="float64"))
        assert m32.matrix.dtype == np.float32
        assert m64.matrix.dtype == np.float64


class TestScore:
    def test_dot(self):
        m = EmbeddingMatrix(["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert score(m, "a", "b", "dot") == pytest.approx(11.0)

    def test_cosine_parallel_and_orthogonal(self):
        m = EmbeddingMatrix(
            ["a", "b", "c"], np.array([[2.0, 0.0], [5.0, 0.0], [0.0, 1.0]])
        )
        assert score(m, "a", "b", "cosine") == pytest.approx(1.0)
        assert score(m, "a", "c", "cosine") == pytest.approx(0.0)

    def test_cosine_zero_vector(self):
        m = EmbeddingMatrix(["a", "b"], np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert score(m, "a", "b", "cosine") == 0.0

    def test_unknown_mode_and_node(self):
        m = EmbeddingMatrix(["a"], np.zeros((1, 2)))
        with pytest.raises(ConfigError):
            score(m, "a", "a", "euclid")
        with pytest.raises(UnknownNodeError):
            score(m, "a", "zzz")


class TestModelIO:
    def test_round_trip_float32(self, tmp_path):
        rng = np.random.default_rng(0)
        m = EmbeddingMatrix(["a", "b", "c"], rng.normal(size=(3, 5)).astype(np.float32))
        path = tmp_path / "emb.txt"
        save_embeddings(m, path)
        loaded = load_embeddings(path, dtype="float32")
        assert loaded.ids == m.ids
        assert np.array_equal(loaded.matrix, m.matrix)
        assert path.read_text().splitlines()[0] == "3 5"

    def test_round_trip_float64(self, tmp_path):
        rng = np.random.default_rng(1)
        m = EmbeddingMatrix(["x", "y"], rng.normal(size=(2, 3)))
        path = tmp_path / "emb.txt"
        save_embeddings(m, path)
        loaded = load_embeddings(path, dtype="float64")
        assert np.array_equal(loaded.matrix, m.matrix)

    def test_load_skips_utf8_bom(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("\ufeff2 2\na 1.0 0.5\nb 0.0 -2.0\n", encoding="utf-8")
        loaded = load_embeddings(path, dtype="float64")
        assert loaded.ids == ("a", "b")
        assert loaded.matrix.tolist() == [[1.0, 0.5], [0.0, -2.0]]

    def test_whitespace_id_rejected(self, tmp_path):
        m = EmbeddingMatrix(["a", "b", "c d"], np.zeros((3, 2)))
        with pytest.raises(DataError, match="whitespace"):
            save_embeddings(m, tmp_path / "emb.txt")
        assert not (tmp_path / "emb.txt").exists()

    def test_load_validation(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("2\n")
        with pytest.raises(DataError, match=":1"):
            load_embeddings(p)
        p.write_text("1 2\na 0.5\n")
        with pytest.raises(DataError, match=":2"):
            load_embeddings(p)
        p.write_text("1 2\na 0.5 inf\n")
        with pytest.raises(DataError, match="non-finite"):
            load_embeddings(p)
        p.write_text("1 2\na 0.5 oops\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_embeddings(p)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(d=0)
        with pytest.raises(ConfigError):
            TrainConfig(d=4, negatives=-1)
        with pytest.raises(ConfigError):
            TrainConfig(d=4, learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(d=4, epochs=0)

    @pytest.mark.parametrize("field", ["alpha", "l1", "learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_hyperparameters_are_config_errors(self, field, value):
        # NaN compares false against every bound, so it used to pass unchecked
        with pytest.raises(ConfigError, match=field):
            TrainConfig(d=4, **{field: value})


@settings(max_examples=40, deadline=None, database=None)
@given(g=graphs, mode=st.sampled_from(MODES), seed=st.integers(0, 3))
def test_training_on_the_written_file_saves_the_same_bytes(g, mode, seed):
    # read_pairs numbers ids by first mention in the file, the build by graph
    # index; Pairs.on must map both to the same rows
    cfg = DatasetConfig(measure="shp", top_k=3, seed=seed)
    try:
        build = (build_full if mode == "full" else build_fast)(g, cfg)
    except (EmptyDatasetError, DegenerateRangeError):
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.tsv"
        write_pairs(path, build)
        read, _ = read_pairs(path)
        saved = []
        for pairs in (build.pairs, read):
            m = train(pairs, g, TrainConfig(d=3, epochs=2, batch_size=16, seed=seed))
            save_embeddings(m, path)
            saved.append(path.read_bytes())
    assert saved[0] == saved[1]


def train_digest(tmp_path, **overrides):
    """sha256 of the saved text embedding of one seeded run, with the
    number of epochs it ran and of pairs it trained on.

    The graph has multiple inheritance; with `early_stop` a third of the
    pairs becomes the dev set and training runs until patience ends it.
    """
    g = random_dag_graph(40, 3, extra=12)
    pairs = build_full(g, DatasetConfig(measure="shp", seed=1)).pairs
    kwargs = dict(d=24, epochs=3, seed=5)
    if overrides.pop("early_stop", False):
        kwargs.update(epochs=60, dev_set=pairs[::3])
        pairs = Pairs.from_rows(p for k, p in enumerate(pairs) if k % 3)
    kwargs.update(overrides)
    stats = []
    m = train(pairs, g, TrainConfig(**kwargs), on_epoch=stats.append)
    path = tmp_path / "emb.txt"
    save_embeddings(m, path)
    return hashlib.sha256(path.read_bytes()).hexdigest(), len(stats), len(pairs)


class TestByteIdentity:
    """Same seed, same bytes: pins the trainer's exact arithmetic, so a
    rewrite of the batch core that reorders a sum or rounds differently
    fails here even when every statistical test still passes.

    The digests also depend on numpy's generator streams and reduction
    kernels (captured with numpy 2.4 on x86-64). After a numpy upgrade
    that moves them, recapture them from an unchanged trainer.
    """

    CASES = {
        "float32": (
            {},
            "92f209b88c6ee898cc3b942ea9f15dbc5d32284612b3cd0da8e4ee26586ddc90",
        ),
        "float64": (
            {"dtype": "float64"},
            "a756d400885abdb7838133c78ce4c29e75540817788ab99c8c173d03b391e66b",
        ),
        "no_reg_no_l1": (
            {"alpha": 0.0, "l1": 0.0},
            "4956ce0760de6fcda058a572ea8728fca9e3f1b09230c80df5dded8475cf4f4b",
        ),
        "neg_total": (
            {"neg_total": True},
            "20a39f21c24f68f21c1b1347ea1c4a3bf30c5053326fa115aba2b16832722ef1",
        ),
        "ragged_batches": (
            {"batch_size": 97},
            "518241ad0b74428c2e7a009761659e7718ff1e997dca792086df92113e4c43b4",
        ),
        "early_stop": (
            {"early_stop": True},
            "d3f1b114f6dc0d4b10722cf1ae652ec0cae24319813b8100c8046fb8b69686c1",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_digest(self, case, tmp_path):
        overrides, expected = self.CASES[case]
        digest, epochs, n_pairs = train_digest(tmp_path, **overrides)
        if case == "ragged_batches":
            assert (n_pairs * 7) % 97 != 0
        if case == "early_stop":
            assert epochs < 60
        assert digest == expected
