"""Benchmark tests: one-vs-all scoring correctness and timing plumbing."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from taxovec.bench import one_vs_all_dot, one_vs_all_graph, run_benchmark
from taxovec.errors import ConfigError
from taxovec.graph import compute_depths
from taxovec.metrics import lch_from_path, pair_similarity, propagate_counts
from taxovec.trainer import EmbeddingMatrix, score

from conftest import graph_from, random_dag_edges, random_dag_graph, random_tree_graph


class TestOneVsAllGraph:
    def test_chain_shortest_path_scores(self, chain3):
        got = one_vs_all_graph(chain3, "shp", "a")
        assert got.tolist() == pytest.approx([1.0, 0.5, 1 / 3])

    def test_disconnected_scores_zero(self):
        from taxovec.graph import TaxonomyGraph

        g = TaxonomyGraph(["a", "b", "lone"], [("b", "a")])
        got = one_vs_all_graph(g, "shp", "a")
        assert got[g.idx("lone")] == 0.0

    def test_matches_pairwise_measures(self):
        # three DAGs, then a forest of five trees (some sharing a child), bare and under a virtual root
        forest = [(c, p) for c, p in random_dag_edges(25, 3, extra=4) if c % 5]
        graphs = [random_dag_graph(25, seed, extra=4) for seed in range(3)]
        graphs += [graph_from(25, forest, virtual_root=False), graph_from(25, forest, virtual_root=True)]
        for seed, g in enumerate(graphs):
            rng = np.random.default_rng(seed)
            table = propagate_counts(
                g, [float(x) for x in rng.integers(1, 6, size=g.n)]
            )
            for measure in ("shp", "lch", "wup", "jcn"):
                for src in (g.ids[0], g.ids[g.n // 2], g.ids[-1]):
                    row = one_vs_all_graph(g, measure, src, ic_table=table)
                    for t, tid in enumerate(g.ids):
                        want = pair_similarity(measure, g, src, tid, ic_table=table)
                        assert row[t] == want

    def test_jcn_keeps_infinity_on_self(self, chain3):
        table = propagate_counts(chain3, [1.0, 1.0, 1.0])
        row = one_vs_all_graph(chain3, "jcn", "b", ic_table=table)
        assert math.isinf(row[chain3.idx("b")])

    def test_lch_reads_the_graphs_depths(self, chain3):
        # D = 3 on the chain a <- b <- c; a stale positional DepthIndex is refused
        assert one_vs_all_graph(chain3, "lch", "a").tolist() == [lch_from_path(d, 3) for d in (0, 1, 2)]
        with pytest.raises(TypeError):
            one_vs_all_graph(chain3, "lch", "a", compute_depths(chain3))


class TestOneVsAllDot:
    def test_small_matrix_by_hand(self):
        m = EmbeddingMatrix(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert one_vs_all_dot(m, "a").tolist() == [1.0, 0.0]

    def test_matches_pairwise_scores(self):
        rng = np.random.default_rng(8)
        ids = [f"n{k}" for k in range(30)]
        m = EmbeddingMatrix(ids, rng.normal(size=(30, 12)).astype(np.float32))
        row = np.asarray(one_vs_all_dot(m, "n7"), dtype=np.float64)
        for t, tid in enumerate(ids):
            assert row[t] == pytest.approx(score(m, "n7", tid), abs=1e-6)

    def test_unit_rows_rank_self_first(self):
        rng = np.random.default_rng(4)
        V = rng.normal(size=(20, 8))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        m = EmbeddingMatrix([f"n{k}" for k in range(20)], V)
        row = one_vs_all_dot(m, "n13")
        assert int(np.argmax(row)) == 13


@pytest.mark.filterwarnings("ignore:median pass time")
class TestRunBenchmark:
    """Fixtures are tiny, so the (correct) timer-resolution warning is muted."""

    def model_for(self, g, d=16, seed=0):
        rng = np.random.default_rng(seed)
        return EmbeddingMatrix(g.ids, rng.normal(size=(g.n, d)).astype(np.float32))

    def test_reports_both_methods(self):
        g = random_tree_graph(40, 1)
        m = self.model_for(g)
        result = run_benchmark(g, "shp", m, queries=list(g.ids[:5]), repeats=5)
        assert result.graph is not None and result.dot is not None
        assert result.graph.method == "graph[shp]"
        assert result.dot.method == "dot[float32]"
        assert result.graph.speedup == 1.0
        assert result.dot.speedup == pytest.approx(
            result.graph.seconds_per_query / result.dot.seconds_per_query
        )
        assert result.graph.n_targets == g.n
        assert 0.0 <= result.topk_overlap <= 1.0

    def test_graph_only(self):
        g = random_tree_graph(20, 2)
        result = run_benchmark(
            g, "shp", None, queries=[g.ids[0]], repeats=5, methods=("graph",)
        )
        assert result.dot is None
        assert result.topk_overlap is None
        assert result.graph.repeats == 5

    def test_timer_warning_on_tiny_workload(self, chain3):
        m = self.model_for(chain3, d=2)
        with pytest.warns(UserWarning, match="timer resolution"):
            result = run_benchmark(
                chain3, "shp", m, queries=["a"], repeats=5, methods=("dot",)
            )
        assert result.dot.timer_warning

    def test_perfect_overlap_when_model_reproduces_measure(self, chain3):
        # rows engineered so dot products equal the shp scores from "a"
        V = np.array(
            [[1.0, 0.0], [0.5, 0.5], [1 / 3, 1 / 9]], dtype=np.float64
        )
        m = EmbeddingMatrix(chain3.ids, V)
        got = one_vs_all_dot(m, "a")
        assert got.tolist() == pytest.approx([1.0, 0.5, 1 / 3])
        result = run_benchmark(
            chain3, "shp", m, queries=["a"], repeats=5, topk=3
        )
        assert result.topk_overlap == 1.0

    def test_config_errors(self, chain3):
        m = self.model_for(chain3, d=2)
        with pytest.raises(ConfigError, match="repeats"):
            run_benchmark(chain3, "shp", m, queries=["a"], repeats=1)
        with pytest.raises(ConfigError, match="at least one query"):
            run_benchmark(chain3, "shp", m, queries=[], repeats=5)
        with pytest.raises(ConfigError, match="unknown method"):
            run_benchmark(
                chain3, "shp", m, queries=["a"], repeats=5, methods=("turbo",)
            )
        with pytest.raises(ConfigError, match="requires an embedding"):
            run_benchmark(
                chain3, "shp", None, queries=["a"], repeats=5, methods=("dot",)
            )

    @pytest.mark.parametrize("topk", [0, -2])
    def test_a_top_k_below_one_is_a_config_error(self, chain3, topk):
        # 0 used to divide by zero in the overlap, and -2 to report an overlap of -0.5
        m = self.model_for(chain3, d=2)
        with pytest.raises(ConfigError, match=f"topk must be >= 1, got {topk}"):
            run_benchmark(chain3, "shp", m, queries=["a"], repeats=5, topk=topk)

    def test_dot_time_roughly_independent_of_graph_size(self):
        # a coarse sanity check: per-query dot time should scale with the
        # matrix, not with graph traversal work, so doubling d should not
        # change the picture by orders of magnitude
        rng = np.random.default_rng(0)
        ids = [f"n{k}" for k in range(400)]
        times = {}
        for d in (64, 256):
            m = EmbeddingMatrix(ids, rng.normal(size=(len(ids), d)).astype(np.float32))
            row = m.matrix[0]
            t0 = time.perf_counter()
            for _ in range(200):
                m.matrix @ row
            times[d] = time.perf_counter() - t0
            row = m.matrix[1]
        assert times[256] < times[64] * 50
