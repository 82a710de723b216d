"""Acceptance gate: one test per shipped guarantee, checked end to end.

Every quantitative test prints its measured numbers so each pass/fail
line in `pytest -v` carries its evidence. Checks compare the package
against the independent oracle implementations in `oracles.py` or
against hand-computed fixtures; nothing here reuses library internals
to verify the library.
"""

from __future__ import annotations

import math
import time

import numpy as np

from taxovec.bench import one_vs_all_dot, one_vs_all_graph, run_benchmark
from taxovec.cli import main
from taxovec.dataset import DatasetConfig, build_fast, build_full
from taxovec.evaluation import spearman
from taxovec.graph import TaxonomyGraph, compute_depths
from taxovec.metrics import pair_similarity, propagate_counts
from taxovec.trainer import (
    Batch,
    EmbeddingMatrix,
    TrainConfig,
    batch_gradients,
    batch_loss,
    train,
)
from taxovec.wsd import SentenceInstance, Token, WsdConfig, build_sentence_graph, select_senses

from conftest import ids_for, random_dag_edges, random_tree_graph, rooted_tree_edges
from oracles import (
    ancestor_closure,
    depth_oracle,
    finite_difference_grads,
    floyd_warshall_undirected,
    ic_counts_oracle,
    lcs_oracle,
    spearman_oracle,
)


def _oracle_similarity(measure, dist, anc, depths, counts, total, u, v):
    """Reference similarity from oracle distance/ancestor/count tables."""
    d = float(dist[u, v])
    if measure == "shp":
        return 0.0 if math.isinf(d) else 1.0 / (1.0 + d)
    if measure == "lch":
        if math.isinf(d):
            return 0.0
        return -math.log((d + 1.0) / (2.0 * max(depths)))
    lcs = lcs_oracle(anc, depths, u, v)
    if measure == "wup":
        if lcs is None:
            return 0.0
        return 2.0 * depths[lcs] / (depths[u] + depths[v])

    def ic(x):
        return math.inf if counts[x] <= 0.0 else -math.log(counts[x] / total)

    iu, iv = ic(u), ic(v)
    if math.isinf(iu) or math.isinf(iv) or lcs is None:
        return 0.0
    gap = iu + iv - 2.0 * ic(lcs)
    return math.inf if gap < 1e-12 else 1.0 / gap


def _random_graph(n, seed, want_tree, rng):
    """Index edge list for a random tree or a tree plus extra DAG edges."""
    if want_tree:
        return rooted_tree_edges(n, seed)
    room = (n - 1) * (n - 2) // 2
    return random_dag_edges(n, seed, extra=min(int(rng.integers(0, 6)), room))


def test_criterion_1_metric_oracle_equivalence():
    """All four similarity measures match brute-force oracles on 200 graphs.

    Distances come from Floyd-Warshall, subsumers from exhaustive
    ancestor-set intersection, and information content from explicit
    descendant enumeration; the library side uses its own BFS and
    topological machinery, so agreement is meaningful.
    """
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    checks = 0
    for k in range(200):
        n = int(rng.integers(2, 51))
        edges = _random_graph(n, k, want_tree=k % 2 == 0, rng=rng)
        ids = ids_for(n)
        g = TaxonomyGraph(ids, [(ids[c], ids[p]) for c, p in edges])

        dist = floyd_warshall_undirected(n, edges)
        anc = ancestor_closure(n, edges)
        odepths = depth_oracle(n, edges)
        raw = [float(x) for x in rng.integers(0, 7, size=n)]
        if sum(raw) == 0.0:
            raw[0] = 1.0
        counts, total = ic_counts_oracle(n, edges, raw)

        depths = compute_depths(g)
        table = propagate_counts(g, raw)
        for u in range(n):
            for v in range(u, n):
                for measure in ("shp", "lch", "wup", "jcn"):
                    got = pair_similarity(measure, g, ids[u], ids[v], depths, table)
                    want = _oracle_similarity(
                        measure, dist, anc, odepths, counts, total, u, v
                    )
                    checks += 1
                    if math.isinf(got) or math.isinf(want):
                        assert math.isinf(got) and math.isinf(want), (
                            f"infinity mismatch: {measure} on pair "
                            f"({ids[u]}, {ids[v]}) of graph {k}: "
                            f"got {got!r}, oracle {want!r}"
                        )
                        continue
                    worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    print(
        f"200 graphs, {checks} measure values vs oracles: "
        f"max abs diff {worst:.2e} (needs <= 1e-9) in {elapsed:.1f}s"
    )
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_2_gradient_check():
    """Analytic batch gradients match central finite differences.

    Fifty random instances cycle through alpha in {0, 0.01}, batches with
    and without negative entries, and neighbor slots present or masked.
    Matrix magnitudes stay >= 0.2 so the L1 subgradient sign is stable
    under the 1e-5 probe step.
    """
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        n_rows = int(rng.integers(2, 21))
        d = int(rng.integers(1, 9))
        alpha = 0.0 if trial % 2 == 0 else 0.01
        with_negatives = trial % 4 < 2
        with_neighbors = trial % 8 < 4
        l1 = 0.0 if trial < 25 else 1e-3

        V = rng.uniform(0.2, 1.0, size=(n_rows, d))
        V *= np.where(rng.random(V.shape) < 0.5, -1.0, 1.0)
        n_entries = int(rng.integers(1, 13))
        i = rng.integers(0, n_rows, n_entries)
        j = rng.integers(0, n_rows, n_entries)
        s = rng.random(n_entries)
        if with_negatives:
            s[rng.random(n_entries) < 0.5] = 0.0
        if with_neighbors:
            ni = rng.integers(0, n_rows, n_entries)
            nj = rng.integers(0, n_rows, n_entries)
            ni[rng.random(n_entries) < 0.25] = -1
            nj[rng.random(n_entries) < 0.25] = -1
        else:
            ni = np.full(n_entries, -1, dtype=np.int64)
            nj = np.full(n_entries, -1, dtype=np.int64)
        batch = Batch(i=i, j=j, s=s, ni=ni, nj=nj)

        m = EmbeddingMatrix([f"n{r}" for r in range(n_rows)], V)
        touched, grads = batch_gradients(m, batch, alpha=alpha, l1=l1)
        fd = finite_difference_grads(
            lambda M: batch_loss(EmbeddingMatrix(m.ids, M), batch, alpha=alpha, l1=l1),
            V,
            touched,
        )
        scale = max(1.0, float(np.abs(fd).max()))
        worst = max(worst, float(np.abs(grads - fd).max()) / scale)
    elapsed = time.perf_counter() - t0
    print(
        f"50 gradient instances: max relative error {worst:.2e} "
        f"(needs < 1e-4) in {elapsed:.1f}s"
    )
    assert worst < 1e-4
    assert elapsed < 10.0


def _fit_spearman(m, pairs):
    dots = [float(m.row(p.u) @ m.row(p.v)) for p in pairs]
    return spearman(dots, [p.s for p in pairs])


def test_criterion_3_end_to_end_training():
    """Training on a 100-node tree reaches rank correlation >= 0.9."""
    t0 = time.perf_counter()
    g = random_tree_graph(100, 42)
    build = build_full(g, DatasetConfig(measure="shp", seed=42))
    m = train(build.pairs, g, TrainConfig(d=32, epochs=15, seed=42))
    rho = _fit_spearman(m, build.pairs)
    elapsed = time.perf_counter() - t0
    print(
        f"d=32, 15 epochs on {len(build.pairs)} pairs: "
        f"spearman {rho:.4f} (needs >= 0.9) in {elapsed:.1f}s"
    )
    assert rho >= 0.9
    assert elapsed < 60.0


def test_criterion_4_fast_dataset_fidelity():
    """Fast builds equal full builds restricted to distance <= 2, and
    training on the fast data stays close to the full-data fit.

    The set equality and raw-value agreement are checked for the two
    measures that decrease strictly with distance (shp, lch), where the
    restriction claim is well defined: under them every candidate within
    distance 2 outranks every farther candidate, so the per-node top-k
    cutoffs agree between modes.

    The quality check trains the same model configuration on both
    datasets and compares each fit on its own training pairs, printing
    the structural context: the fast gold column carries only two
    distinct levels (distance one and two), which caps its best
    achievable rank correlation below the required margin.
    """
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    for k in range(50):
        n = int(rng.integers(5, 101))
        edges = _random_graph(n, 100 + k, want_tree=k % 2 == 0, rng=rng)
        ids = ids_for(n)
        g = TaxonomyGraph(ids, [(ids[c], ids[p]) for c, p in edges])
        dist = floyd_warshall_undirected(n, edges)
        depths = compute_depths(g)
        for measure, threshold in (("shp", None), ("lch", 0.0)):
            cfg = DatasetConfig(measure=measure, threshold=threshold, seed=k)
            full = build_full(g, cfg, depths)
            fast = build_fast(g, cfg, depths)
            full_raw = {
                (p.u, p.v): p.s * (full.norm_max - full.norm_min) + full.norm_min
                for p in full.pairs
            }
            near = {
                pair: s
                for pair, s in full_raw.items()
                if dist[g.idx(pair[0]), g.idx(pair[1])] <= 2.0
            }
            fast_raw = {
                (p.u, p.v): p.s * (fast.norm_max - fast.norm_min) + fast.norm_min
                for p in fast.pairs
            }
            assert set(fast_raw) == set(near), (
                f"graph {k} ({measure}): fast pair set differs from the "
                f"distance <= 2 restriction of the full build"
            )
            gap = max(abs(fast_raw[pair] - near[pair]) for pair in fast_raw)
            assert gap <= 1e-9, f"graph {k} ({measure}): raw value gap {gap:.2e}"

    g3 = random_tree_graph(100, 42)
    cfg3 = DatasetConfig(measure="shp", seed=42)
    full3 = build_full(g3, cfg3)
    fast3 = build_fast(g3, cfg3)
    tcfg = TrainConfig(d=32, epochs=15, seed=42)
    rho_full = _fit_spearman(train(full3.pairs, g3, tcfg), full3.pairs)
    m_fast = train(fast3.pairs, g3, tcfg)
    rho_fast = _fit_spearman(m_fast, fast3.pairs)
    drop = rho_full - rho_fast

    golds = [p.s for p in fast3.pairs]
    order = np.argsort(golds, kind="stable")
    separated = np.empty(len(golds))
    separated[order] = np.arange(len(golds), dtype=np.float64)
    ceiling = spearman(separated.tolist(), golds)
    elapsed = time.perf_counter() - t0
    print(
        f"50 graphs restricted-equality: ok; quality: full fit {rho_full:.4f} "
        f"on {len(full3.pairs)} pairs, fast fit {rho_fast:.4f} on "
        f"{len(fast3.pairs)} pairs, degradation {drop:.4f} (needs <= 0.07); "
        f"perfect-separation ceiling of the two-level fast golds "
        f"{ceiling:.4f}; fast model on the full pairs "
        f"{_fit_spearman(m_fast, full3.pairs):.4f}; {elapsed:.0f}s"
    )
    assert elapsed < 120.0
    assert drop <= 0.07, (
        f"fast-data training degrades the fit by {drop:.4f} (> 0.07); the "
        f"fast golds only take two values, capping its fit at {ceiling:.4f} "
        f"vs the full-data fit of {rho_full:.4f}"
    )


def test_criterion_5_rank_correlation_oracle():
    """Spearman matches a counting-rank oracle and is monotone-invariant.

    One thousand random vector pairs, roughly half quantized to force
    heavy ties, must agree with the oracle to 1e-12. Strictly increasing
    transforms of either side must leave the result bitwise unchanged.
    """
    rng = np.random.default_rng(5)

    def draw(n):
        vals = rng.random(n)
        if rng.random() < 0.5:
            vals = np.round(vals, 1)
        while len(set(vals.tolist())) < 2:
            vals = rng.random(n)
        return [float(v) for v in vals]

    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 31))
        x, y = draw(n), draw(n)
        worst = max(worst, abs(spearman(x, y) - spearman_oracle(x, y)))

    for _ in range(50):
        n = int(rng.integers(3, 31))
        x, y = draw(n), draw(n)
        base = spearman(x, y)
        assert spearman([3.0 * v + 1.0 for v in x], y) == base
        assert spearman([math.exp(v) for v in x], y) == base
        assert spearman(x, [v**3 for v in y]) == base
    elapsed = time.perf_counter() - t0
    print(
        f"1000 vector pairs vs oracle: max abs diff {worst:.2e} "
        f"(needs <= 1e-12); monotone transforms exact; {elapsed:.1f}s"
    )
    assert worst <= 1e-12


class _PairTable:
    """Symmetric lookup-table scorer for hand-built sentence fixtures."""

    name = "table"

    def __init__(self, table, default=0.0):
        self.table = {frozenset(k): v for k, v in table.items()}
        self.default = default

    def has(self, node):
        return True

    def grid(self, us, vs):
        cells = [self.table.get(frozenset((u, v)), self.default) for u in us for v in vs]
        return np.array(cells, dtype=np.float64).reshape(len(us), len(vs))


def test_criterion_6_wsd_selection_logic():
    """Sense selection reproduces hand-summed weighted degrees exactly."""
    inst = SentenceInstance(
        "s1",
        (
            Token(0, "alpha", ("A1", "A2"), "A2"),
            Token(1, "beta", ("B1", "B2"), "B1"),
        ),
    )
    scorer = _PairTable(
        {
            ("A1", "B1"): 0.6,
            ("A1", "B2"): 0.7,
            ("A2", "B1"): 0.9,
            ("A2", "B2"): 0.55,
        }
    )

    # all four cross-token scores clear the threshold; degrees by hand,
    # written as the same float sums the accumulator performs
    graph = build_sentence_graph(inst, WsdConfig(scorer, threshold=0.5))
    assert len(graph.edges) == 4
    assert graph.degree[(0, "A1")] == 0.6 + 0.7
    assert graph.degree[(0, "A2")] == 0.9 + 0.55
    assert graph.degree[(1, "B1")] == 0.6 + 0.9
    assert graph.degree[(1, "B2")] == 0.7 + 0.55
    assert select_senses(graph, inst) == {0: "A2", 1: "B1"}

    # raising the threshold to 0.7 drops the 0.6 and 0.55 edges and,
    # because the comparison is strict, the 0.7 edge as well
    graph = build_sentence_graph(inst, WsdConfig(scorer, threshold=0.7))
    assert len(graph.edges) == 1
    assert graph.degree[(0, "A1")] == 0.0
    assert graph.degree[(0, "A2")] == 0.9
    assert select_senses(graph, inst) == {0: "A2", 1: "B1"}

    # equal degrees fall back to the earliest candidate in listed order
    tied = SentenceInstance(
        "s2",
        (
            Token(0, "gamma", ("X2", "X1"), None),
            Token(1, "delta", ("Y1",), None),
        ),
    )
    graph = build_sentence_graph(tied, WsdConfig(_PairTable({}, default=0.8), threshold=0.5))
    assert graph.degree[(0, "X2")] == graph.degree[(0, "X1")] == 0.8
    assert select_senses(graph, tied) == {0: "X2", 1: "Y1"}

    # no surviving edges at all: every token falls back to its first sense
    graph = build_sentence_graph(tied, WsdConfig(_PairTable({}, default=0.8), threshold=0.99))
    assert not graph.edges
    assert select_senses(graph, tied) == {0: "X2", 1: "Y1"}
    print("hand-built sentence fixtures: degrees, exclusions, tie-breaks exact")


def test_criterion_7_one_vs_all_speedup():
    """One-vs-all dot products vs graph traversal on an 82k-node taxonomy.

    Builds a random recursive tree, times both one-vs-all paths through
    the public benchmark entry point, verifies the vectorized outputs
    against per-pair calls on sampled targets, and asserts the measured
    speedup of the d=300 dot products over the lch traversal.
    """
    t0 = time.perf_counter()
    n = 82_000
    rng = np.random.default_rng(7)
    parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    ids = [f"n{i}" for i in range(n)]
    g = TaxonomyGraph(ids, [(ids[i], ids[int(p)]) for i, p in enumerate(parents, start=1)])
    depths = compute_depths(g)
    V = rng.uniform(-0.05, 0.05, size=(n, 300)).astype(np.float32)
    m = EmbeddingMatrix(ids, V)

    queries = [ids[0], ids[n // 2], ids[n - 1]]
    res = run_benchmark(g, "lch", m, queries, repeats=5, depths=depths)
    graph_s = res.graph.seconds_per_query
    dot_s = res.dot.seconds_per_query
    speedup = graph_s / dot_s

    lch_row = one_vs_all_graph(g, "lch", queries[1], depths)
    for t in rng.integers(0, n, 120):
        want = pair_similarity("lch", g, queries[1], ids[int(t)], depths)
        assert abs(float(lch_row[int(t)]) - want) <= 1e-6
    dot_row = one_vs_all_dot(m, queries[1])
    qrow = m.row(queries[1])
    for t in rng.integers(0, n, 500):
        want = float(qrow @ m.matrix[int(t)])
        assert abs(float(dot_row[int(t)]) - want) <= 1e-6

    elapsed = time.perf_counter() - t0
    print(
        f"n={n} d=300: graph lch {graph_s * 1e3:.2f} ms/query, "
        f"dot {dot_s * 1e3:.3f} ms/query, speedup {speedup:.1f}x "
        f"(needs >= 100x); sampled outputs match per-pair calls; "
        f"total {elapsed:.0f}s"
    )
    assert elapsed < 300.0
    assert speedup >= 100.0, (
        f"one-vs-all dot products are {speedup:.1f}x faster than the lch "
        f"traversal ({graph_s * 1e3:.2f} ms vs {dot_s * 1e3:.3f} ms per "
        f"query), below the required 100x"
    )


TREE_EDGES = "a\tr\nb\tr\nc\ta\nd\ta\ne\tb\nf\tb\n"
INSTANCES = "s1\t0\tfirst\tc,e\tc\ns1\t1\tsecond\td\td\n\ns2\t0\tonly\tf\tf\n"


def test_criterion_8_cli_determinism(tmp_path, monkeypatch):
    """similarities, train, and wsd rerun to byte-identical outputs.

    Two runs in separate directories use the same relative inputs and
    flags; every output file must match byte for byte and the manifests
    must agree on everything except wall time.
    """

    def run_all(workdir):
        workdir.mkdir()
        (workdir / "tree.tsv").write_text(TREE_EDGES)
        (workdir / "inst.tsv").write_text(INSTANCES)
        monkeypatch.chdir(workdir)
        assert main(["similarities", "--graph", "tree.tsv", "--measure", "shp",
                     "--seed", "3", "--output", "pairs.tsv"]) == 0
        assert main(["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv",
                     "--dim", "8", "--epochs", "3", "--seed", "3",
                     "--output", "emb.txt"]) == 0
        assert main(["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv",
                     "--measure", "shp", "--threshold", "0.3",
                     "--predictions", "preds.tsv"]) == 0
        outputs = {
            name: (workdir / name).read_bytes()
            for name in ("pairs.tsv", "emb.txt", "preds.tsv")
        }
        manifests = {
            p.name: "\n".join(
                line
                for line in p.read_text().splitlines()
                if not line.startswith("wall_time_s=")
            )
            for p in workdir.glob("*.manifest")
        }
        return outputs, manifests

    out_a, man_a = run_all(tmp_path / "one")
    out_b, man_b = run_all(tmp_path / "two")
    for name in out_a:
        assert out_a[name] == out_b[name], f"{name} differs between reruns"
    assert man_a == man_b
    print("similarities, train, wsd: outputs byte-identical across reruns")
