"""The benchmark's three workloads, their output checks and layer probes.

Each workload drives taxovec's public functions in the order its CLI
subcommands use them, from one process with a single closed-loop client:
an op starts only when the previous one has finished, as when a
researcher runs one command at a time and waits for it.

- build: `similarities` four times per pass (full shp, wup and jcn on a
  400-node DAG; fast shp on a 3,000-node DAG). graph, metrics and
  dataset do the work; trainer does none.
- train: `train` (d=300, float32, default hyperparameters, fixed epoch
  count) on the pairs of a 400-node DAG, then the text embedding save.
  trainer does the work; graph only builds its adjacency and dataset
  only reads.
- query: 100 one-vs-all queries (shp graph row and embedding dot row),
  `eval-sim` with static and with dynamic selection, and a `wsd` sweep
  with the model scorer, on a 12,000-node DAG with a 12,000 x 300
  embedding loaded once per set-up.

A pass is one round of a workload's ops; passes repeat until the run's
seconds are spent (at least one pass, two in a traced run). Every timing
is rescaled to the reference speed (see speed.py) and reported as the
median over its samples. The end-to-end `pass_s` sums, over the calls one
pass makes, each call's median times its calls per pass, so a stage's
share of a pass is its share of the figure.
"""

from __future__ import annotations

import bisect
import math
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import gen
from spans import Tracer
from speed import SpeedRef

from taxovec import (
    DatasetConfig,
    ModelScorer,
    TrainConfig,
    batch_gradients,
    build_fast,
    build_full,
    compute_depths,
    disambiguate,
    evaluate,
    load_edge_list,
    load_embeddings,
    load_raw_counts,
    make_batches,
    one_vs_all_dot,
    one_vs_all_graph,
    pair_similarity,
    propagate_counts,
    read_pairs,
    save_embeddings,
    score,
    spearman,
    train,
    write_manifest,
    write_pairs,
)
from taxovec import evaluation as tx_eval
from taxovec import wsd as tx_wsd
from taxovec.graph import bfs_distances

# Set up at least this many times and for at least this long: a set-up
# of a few milliseconds needs hundreds of samples for a steady median.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's correctness checks."""


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def ranks(x: np.ndarray) -> np.ndarray:
    """1-based fractional ranks with ties averaged."""
    _, inv, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2.0)[inv]


def ref_spearman(x, y) -> float:
    """Spearman's rho computed independently of taxovec.evaluation."""
    rx = ranks(np.asarray(x, dtype=np.float64))
    ry = ranks(np.asarray(y, dtype=np.float64))
    rx -= rx.mean()
    ry -= ry.mean()
    return float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))


def read_graph_file(path: Path) -> tuple[dict[str, int], list[list[int]]]:
    """Node index (first-seen order) and undirected adjacency, parsed here
    so that reference values do not depend on taxovec.graph."""
    index: dict[str, int] = {}
    edges = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split("\t")
        for node in fields:
            index.setdefault(node, len(index))
        if len(fields) == 2:
            edges.append((index[fields[0]], index[fields[1]]))
    adj: list[set[int]] = [set() for _ in index]
    for c, p in edges:
        adj[c].add(p)
        adj[p].add(c)
    return index, [sorted(a) for a in adj]


class Run:
    """One benchmark run: op accounting, timing samples and counts.

    A timing sample is (start, seconds); `med` rescales each by the
    machine speed measured around its start before taking the median.
    """

    def __init__(self, seed: int, seconds: float, traced: bool, inputs: Path, out: Path, record: dict):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.inp = inputs
        self.out = out
        self.record = record
        self.tr = Tracer(False)
        self.rng = np.random.default_rng([seed, 7])  # samples for checks and probes
        self.speed = SpeedRef()
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.values: dict[str, list[float]] = defaultdict(list)  # figures that are not times
        self.counts: dict[str, float] = {}

    @contextmanager
    def call(self, layer: str, name: str, key: str):
        """Span around one taxovec call; on success its seconds go to samples[key]."""
        with self.tr.span(layer, name) as sp:
            yield sp
        self.samples[key].append((sp.start, sp.seconds))

    @contextmanager
    def op(self, name: str):
        """One user-level command. It fails if it raises or a check fails;
        the failure is counted and reported and the run goes on."""
        self.speed.measure()
        self.attempted += 1
        try:
            with self.tr.span("perfbench", name, op=self.attempted):
                yield
        except Exception:  # any failure of an op is a result to report
            self.failed += 1
            print(f"op {self.attempted} ({name}) failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        finally:
            # each op writes fresh files, as a new command would, rather
            # than truncating the last op's files in place
            for f in self.out.iterdir():
                f.unlink()

    def scaled(self, key: str) -> list[float]:
        """Samples of `key` in seconds at the reference speed."""
        return [secs * self.speed.factor(t) for t, secs in self.samples.get(key, ())]

    def med(self, key: str) -> float:
        values = self.scaled(key)
        return statistics.median(values) if values else 0.0

    def value_med(self, key: str) -> float:
        values = self.values.get(key)
        return statistics.median(values) if values else math.nan

    def raw_med(self, key: str) -> float:
        """Median wall seconds of `key`, not rescaled."""
        return statistics.median(secs for _, secs in self.samples[key])

    def per_pass(self, keys: list[tuple[str, int]]) -> float:
        """Seconds one pass spends in `keys`, each weighted by its calls per pass."""
        return sum(count * self.med(key) for key, count in keys)

    def setup(self, fn):
        """Set up repeatedly, each time from files; keep the last state."""
        state = None
        start = time.perf_counter()
        while len(self.samples["setup"]) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
            state = None  # drop the previous state before loading again
            self.speed.measure()
            t0 = time.perf_counter()
            state = fn()
            self.samples["setup"].append((t0, time.perf_counter() - t0))
        self.speed.measure()
        return state

    def measure(self, run_pass) -> None:
        """Passes until the run's seconds are spent. A traced run alternates
        untraced and traced passes so that their difference is the tracing
        overhead; within the passes, spans come from traced ones only."""
        deadline = time.perf_counter() + self.seconds
        k = 0
        while k < 1 + self.traced or time.perf_counter() < deadline:
            self.tr.enabled = self.traced and k % 2 == 1
            t0 = time.perf_counter()
            run_pass()
            key = "pass.traced" if self.tr.enabled else "pass.untraced"
            self.samples[key].append((t0, time.perf_counter() - t0))
            self.speed.measure()
            k += 1
        self.tr.enabled = False


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- build

BUILD_KINDS = (
    ("full_shp", "full", "shp"),
    ("full_wup", "full", "wup"),
    ("full_jcn", "full", "jcn"),
    ("fast_shp", "fast", "shp"),
)


class BuildWorkload:
    def __init__(self, run: Run):
        self.run = run
        self.pass_keys = [(f"{layer}.{k}", 1) for k, _, _ in BUILD_KINDS
                          for layer in ("dataset.build", "dataset.write", "manifest.write")]

    def load(self) -> dict:
        r = self.run
        st = {}
        for which in ("full", "fast"):
            with r.call("graph", "load_edge_list", f"graph.load.{which}"):
                st[which] = load_edge_list(r.inp / f"{which}_graph.tsv")
        with r.call("graph", "compute_depths", "graph.depths"):
            st["depths"] = compute_depths(st["full"])
        with r.call("metrics", "load_raw_counts", "metrics.load_raw_counts"):
            raw = load_raw_counts(r.inp / "full_counts.tsv", st["full"])
        with r.call("metrics", "propagate_counts", "metrics.propagate_counts"):
            st["ic"] = propagate_counts(st["full"], raw)
        return st

    def prepare(self, st: dict) -> None:
        self.st = st

    def run_pass(self) -> None:
        r, st = self.run, self.st
        for kind, mode, measure in BUILD_KINDS:
            with r.op(f"similarities.{kind}"):
                g = st[mode]
                cfg = DatasetConfig(measure=measure, mode=mode, seed=r.seed)
                builder = build_fast if mode == "fast" else build_full
                t0 = time.perf_counter()
                with r.call("dataset", f"build_{mode}", f"dataset.build.{kind}"):
                    b = builder(g, cfg, st["depths"], st["ic"])
                out = r.out / f"pairs_{kind}.tsv"
                with r.call("dataset", "write_pairs", f"dataset.write.{kind}"):
                    write_pairs(out, b)
                inputs = {"graph": r.inp / f"{mode}_graph.tsv"}
                if measure == "jcn":
                    inputs["ic_counts"] = r.inp / "full_counts.tsv"
                with r.call("manifest", "write_manifest", f"manifest.write.{kind}"):
                    write_manifest(f"{out}.manifest", "similarities", b.header(), inputs,
                                   r.seed, time.perf_counter() - t0)
                self.check(kind, g, measure, b, out)

    def check(self, kind: str, g, measure: str, b, out: Path) -> None:
        """Pairs-file invariants, and a seeded sample of rows rescored with
        pair_similarity and normalized with the file's own range."""
        r, st = self.run, self.st
        mode = kind.split("_")[0]
        check(b.candidate_count == r.record["facts"][f"{mode}_candidates"],
              f"{kind}: {b.candidate_count} candidates, generator counted "
              f"{r.record['facts'][f'{mode}_candidates']}")
        meta, rows = {}, []
        for line in out.read_text(encoding="utf-8").splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            else:
                u, v, s = line.split("\t")
                rows.append((u, v, float(s)))
        check(len(rows) == len(b.pairs) > 0, f"{kind}: {len(rows)} rows written")
        k = int(meta["top_k"])
        lo, hi = float(meta["norm_min"]), float(meta["norm_max"])
        partners: dict[str, list[tuple[float, str]]] = defaultdict(list)
        seen = set()
        for u, v, s in rows:
            check(0.0 <= s <= 1.0, f"{kind}: similarity {s!r} outside [0,1]")
            check(u != v, f"{kind}: self pair {u!r}")
            key = (u, v) if u < v else (v, u)
            check(key not in seen, f"{kind}: duplicate pair {key}")
            seen.add(key)
            partners[u].append((s, v))
            partners[v].append((s, u))
        # Each node keeps its k best partners, so every pair must be among
        # the k best partners of at least one of its two endpoints.
        sims = {u: sorted(s for s, _ in ps) for u, ps in partners.items()}
        for u, v, s in rows:
            better_u = len(sims[u]) - bisect.bisect_right(sims[u], s)
            better_v = len(sims[v]) - bisect.bisect_right(sims[v], s)
            check(min(better_u, better_v) < k, f"{kind}: pair ({u}, {v}) outside both top-{k} lists")

        for u in r.rng.choice(sorted(partners), size=2, replace=False):
            u = str(u)
            for s, v in partners[u]:
                with r.call("metrics", "pair_similarity", "metrics.pair"):
                    raw = pair_similarity(measure, g, u, v, st["depths"], st["ic"])
                want = 1.0 if math.isinf(raw) else min(1.0, max(0.0, (raw - lo) / (hi - lo)))
                check(abs(want - s) <= 1e-9, f"{kind}: ({u}, {v}) has s={s!r}, rescored {want!r}")
        r.counts[f"dataset.candidates.{kind}"] = b.candidate_count
        r.counts[f"dataset.kept.{kind}"] = b.threshold_kept
        r.counts[f"dataset.pairs.{kind}"] = len(b.pairs)
        r.counts[f"dataset.useful_frac.{kind}"] = len(b.pairs) / b.candidate_count

    def report(self) -> dict:
        r = self.run
        out = {}
        for kind, _, _ in BUILD_KINDS:
            secs = sum(r.med(f"{layer}.{kind}") for layer in ("dataset.build", "dataset.write", "manifest.write"))
            out[f"build.{kind}_s"] = (secs, "s")
        return out

    def layers(self) -> dict:
        r, st = self.run, self.st
        full = st["full"]
        r.speed.measure()
        with r.call("graph", "ancestors", "graph.ancestors"):
            for i in range(full.n):
                full.ancestors(i)
        for src in r.rng.integers(0, full.n, 20):
            with r.call("graph", "bfs_distances", "graph.bfs"):
                bfs_distances(full.neighbors, int(src))
        r.speed.measure()
        m = {
            "graph.load_s": r.med("graph.load.full") + r.med("graph.load.fast"),
            "graph.depths_s": r.med("graph.depths"),
            "graph.ancestors_s": r.med("graph.ancestors"),
            "graph.bfs_ms": 1e3 * r.med("graph.bfs"),
            "graph.nodes": full.n + st["fast"].n,
            "graph.edges": sum(map(len, full.parents)) + sum(map(len, st["fast"].parents)),
            "metrics.ic_s": r.med("metrics.load_raw_counts") + r.med("metrics.propagate_counts"),
            "dataset.write_s": r.per_pass([(f"dataset.write.{k}", 1) for k, _, _ in BUILD_KINDS]),
            "manifest.write_s": r.per_pass([(f"manifest.write.{k}", 1) for k, _, _ in BUILD_KINDS]),
        }
        for kind, _, _ in BUILD_KINDS:
            m[f"dataset.build_s.{kind}"] = r.med(f"dataset.build.{kind}")
        return m


# ---------------------------------------------------------------- train

TRAIN_DIM = 300
TRAIN_EPOCHS = 2
FIT_FLOOR = 0.2  # Spearman of model dots against training golds


class TrainWorkload:
    def __init__(self, run: Run):
        self.run = run
        self.pass_keys = [("trainer.train", 1), ("trainer.save", 1), ("manifest.write", 1)]

    def load(self) -> dict:
        r = self.run
        with r.call("graph", "load_edge_list", "graph.load"):
            g = load_edge_list(r.inp / "graph.tsv")
        with r.call("dataset", "read_pairs", "dataset.read.pairs"):
            pairs, _ = read_pairs(r.inp / "pairs.tsv")
        with r.call("dataset", "read_pairs", "dataset.read.dev"):
            dev, _ = read_pairs(r.inp / "dev.tsv")
        return {"g": g, "pairs": pairs, "dev": dev}

    def prepare(self, st: dict) -> None:
        self.st = st
        self.model = None  # the last trained model, for the layer probes
        # patience equal to the epoch count: every command runs every epoch
        self.cfg = TrainConfig(d=TRAIN_DIM, epochs=TRAIN_EPOCHS, seed=self.run.seed,
                               early_stop_patience=TRAIN_EPOCHS, dev_set=st["dev"])
        pick = self.run.rng.choice(len(st["pairs"]), size=min(2000, len(st["pairs"])), replace=False)
        self.fit_sample = [st["pairs"][int(i)] for i in pick]

    def run_pass(self) -> None:
        r, st = self.run, self.st
        with r.op("train"):
            stats = []
            t0 = time.perf_counter()

            def on_epoch(s):
                stats.append((time.perf_counter(), s))

            with r.call("trainer", "train", "trainer.train"):
                m = train(st["pairs"], st["g"], self.cfg, on_epoch=on_epoch)
            marks = [t0] + [t for t, _ in stats]
            r.samples["trainer.epoch"].extend((a, b - a) for a, b in zip(marks, marks[1:]))
            out = r.out / "embedding.txt"
            with r.call("trainer", "save_embeddings", "trainer.save"):
                save_embeddings(m, out)
            inputs = {"graph": r.inp / "graph.tsv", "pairs": r.inp / "pairs.tsv", "dev_pairs": r.inp / "dev.tsv"}
            with r.call("manifest", "write_manifest", "manifest.write"):
                write_manifest(f"{out}.manifest", "train", {"d": TRAIN_DIM, "epochs": TRAIN_EPOCHS},
                               inputs, r.seed, time.perf_counter() - t0)

            check(len(stats) == TRAIN_EPOCHS, f"{len(stats)} epochs ran, expected {TRAIN_EPOCHS}")
            for _, s in stats:
                check(math.isfinite(s.mean_loss), f"epoch {s.epoch}: loss {s.mean_loss!r}")
                check(s.dev_spearman is not None and math.isfinite(s.dev_spearman),
                      f"epoch {s.epoch}: dev Spearman {s.dev_spearman!r}")
            check(m.matrix.shape == (st["g"].n, TRAIN_DIM) and bool(np.isfinite(m.matrix).all()),
                  "embedding has the wrong shape or non-finite entries")
            M = m.matrix.astype(np.float64)
            idx = m.index
            dots = [float(M[idx[p.u]] @ M[idx[p.v]]) for p in self.fit_sample]
            rho = ref_spearman(dots, [p.s for p in self.fit_sample])
            r.values["fit_spearman"].append(rho)
            check(rho >= FIT_FLOOR, f"fit Spearman {rho:.4f} below {FIT_FLOOR}")
            self.model = m

    def report(self) -> dict:
        r = self.run
        return {
            "train.epoch_s": (r.med("trainer.epoch"), "s"),
            "train.save_s": (r.med("trainer.save") + r.med("manifest.write"), "s"),
            "train.fit_spearman": (r.value_med("fit_spearman"), "rho"),
        }

    def layers(self) -> dict:
        """Replays one epoch's parts outside train(): batch assembly, the
        gradients of every batch, and the dev-set scoring."""
        r, st, m, cfg = self.run, self.st, self.model, self.cfg
        if m is None:  # every train op failed; the result already says so
            return {}
        r.speed.measure()
        with r.call("trainer", "make_batches", "trainer.make_batches"):
            batches = list(make_batches(st["pairs"], st["g"], cfg, [cfg.seed, 0]))
        touched = []
        r.speed.measure()
        with r.call("trainer", "batch_gradients", "trainer.grads"):
            for b in batches:
                rows, _ = batch_gradients(m, b, cfg.alpha, cfg.l1)
                touched.append(len(rows))
        r.speed.measure()
        with r.call("trainer", "score", "trainer.dev_score"):
            preds = [score(m, p.u, p.v) for p in st["dev"]]
        golds = [p.s for p in st["dev"]]
        with r.call("evaluation", "spearman", "evaluation.spearman"):
            spearman(preds, golds)
        r.speed.measure()
        epoch = r.med("trainer.epoch")
        dev = r.med("trainer.dev_score") + r.med("evaluation.spearman")
        parts = r.med("trainer.make_batches") + r.med("trainer.grads") + dev
        return {
            "graph.load_s": r.med("graph.load"),
            "graph.nodes": st["g"].n,
            "graph.edges": sum(map(len, st["g"].parents)),
            "dataset.read_s": r.med("dataset.read.pairs") + r.med("dataset.read.dev"),
            "trainer.epoch_s": epoch,
            "trainer.make_batches_s": r.med("trainer.make_batches"),
            "trainer.grads_s": r.med("trainer.grads"),
            "trainer.dev_s": dev,
            "trainer.other_s": epoch - parts,
            "trainer.save_s": r.med("trainer.save"),
            "trainer.batches": len(batches),
            "trainer.entries": sum(len(b) for b in batches),
            "trainer.touched_rows_mean": float(np.mean(touched)),
            "evaluation.spearman_ms": 1e3 * r.med("evaluation.spearman"),
            "manifest.write_s": r.med("manifest.write"),
        }


# ---------------------------------------------------------------- query

QUERIES = 100
WSD_SWEEP = (0.90, 0.93, 0.96, 0.99)  # the CLI sweep 0.90:0.99:0.03
DOT_RTOL = 1e-5


class QueryWorkload:
    def __init__(self, run: Run):
        self.run = run
        self.pass_keys = [("bench.graph", QUERIES), ("bench.dot", QUERIES),
                          ("evaluation.static", 1), ("evaluation.dynamic", 1),
                          ("wsd.disambiguate", len(WSD_SWEEP)), ("wsd.write", 1),
                          ("manifest.write.eval", 2), ("manifest.write.wsd", 1)]

    def load(self) -> dict:
        r = self.run
        with r.call("graph", "load_edge_list", "graph.load"):
            g = load_edge_list(r.inp / "graph.tsv")
        with r.call("graph", "compute_depths", "graph.depths"):
            depths = compute_depths(g)
        with r.call("trainer", "load_embeddings", "trainer.load"):
            m = load_embeddings(r.inp / "embedding.txt")
        with r.call("evaluation", "load_lemma_pairs", "evaluation.load"):
            lemma_pairs = tx_eval.load_lemma_pairs(r.inp / "lemma_pairs.tsv")
            candidates = tx_eval.load_candidates(r.inp / "candidates.tsv")
            records, missing = tx_eval.make_records(lemma_pairs, candidates)
        with r.call("wsd", "load_instances", "wsd.load"):
            instances = tx_wsd.load_instances(r.inp / "wsd.tsv")
        return {"g": g, "depths": depths, "m": m, "records": records, "missing": missing,
                "instances": instances}

    def prepare(self, st: dict) -> None:
        """Query nodes and reference answers, computed once and untimed."""
        r = self.run
        self.st = st
        g, m = st["g"], st["m"]
        self.scorer = ModelScorer(m, "dot")
        self.queries = [g.ids[int(i)] for i in r.rng.choice(g.n, size=QUERIES, replace=False)]
        self.graph_checked = set(self.queries[::10])
        index, adj = read_graph_file(r.inp / "graph.tsv")
        check(len(index) == g.n, "graph file and loaded graph disagree on the node count")
        M = m.matrix
        dist = {}

        def dot(u, v):
            return float(M[m.idx(u)].astype(np.float64) @ M[m.idx(v)].astype(np.float64))

        static_pred, dyn_pred = [], []
        for rec in st["records"]:
            best_sim = best_dyn = None
            for c1 in rec.candidates1:
                if c1 not in dist:
                    dist[c1] = gen.bfs(adj, index[c1])
                for c2 in rec.candidates2:
                    d = dist[c1][index[c2]]
                    sim = 1.0 / (1.0 + d) if d >= 0 else None
                    if sim is not None and (best_sim is None or sim > best_sim[0]):
                        best_sim = (sim, c1, c2)
                    s = dot(c1, c2)
                    if best_dyn is None or s > best_dyn:
                        best_dyn = s
            static_pred.append(dot(best_sim[1], best_sim[2]))
            dyn_pred.append(best_dyn)
        golds = [rec.gold_score for rec in st["records"]]
        self.want_rho = {"static": ref_spearman(static_pred, golds), "dynamic": ref_spearman(dyn_pred, golds)}
        self.wsd_pairs = sum(
            len(a.candidates) * len(b.candidates)
            for inst in st["instances"]
            for i, a in enumerate(inst.tokens)
            for b in inst.tokens[i + 1:]
        )

    def run_pass(self) -> None:
        r, st = self.run, self.st
        g, m = st["g"], st["m"]
        for q in self.queries:
            with r.op("bench.query"):
                with r.call("bench", "one_vs_all_graph", "bench.graph"):
                    grow = one_vs_all_graph(g, "shp", q)
                with r.call("bench", "one_vs_all_dot", "bench.dot"):
                    drow = one_vs_all_dot(m, q)
                self.check_rows(q, grow, drow)
        model = r.inp / "embedding.txt"
        eval_inputs = {"graph": r.inp / "graph.tsv", "pairs": r.inp / "lemma_pairs.tsv",
                       "candidates": r.inp / "candidates.tsv", "model": model}
        for selection in ("static", "dynamic"):
            with r.op(f"eval-sim.{selection}"):
                t0 = time.perf_counter()
                with r.call("evaluation", "evaluate", f"evaluation.{selection}"):
                    rep = evaluate(st["records"], self.scorer, selection, g=g, measure="shp")
                with r.call("manifest", "write_manifest", "manifest.write.eval"):
                    write_manifest(r.out / f"eval-{selection}.manifest", "eval-sim",
                                   {"selection": selection, "measure": "shp"}, eval_inputs,
                                   None, time.perf_counter() - t0)
                check(rep.n_evaluated + rep.n_excluded == len(st["records"]),
                      f"{selection}: {rep.n_evaluated} evaluated + {rep.n_excluded} excluded")
                want = self.want_rho[selection]
                check(abs(rep.spearman - want) <= 1e-9,
                      f"{selection}: Spearman {rep.spearman!r}, reference {want!r}")
                r.counts["evaluation.excluded"] = st["missing"] + rep.n_excluded
        with r.op("wsd"):
            t0 = time.perf_counter()
            preds = None
            for t in WSD_SWEEP:
                with r.call("wsd", "disambiguate", "wsd.disambiguate"):
                    preds, skipped = disambiguate(st["instances"], tx_wsd.WsdConfig(self.scorer, t))
                self.check_wsd(preds, skipped)
                f1 = tx_wsd.micro_f1(preds, tx_wsd.gold_maps(st["instances"])).f1
                r.values[f"wsd.f1@{t:.2f}"].append(f1)
            sweep = r.samples["wsd.disambiguate"][-len(WSD_SWEEP):]
            r.samples["wsd.sweep"].append((sweep[0][0], sum(secs for _, secs in sweep)))
            out = r.out / "wsd-predictions.tsv"
            with r.call("wsd", "write_predictions", "wsd.write"):
                tx_wsd.write_predictions(out, st["instances"], preds)
            with r.call("manifest", "write_manifest", "manifest.write.wsd"):
                write_manifest(f"{out}.manifest", "wsd", {"threshold": WSD_SWEEP[-1]},
                               {"graph": r.inp / "graph.tsv", "instances": r.inp / "wsd.tsv", "model": model},
                               r.seed, time.perf_counter() - t0)

    def check_rows(self, q: str, grow: np.ndarray, drow: np.ndarray) -> None:
        """The dot row against a float64 matvec; every tenth query's graph
        row against pair_similarity at sampled targets."""
        r, g, m = self.run, self.st["g"], self.st["m"]
        qi = m.idx(q)
        targets = r.rng.integers(0, m.n, 64)
        rows = m.matrix[targets].astype(np.float64)
        qv = m.matrix[qi].astype(np.float64)
        want = rows @ qv
        scale = np.abs(rows) @ np.abs(qv)
        err = np.abs(drow[targets].astype(np.float64) - want)
        check(bool(np.all(err <= DOT_RTOL * scale + 1e-12)), f"{q}: dot row off by up to {err.max():.3g}")
        check(grow.shape == (g.n,) and grow[g.idx(q)] == 1.0, f"{q}: graph row malformed")
        if q in self.graph_checked:
            for t in r.rng.integers(0, g.n, 5):
                with r.call("metrics", "pair_similarity", "metrics.pair"):
                    want_s = pair_similarity("shp", g, q, g.ids[int(t)])
                check(abs(float(grow[int(t)]) - want_s) <= 1e-12,
                      f"{q}: graph row {grow[int(t)]!r} vs pair_similarity {want_s!r}")

    def check_wsd(self, preds, skipped: int) -> None:
        check(skipped == 0, f"WSD skipped {skipped} pairs")
        check(len(preds) == len(self.st["instances"]), "WSD prediction count")
        for inst, pred in zip(self.st["instances"], preds):
            for tok in inst.tokens:
                check(pred.get(tok.index) in tok.candidates,
                      f"{inst.instance_id}: pick {pred.get(tok.index)!r} not a candidate")

    def report(self) -> dict:
        r = self.run
        pct = {}
        for method in ("graph", "dot"):
            ms = 1e3 * np.asarray(r.scaled(f"bench.{method}") or [0.0])
            pct[f"query.{method}_ms_p50"] = (float(np.percentile(ms, 50)), "ms")
            pct[f"query.{method}_ms_p90"] = (float(np.percentile(ms, 90)), "ms")
        pct["query.samples"] = (len(r.samples["bench.graph"]), "count")
        pct["query.eval_static_s"] = (r.med("evaluation.static"), "s")
        pct["query.eval_dynamic_s"] = (r.med("evaluation.dynamic"), "s")
        pct["query.wsd_s"] = (r.med("wsd.sweep"), "s")
        for t in WSD_SWEEP:
            pct[f"query.wsd_f1@{t:.2f}"] = (r.value_med(f"wsd.f1@{t:.2f}"), "f1")
        return pct

    def layers(self) -> dict:
        r, st = self.run, self.st
        g, m = st["g"], st["m"]
        r.speed.measure()
        for q in self.queries[:20]:
            with r.call("graph", "bfs_distances", "graph.bfs"):
                bfs_distances(g.neighbors, g.idx(q))
        for _ in range(200):
            u, v = (g.ids[int(i)] for i in r.rng.integers(0, g.n, 2))
            with r.call("trainer", "score", "trainer.score"):
                score(m, u, v)
        grow = one_vs_all_graph(g, "shp", self.queries[0])
        drow = one_vs_all_dot(m, self.queries[0])
        for _ in range(5):
            with r.call("evaluation", "spearman", "evaluation.spearman"):
                spearman(grow.tolist(), drow.tolist())
        r.speed.measure()
        dot_bytes = m.n * m.d * m.matrix.itemsize
        dot_s = r.med("bench.dot")
        dot_gbps = dot_bytes / r.raw_med("bench.dot") / 1e9  # bandwidth in wall time
        mem_bytes, mem_gbps = copy_bandwidth()
        recs = st["records"]
        return {
            "graph.load_s": r.med("graph.load"),
            "graph.depths_s": r.med("graph.depths"),
            "graph.bfs_ms": 1e3 * r.med("graph.bfs"),
            "graph.nodes": g.n,
            "graph.edges": sum(map(len, g.parents)),
            "metrics.pair_us": 1e6 * r.med("metrics.pair"),
            "metrics.pair_calls": len(r.samples["metrics.pair"]),
            "trainer.load_s": r.med("trainer.load"),
            "trainer.score_us": 1e6 * r.med("trainer.score"),
            "evaluation.static_s": r.med("evaluation.static"),
            "evaluation.dynamic_s": r.med("evaluation.dynamic"),
            "evaluation.spearman_ms": 1e3 * r.med("evaluation.spearman"),
            "evaluation.records": len(recs),
            "evaluation.excluded": r.counts.get("evaluation.excluded", 0),
            "evaluation.pairs_tried": sum(len(x.candidates1) * len(x.candidates2) for x in recs),
            "wsd.disambiguate_s": r.med("wsd.disambiguate"),
            "wsd.candidate_pairs": self.wsd_pairs,
            "wsd.skipped": 0,
            "bench.graph_ms": 1e3 * r.med("bench.graph"),
            "bench.dot_ms": 1e3 * dot_s,
            "bench.dot_bytes": dot_bytes,
            "bench.dot_gbps": dot_gbps,
            "bench.speedup": r.med("bench.graph") / dot_s,
            "bench.mem_bytes": mem_bytes,
            "bench.mem_gbps": mem_gbps,
            "bench.dot_bw_frac": dot_gbps / mem_gbps,
            "manifest.write_s": r.per_pass([("manifest.write.eval", 2), ("manifest.write.wsd", 1)]),
        }


def llc_bytes() -> int:
    """Size of the largest CPU cache, from sysfs; 0 when unreadable."""
    best = 0
    for f in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = f.read_text().strip()
        mult = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        try:
            best = max(best, int(text.rstrip("KM")) * mult)
        except ValueError:
            continue
    return best


def copy_bandwidth() -> tuple[int, float]:
    """Copy an array four times the last-level cache (at least 420 MB) and
    return (array bytes, GB/s counting the read and the write)."""
    nbytes = max(420_000_000, 4 * llc_bytes())
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    del src, dst
    return nbytes, 2 * nbytes / statistics.median(times) / 1e9


WORKLOADS = {"build": BuildWorkload, "train": TrainWorkload, "query": QueryWorkload}
