"""A/B a stage of taxovec at a git revision against the working tree's.

Extracts `src/taxovec` as committed at REV (`git archive`) and imports it
under another package name next to the working tree's, so each side runs
its own package end to end on inputs it loads itself. Each case checks
that both sides write byte-identical output (sha256; `DIFFER` exits 1),
then times alternating rounds, the side that runs first alternating, and
prints each side's median and quartiles and the rounds the working tree won.

- `build`: pairs files for shp, lch, wup and jcn in full and fast mode on
  perfbench's `build` inputs, timed as build + write_pairs. With `--nodes
  N --measure M [--mode {full,fast}]`: one build per side and round (full
  unless --mode says fast), each in a child process, on a `gen.make_dag`
  graph of N nodes (seed: the first of --seeds), jcn with the IC table of
  `gen.write_counts` counts written beside it; the identity is checked
  after the first round, and each side's peak RSS (ru_maxrss) is printed
  with the times. A failed child is one line naming its error (exit 1).
- `rows`: one-vs-all shp and lch rows (`one_vs_all_graph`) of ROW_QUERIES
  fixed nodes, one 3x3 shp and lch `grid`, and one 64x64 shp and lch
  `grid` (the shape of `MeasureScorer.pairs`), on perfbench's `query`
  graph, or with `--nodes N` on a `gen.make_dag` graph of N nodes.
- `query [--measure M]`: `disambiguate_sweep` with the model (dot) scorer
  and with a raw `MeasureScorer` of M (shp unless --measure says otherwise),
  and static and dynamic `evaluate` with the model scorer and M as the
  selection measure, on perfbench's `query` inputs, jcn with the IC table
  of `gen.write_counts` counts written beside them; the outputs compared
  are each sweep's predictions and skipped counts, and each report. Then
  the three `write_manifest` calls of perfbench's query pass (static and
  dynamic eval-sim, wsd) on the same inputs, `wall_time_s` fixed at 0.0,
  compared as the three manifests' bytes.
- `train`: saved embeddings of train() on perfbench's `train` inputs
  (d=300, float32, 2 epochs, with the dev set). With `--star`: time per
  batch on a star graph (one root, LEAVES leaves, every root-leaf pair at
  s=1, one epoch, no dev set), where the root recurs in nearly every
  entry, the worst case for a per-row gradient sum.

    python3 tools/ab.py build --rev HEAD --seeds 5 6 --pairs 10
    python3 tools/ab.py build --rev HEAD --nodes 12000 --measure wup --mode fast --pairs 5
    python3 tools/ab.py rows --rev HEAD --seeds 7 11
    python3 tools/ab.py query --rev HEAD --seeds 7 11
    python3 tools/ab.py query --rev HEAD --seeds 7 --measure jcn
    python3 tools/ab.py train --rev HEAD --star --batch-sizes 100 1000

Inputs go under a temporary directory unless --work names one.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import io
import math
import multiprocessing
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402  (perfbench's input generator, used read-only)

MEASURES = ("shp", "lch", "wup", "jcn")
MODES = ("full", "fast")
TRAIN_DIM = 300  # as perfbench's train workload
TRAIN_EPOCHS = 2
STAR_NEGATIVES = 3  # per side, the trainer's default: each pair makes 1 + 2 * 3 entries
ROW_MEASURES = ("shp", "lch")
ROW_QUERIES = 20  # one-vs-all rows per round; the first six nodes also make the 3x3 grid
GRID_SIDES = (3, 64)  # grids of that many seeded ids against as many others; 64 is a block of sources
MODEL_SWEEP = (0.90, 0.93, 0.96, 0.99)  # perfbench's sweep
MEASURE_SWEEP = (0.2, 0.25, 1 / 3, 0.5)  # raw shp scores 1/(1 + path length); other measures: other picks, same work


def package(root: Path, name: str):
    """Import the taxovec package under `root` (a directory holding
    taxovec/) as `name`; its modules import each other relatively."""
    spec = importlib.util.spec_from_file_location(
        name, root / "taxovec" / "__init__.py", submodule_search_locations=[str(root / "taxovec")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    for sub in ("bench", "dataset", "evaluation", "graph", "metrics", "trainer", "wsd"):
        importlib.import_module(f"{name}.{sub}")
    return module


def extract(rev: str, into: Path) -> Path:
    """src/taxovec as committed at rev, written under `into`; returns the directory holding taxovec/."""
    archive = subprocess.run(["git", "archive", rev, "src/taxovec"], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into / "src"


def load_build(graph: Path, counts: Path, mode: str, measure: str, pkg):
    g = pkg.graph.load_edge_list(graph)
    table = pkg.metrics.propagate_counts(g, pkg.metrics.load_raw_counts(counts, g)) if measure == "jcn" else None
    return g, pkg.dataset.DatasetConfig(measure=measure, mode=mode), table


def build_once(pkg, inputs, out: Path) -> float:
    """Seconds of one build + write_pairs, as the benchmark's build pass times them."""
    g, cfg, table = inputs
    builder = pkg.dataset.build_fast if cfg.mode == "fast" else pkg.dataset.build_full
    t0 = time.perf_counter()
    pkg.dataset.write_pairs(out, builder(g, cfg, ic_table=table))
    return time.perf_counter() - t0


def build_cases(seeds: list[int], work: Path):
    for seed in seeds:
        inputs = work / f"build-{seed}"
        gen.generate("build", seed, inputs)  # keeps a directory already there
        for measure in MEASURES:
            for mode in MODES:
                graph, counts = inputs / f"{mode}_graph.tsv", inputs / "full_counts.tsv"
                load = functools.partial(load_build, graph, counts, mode, measure)
                yield f"seed {seed} {mode} {measure}", load, build_once, "pairs files", 1e3, "ms"


def load_train(inputs: Path, seed: int, pkg):
    dev, _ = pkg.dataset.read_pairs(inputs / "dev.tsv")
    cfg = pkg.trainer.TrainConfig(d=TRAIN_DIM, epochs=TRAIN_EPOCHS, seed=seed,
                                  early_stop_patience=TRAIN_EPOCHS, dev_set=dev)
    return pkg.graph.load_edge_list(inputs / "graph.tsv"), pkg.dataset.read_pairs(inputs / "pairs.tsv")[0], cfg


def load_star(leaves: int, batch_size: int, seed: int, pkg):
    ids = ["root"] + [f"leaf{k}" for k in range(leaves)]
    g = pkg.graph.TaxonomyGraph(ids, [(leaf, "root") for leaf in ids[1:]])
    pairs = pkg.dataset.Pairs.from_rows(("root", leaf, 1.0) for leaf in ids[1:])
    cfg = pkg.trainer.TrainConfig(d=TRAIN_DIM, epochs=1, seed=seed, batch_size=batch_size, negatives=STAR_NEGATIVES)
    return g, pairs, cfg


def train_once(pkg, inputs, out: Path) -> float:
    """Seconds of one train(); the embedding it returns is saved to out, untimed."""
    g, pairs, cfg = inputs
    t0 = time.perf_counter()
    m = pkg.trainer.train(pairs, g, cfg)
    secs = time.perf_counter() - t0
    pkg.trainer.save_embeddings(m, out)
    return secs


def train_cases(seeds: list[int], work: Path):
    for seed in seeds:
        inputs = work / f"train-{seed}"
        gen.generate("train", seed, inputs)
        load = functools.partial(load_train, inputs, seed)
        yield f"train seed {seed}", load, train_once, "saved embeddings", 1.0, "s per train()"


def star_cases(leaves: int, batch_sizes: list[int], seed: int):
    for size in batch_sizes:
        batches = math.ceil(leaves * (1 + 2 * STAR_NEGATIVES) / size)
        load = functools.partial(load_star, leaves, size, seed)
        yield f"star {leaves} leaves, batch {size}", load, train_once, "saved embeddings", 1e3 / batches, "ms per batch"


def dag(work: Path, nodes: int, seed: int) -> tuple[Path, Path]:
    """A `gen.make_dag` graph of `nodes` nodes from `seed` and its `gen.write_counts` counts, written once."""
    graph, counts = work / f"dag-{nodes}-{seed}.tsv", work / f"dag-{nodes}-{seed}-counts.tsv"
    if not counts.exists():
        rng = np.random.default_rng(seed)
        gen.write_graph(graph, gen.make_dag(rng, nodes))
        gen.write_counts(counts, rng, nodes)
    return graph, counts


def load_rows(graph: Path, seed: int, count: int, pkg):
    g = pkg.graph.load_edge_list(graph)
    picks = np.random.default_rng(seed).choice(g.n, size=min(count, g.n), replace=False)
    return g, [g.ids[i] for i in picks.tolist()]


def rows_once(measure: str, pkg, inputs, out: Path) -> float:
    """Seconds of one one-vs-all row per query; the rows are written to out, untimed."""
    g, queries = inputs
    t0 = time.perf_counter()
    rows = [pkg.bench.one_vs_all_graph(g, measure, q) for q in queries]
    secs = time.perf_counter() - t0
    out.write_bytes(np.stack(rows).tobytes())
    return secs


def grid_once(side: int, pkg, inputs, out: Path) -> float:
    """Seconds of the shp and lch grids of the first `side` queries against the next `side`."""
    g, queries = inputs
    t0 = time.perf_counter()
    grids = [pkg.metrics.SimilarityRows(g, m).grid(queries[:side], queries[side : 2 * side]) for m in ROW_MEASURES]
    secs = time.perf_counter() - t0
    out.write_bytes(np.stack(grids).tobytes())
    return secs


def rows_cases(seeds: list[int], work: Path, nodes: int | None):
    for seed in seeds:
        if nodes:
            graph = dag(work, nodes, seed)[0]
        else:
            inputs = work / f"query-{seed}"
            gen.generate("query", seed, inputs)
            graph = inputs / "graph.tsv"
        load = functools.partial(load_rows, graph, seed, ROW_QUERIES)
        for measure in ROW_MEASURES:
            run = functools.partial(rows_once, measure)
            yield f"seed {seed} {measure} rows", load, run, "rows", 1e3 / ROW_QUERIES, "ms per row"
        for side in GRID_SIDES:
            load = functools.partial(load_rows, graph, seed, max(ROW_QUERIES, 2 * side))  # 3x3: the rows' first six
            run = functools.partial(grid_once, side)
            yield f"seed {seed} {side}x{side} grids", load, run, "grids", 1e3, "ms per shp and lch grid"


def load_query(inputs: Path, measure: str, pkg):
    g = pkg.graph.load_edge_list(inputs / "graph.tsv")
    m = pkg.trainer.load_embeddings(inputs / "embedding.txt")
    ev = pkg.evaluation
    records, _ = ev.make_records(ev.load_lemma_pairs(inputs / "lemma_pairs.tsv"),
                                 ev.load_candidates(inputs / "candidates.tsv"))
    counts = inputs / "counts.tsv"
    table = pkg.metrics.propagate_counts(g, pkg.metrics.load_raw_counts(counts, g)) if measure == "jcn" else None
    return g, m, records, pkg.wsd.load_instances(inputs / "wsd.tsv"), measure, table


def wsd_once(scorer: str, pkg, inputs, out: Path) -> float:
    """Seconds of one disambiguate_sweep with the model scorer or the measure's; its predictions and skipped
    counts are written to out, untimed."""
    g, m, _, instances, measure, table = inputs
    if scorer == "model":
        made, sweep = pkg.trainer.ModelScorer(m, "dot"), MODEL_SWEEP
    else:
        made, sweep = pkg.evaluation.MeasureScorer(g, measure, ic_table=table), MEASURE_SWEEP
    t0 = time.perf_counter()
    results = pkg.wsd.disambiguate_sweep(instances, made, sweep)
    secs = time.perf_counter() - t0
    out.write_text(repr(results))
    return secs


def evaluate_once(selection: str, pkg, inputs, out: Path) -> float:
    """Seconds of one evaluate() with the model scorer, the measure selecting; the report is written to out,
    untimed."""
    g, m, records, _, measure, table = inputs
    scorer = pkg.trainer.ModelScorer(m, "dot")
    t0 = time.perf_counter()
    rep = pkg.evaluation.evaluate(records, scorer, selection, g=g, measure=measure, ic_table=table)
    secs = time.perf_counter() - t0
    out.write_text(repr(rep))
    return secs


def load_manifests(inputs: Path, seed: int, measure: str, pkg):
    """The (name, subcommand, config, input files, seed) of the three write_manifest calls of a perfbench
    query pass (static and dynamic eval-sim, then wsd) on the files under `inputs`."""
    model, graph = inputs / "embedding.txt", inputs / "graph.tsv"
    eval_inputs = {"graph": graph, "pairs": inputs / "lemma_pairs.tsv", "candidates": inputs / "candidates.tsv",
                   "model": model}
    calls = [(f"eval-{selection}", "eval-sim", {"selection": selection, "measure": measure}, eval_inputs, None)
             for selection in ("static", "dynamic")]
    wsd_inputs = {"graph": graph, "instances": inputs / "wsd.tsv", "model": model}
    return [*calls, ("wsd", "wsd", {"threshold": MODEL_SWEEP[-1]}, wsd_inputs, seed)]


def manifests_once(pkg, calls, out: Path) -> float:
    """Seconds of the write_manifest calls, `wall_time_s` 0.0; the manifests are written beside out and then,
    joined, to out, untimed."""
    paths = [out.with_name(f"{out.name}.{name}.manifest") for name, *_ in calls]
    t0 = time.perf_counter()
    for path, (_, subcommand, config, files, seed) in zip(paths, calls):
        pkg.manifest.write_manifest(path, subcommand, config, files, seed, 0.0)
    secs = time.perf_counter() - t0
    out.write_bytes(b"".join(path.read_bytes() for path in paths))
    return secs


def query_cases(seeds: list[int], work: Path, measure: str = "shp"):
    for seed in seeds:
        inputs = work / f"query-{seed}"
        gen.generate("query", seed, inputs)
        gen.write_counts(inputs / "counts.tsv", np.random.default_rng(seed), gen.PARAMS["query"]["nodes"])
        load = functools.partial(load_query, inputs, measure)
        for scorer in ("model", measure):
            run = functools.partial(wsd_once, scorer)
            yield f"seed {seed} {scorer} wsd", load, run, "predictions", 1e3, "ms per sweep"
        for selection in ("static", "dynamic"):
            run = functools.partial(evaluate_once, selection)
            yield f"seed {seed} {selection} eval-sim", load, run, "reports", 1e3, "ms"
        load = functools.partial(load_manifests, inputs, seed, measure)
        yield f"seed {seed} manifests", load, manifests_once, "manifests", 1e3, "ms per three"


def check_identical(label: str, output: str, paths: list[Path]) -> None:
    """Print whether the files hold the same bytes; exit 1 when they differ."""
    same = len({hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}) == 1
    print(f"{label}: {output} {'byte-identical' if same else 'DIFFER'}")
    if not same:
        sys.exit(1)


def report(label: str, times: dict[str, list[float]], scale: float, unit: str) -> None:
    (base_name, base), (work_name, work) = times.items()
    for name, xs in times.items():
        quartiles = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
        q1, med, q3 = (scale * x for x in quartiles)
        print(f"{label} {name}: median {med:.4g} {unit}, quartiles {q1:.4g}-{q3:.4g}")
    wins = sum(w < b for b, w in zip(base, work))
    change = statistics.median(work) / statistics.median(base) - 1
    print(f"{label} {work_name} won {wins}/{len(base)} pairs, median {change:+.1%} against {base_name}")


def compare(sides: dict, cases, n_pairs: int, work: Path) -> dict[str, list[float]]:
    """Check and time (label, load, run, output, scale, unit) cases: load(package) gives a side's inputs, and
    run(package, inputs, out) writes `out` and returns seconds, reported times `scale` in `unit`.
    Returns each side's seconds per round, summed over the cases."""
    totals = {name: [0.0] * n_pairs for name in sides}
    names = list(sides)
    for label, load, run, output, scale, unit in cases:
        inputs = {name: load(pkg) for name, pkg in sides.items()}
        outs = {name: work / f"side{k}.out" for k, name in enumerate(names)}
        for name in names:
            run(sides[name], inputs[name], outs[name])
        check_identical(label, output, list(outs.values()))
        times = {name: [] for name in names}
        for k in range(n_pairs):
            for name in names if k % 2 == 0 else names[::-1]:
                secs = run(sides[name], inputs[name], outs[name])
                times[name].append(secs)
                totals[name][k] += secs
        report(label, times, scale, unit)
    return totals


def child(root: Path, graph: Path, counts: Path, mode: str, measure: str, out: Path) -> tuple[float, float]:
    """One build + write_pairs with the package under `root`: its seconds and this process's peak RSS in MB.
    An error is raised again as a RuntimeError, as the parent cannot unpickle the side package's classes."""
    try:
        pkg = package(root, "taxovec_side")
        secs = build_once(pkg, load_build(graph, counts, mode, measure, pkg), out)
    except Exception as exc:
        raise RuntimeError(f"{type(exc).__name__}: {exc}") from None
    return secs, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def large(roots: dict[str, Path], nodes: int, seed: int, measure: str, work: Path, mode: str = "full",
          n_pairs: int = 1) -> None:
    """`n_pairs` alternating rounds of one child-process build per side, checked for identity after the first."""
    graph, counts = dag(work, nodes, seed)
    label, names = f"{nodes} nodes, {mode} {measure}", list(roots)
    outs = {name: work / f"large-{k}.tsv" for k, name in enumerate(names)}
    times, peaks = {name: [] for name in names}, {name: 0.0 for name in names}
    for k in range(n_pairs):
        for name in names if k % 2 == 0 else names[::-1]:
            try:
                with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
                    secs, maxrss_mb = pool.submit(child, roots[name], graph, counts, mode, measure, outs[name]).result()
            except Exception as exc:  # the child's error, or its death (BrokenProcessPool)
                sys.exit(f"{label}, {name}: failed: {exc}")
            times[name].append(secs)
            peaks[name] = max(peaks[name], maxrss_mb)
        if k == 0:
            check_identical(label, "pairs files", list(outs.values()))
    for name in names:
        print(f"{label} {name}: peak RSS {peaks[name]:.0f} MB")
    report(label, times, 1.0, "s")


def at_least_one(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is below 1")
    return int(text)


def main() -> None:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rev", default="HEAD", help="git revision of the baseline src/taxovec")
    common.add_argument("--seeds", type=int, nargs="+", default=[5])
    common.add_argument("--pairs", type=at_least_one, default=10, help="alternating rounds per case")
    common.add_argument("--work", type=Path, help="directory for inputs and outputs")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    stages = ap.add_subparsers(dest="stage", required=True)
    build = stages.add_parser("build", parents=[common], help="dataset builds")
    build.add_argument("--nodes", type=at_least_one, help="one build per side on a make_dag graph this large")
    build.add_argument("--measure", choices=MEASURES, default="shp", help="the measure of the --nodes build")
    build.add_argument("--mode", choices=MODES, default="full", help="the mode of the --nodes build")
    rows = stages.add_parser("rows", parents=[common], help="one-vs-all shp/lch rows, a 3x3 and a 64x64 grid")
    rows.add_argument("--nodes", type=at_least_one, help="on a make_dag graph this large instead of the query graph")
    query = stages.add_parser("query", parents=[common], help="WSD sweeps, eval-sim and manifests on the query inputs")
    query.add_argument("--measure", choices=MEASURES, default="shp", help="the measure scorer's and selection's")
    train = stages.add_parser("train", parents=[common], help="train()")
    train.add_argument("--star", action="store_true", help="time a star graph instead")
    train.add_argument("--leaves", type=at_least_one, default=2000)
    train.add_argument("--batch-sizes", type=at_least_one, nargs="+", default=[100, 1000])
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        roots = {args.rev: extract(args.rev, Path(tmp) / "rev"), "working tree": ROOT / "src"}
        if args.stage == "build" and args.nodes:
            large(roots, args.nodes, args.seeds[0], args.measure, work, args.mode, args.pairs)
            return
        sides = {name: package(root, f"taxovec_side{k}") for k, (name, root) in enumerate(roots.items())}
        if args.stage == "build":
            report("all cases", compare(sides, build_cases(args.seeds, work), args.pairs, work), 1e3, "ms")
        elif args.stage == "rows":
            compare(sides, rows_cases(args.seeds, work, args.nodes), args.pairs, work)
        elif args.stage == "query":
            compare(sides, query_cases(args.seeds, work, args.measure), args.pairs, work)
        elif args.star:
            compare(sides, star_cases(args.leaves, args.batch_sizes, args.seeds[0]), args.pairs, work)
        else:
            compare(sides, train_cases(args.seeds, work), args.pairs, work)


if __name__ == "__main__":
    main()
