"""Command-line interface.

Subcommands cover the full pipeline: `similarities` builds training
datasets, `train` fits embeddings, `eval-sim` runs the rank-correlation
evaluation, `wsd` disambiguates word senses, `neighbors` ranks nearest
nodes, and `bench` times one-vs-all queries. Every run writes a manifest
(key=value text) recording the resolved config, input digests, seed,
version, and wall time.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import click
import numpy as np
from click.core import ParameterSource

from . import bench as bench_mod
from . import wsd as wsd_mod
from .dataset import (
    DatasetConfig,
    build_fast,
    build_full,
    read_pairs,
    read_pairs_header,
    write_pairs,
)
from .errors import ConfigError, DataError, NumericError
from .evaluation import (
    MeasureScorer,
    evaluate,
    load_candidates,
    load_lemma_pairs,
    make_records,
    score_histogram,
)
from .graph import compute_depths, load_edge_list
from .io import atomic_write, real
from .manifest import write_manifest
from .metrics import MEASURES, load_raw_counts, propagate_counts
from .trainer import (
    EmbeddingMatrix,
    EpochStats,
    ModelScorer,
    TrainConfig,
    check_writable_ids,
    load_embeddings,
    save_embeddings,
    train,
)

GRAPH_FORMAT_HELP = """\
Graph file: UTF-8 TSV, one `child<TAB>parent` edge per line, `#` comments,
single-token lines insert isolated nodes.
"""


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def cli() -> None:
    """Node embeddings that approximate taxonomy graph similarity measures."""


def _inputs(**paths: str | None) -> dict[str, str]:
    """Manifest inputs: every given path, without the options left out.

    Every command calls this first: a TAB or line break in a path would
    break its manifest line, so it fails before anything is read or written.
    """
    inputs = {name: path for name, path in paths.items() if path}
    for name, path in inputs.items():
        if any(ch in path for ch in "\t\r\n"):
            raise DataError(f"--{name.replace('_', '-')} path {path!r} holds a TAB or line break")
    return inputs


def _measure_context(g, measure: str, ic_counts: str | None):
    """Depths and IC table as the measure requires; missing IC is a usage error."""
    depths = compute_depths(g) if measure in ("lch", "wup", "jcn") else None
    ic_table = None
    if measure == "jcn":
        if ic_counts is None:
            raise click.UsageError("--measure jcn requires --ic-counts")
        ic_table = propagate_counts(g, load_raw_counts(ic_counts, g))
    return depths, ic_table


def _norm_range_from(pairs_file: str | None) -> tuple[float, float] | None:
    if pairs_file is None:
        return None
    meta = read_pairs_header(pairs_file)
    try:
        return tuple(real(meta[key], pairs_file, key) for key in ("norm_min", "norm_max"))
    except (KeyError, DataError):
        raise DataError(
            f"{pairs_file}: header lacks usable norm_min/norm_max entries"
        ) from None


@cli.command(
    "similarities",
    epilog=GRAPH_FORMAT_HELP
    + """
Output: `# key=value` header (measure, threshold, top_k, mode, seed,
norm_min, norm_max) followed by `u<TAB>v<TAB>s` rows, s in [0,1].
IC counts file (jcn only): `node<TAB>count` lines.
""",
)
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--virtual-root", default=None, help="Attach parentless nodes to a synthetic root with this id.")
@click.option("--measure", required=True, type=click.Choice(MEASURES))
@click.option("--mode", type=click.Choice(["full", "fast"]), default="full", show_default=True)
@click.option("--threshold", type=float, default=None, help="Raw similarity cutoff; defaults per measure (shp/jcn 0.1, wup 0.3, lch 1.5).")
@click.option("--top-k", type=click.IntRange(min=1), default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--ic-counts", type=click.Path(exists=True, dir_okay=False), default=None, help="Corpus counts for jcn.")
@click.option("--output", required=True, type=click.Path(dir_okay=False, writable=True))
@click.option("--manifest", "manifest_path", type=click.Path(dir_okay=False), default=None, help="Defaults to <output>.manifest.")
def cmd_similarities(graph_path, virtual_root, measure, mode, threshold, top_k, seed, ic_counts, output, manifest_path):
    """Build a training dataset of similarity-scored node pairs."""
    t0 = time.perf_counter()
    inputs = _inputs(graph=graph_path, ic_counts=ic_counts)
    g = load_edge_list(graph_path, virtual_root)
    depths, ic_table = _measure_context(g, measure, ic_counts)
    cfg = DatasetConfig(measure=measure, threshold=threshold, top_k=top_k, mode=mode, seed=seed)
    builder = build_fast if mode == "fast" else build_full
    build = builder(g, cfg, depths, ic_table)
    write_pairs(output, build)

    config = dict(build.header())
    config["virtual_root"] = virtual_root or "-"
    write_manifest(manifest_path or f"{output}.manifest", "similarities", config, inputs, seed, time.perf_counter() - t0)

    click.echo(
        f"candidates={build.candidate_count} threshold_kept={build.threshold_kept} "
        f"pairs={len(build.pairs)} norm_min={build.norm_min!r} norm_max={build.norm_max!r}"
    )
    click.echo(f"wrote {len(build.pairs)} pairs to {output}")


@cli.command(
    "train",
    epilog=GRAPH_FORMAT_HELP
    + """
Pairs file: output of `similarities`. Embeddings output: text, header
`N d`, then `node_id v1 ... vd` per row.
""",
)
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--virtual-root", default=None)
@click.option("--pairs", "pairs_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--dev-pairs", "dev_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Held-out pairs; enables early stopping on dev Spearman.")
@click.option("--dim", type=click.IntRange(min=1), default=300, show_default=True)
@click.option("--alpha", type=float, default=0.01, show_default=True, help="Adjacency regularization weight.")
@click.option("--negatives", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--neg-per-side/--neg-total", "neg_per_side", default=True, show_default=True, help="Draw `negatives` per endpoint, or split that many across both.")
@click.option("--batch-size", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--epochs", type=click.IntRange(min=1), default=15, show_default=True)
@click.option("--learning-rate", "--lr", type=float, default=0.001, show_default=True)
@click.option("--l1", type=float, default=1e-5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--patience", type=click.IntRange(min=1), default=2, show_default=True, help="Early-stop after this many non-improving epochs (needs --dev-pairs).")
@click.option("--dtype", type=click.Choice(["float32", "float64"]), default="float32", show_default=True)
@click.option("--output", required=True, type=click.Path(dir_okay=False, writable=True))
@click.option("--manifest", "manifest_path", type=click.Path(dir_okay=False), default=None, help="Defaults to <output>.manifest.")
def cmd_train(graph_path, virtual_root, pairs_path, dev_path, dim, alpha, negatives, neg_per_side, batch_size, epochs, learning_rate, l1, seed, patience, dtype, output, manifest_path):
    """Fit node embeddings to a training dataset."""
    t0 = time.perf_counter()
    inputs = _inputs(graph=graph_path, pairs=pairs_path, dev_pairs=dev_path)
    g = load_edge_list(graph_path, virtual_root)
    check_writable_ids(g.ids)  # fail before training, not at the save
    pairs, _ = read_pairs(pairs_path)
    dev_set = read_pairs(dev_path)[0] if dev_path else None
    cfg = TrainConfig(
        d=dim,
        alpha=alpha,
        negatives=negatives,
        batch_size=batch_size,
        epochs=epochs,
        learning_rate=learning_rate,
        l1=l1,
        seed=seed,
        early_stop_patience=patience,
        dev_set=dev_set,
        neg_total=not neg_per_side,
        dtype=dtype,
    )
    click.echo(
        f"training: d={dim} alpha={alpha} negatives={negatives} "
        f"({'per-side' if neg_per_side else 'total'}) batch_size={batch_size} "
        f"epochs={epochs} lr={learning_rate} l1={l1} seed={seed} dtype={dtype}"
    )

    def on_epoch(stats: EpochStats) -> None:
        line = f"epoch {stats.epoch}: mean_loss={stats.mean_loss:.6f} median_loss={stats.median_loss:.6f}"
        if stats.dev_spearman is not None:
            line += f" dev_spearman={stats.dev_spearman:.4f}"
        click.echo(line)

    m = train(pairs, g, cfg, on_epoch=on_epoch)
    save_embeddings(m, output)

    config = {
        "d": dim, "alpha": alpha, "negatives": negatives,
        "neg_mode": "per-side" if neg_per_side else "total",
        "batch_size": batch_size, "epochs": epochs,
        "learning_rate": learning_rate, "l1": l1,
        "early_stop_patience": patience, "dtype": dtype,
        "virtual_root": virtual_root or "-",
    }
    write_manifest(manifest_path or f"{output}.manifest", "train", config, inputs, seed, time.perf_counter() - t0)
    click.echo(f"wrote {m.n}x{m.d} embeddings to {output}")


def _scorer_options(default: str):
    """The four options that choose the pair scorer of eval-sim and wsd."""
    options = (
        click.option("--scorer", "scorer_kind", type=click.Choice(["model", "measure"]), default=default, show_default=True),
        click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False), default=None),
        click.option("--score-mode", type=click.Choice(["dot", "cosine"]), default="dot", show_default=True),
        click.option("--norm-from", type=click.Path(exists=True, dir_okay=False), default=None, help="Dataset file whose header rescales a measure scorer to [0,1]."),
    )
    return lambda command: functools.reduce(lambda cmd, option: option(cmd), reversed(options), command)


def _refuse_unread(scorer_kind: str, measure_options: tuple[str, ...] = ()) -> None:
    """A usage error for an option given on the command line that the scorer
    never reads, so that the manifest records no input the run ignored."""
    unread = ("model_path", "score_mode") if scorer_kind == "measure" else ("norm_from", *measure_options)
    ctx = click.get_current_context()
    for param in ctx.command.params:
        if param.name in unread and ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE:
            raise click.UsageError(f"{param.opts[0]} is not read with --scorer {scorer_kind}")


def _build_scorer(scorer_kind, g, measure, depths, ic_table, model_path, score_mode, norm_from):
    if scorer_kind == "model":
        if model_path is None:
            raise click.UsageError("--scorer model requires --model")
        return ModelScorer(load_embeddings(model_path), score_mode)
    if measure is None:
        raise click.UsageError("--scorer measure requires --measure")
    return MeasureScorer(g, measure, depths, ic_table, _norm_range_from(norm_from))


@cli.command(
    "eval-sim",
    epilog="""
Lemma pairs file: `lemma1<TAB>lemma2<TAB>gold_score`. Candidates file:
`lemma<TAB>comma-separated node ids`. Report TSV: one header row and one
value row. Histogram TSV: `bin_lo<TAB>bin_hi<TAB>count` per bin.
""",
)
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--virtual-root", default=None)
@click.option("--pairs", "pairs_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Lemma pairs with gold scores.")
@click.option("--candidates", "candidates_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--measure", type=click.Choice(MEASURES), required=True, help="Graph measure for static selection / measure golds.")
@click.option("--ic-counts", type=click.Path(exists=True, dir_okay=False), default=None)
@_scorer_options("model")
@click.option("--selection", type=click.Choice(["static", "dynamic"]), default="static", show_default=True)
@click.option("--golds", type=click.Choice(["human", "measure"]), default="human", show_default=True)
@click.option("--histogram", "histogram_path", type=click.Path(dir_okay=False), default=None, help="Write predicted-score histogram TSV here.")
@click.option("--bins", type=click.IntRange(min=1), default=20, show_default=True)
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None, help="Write the report as TSV here.")
@click.option("--manifest", "manifest_path", type=click.Path(dir_okay=False), default=None, help="Defaults to taxovec-eval-sim.manifest.")
def cmd_eval_sim(graph_path, virtual_root, pairs_path, candidates_path, measure, ic_counts, model_path, scorer_kind, score_mode, selection, golds, norm_from, histogram_path, bins, report_path, manifest_path):
    """Rank-correlation evaluation over lemma pair benchmarks."""
    t0 = time.perf_counter()
    _refuse_unread(scorer_kind)
    inputs = _inputs(
        graph=graph_path, pairs=pairs_path, candidates=candidates_path,
        ic_counts=ic_counts, model=model_path, norm_from=norm_from,
    )
    g = load_edge_list(graph_path, virtual_root)
    depths, ic_table = _measure_context(g, measure, ic_counts)
    records, missing = make_records(load_lemma_pairs(pairs_path), load_candidates(candidates_path))
    scorer = _build_scorer(scorer_kind, g, measure, depths, ic_table, model_path, score_mode, norm_from)

    report = evaluate(records, scorer, selection, g=g, measure=measure, depths=depths, ic_table=ic_table, golds=golds)
    click.echo(f"spearman={report.spearman:.4f}")
    click.echo(
        f"evaluated={report.n_evaluated} excluded_selection={report.n_excluded} "
        f"excluded_missing_candidates={missing}"
    )
    click.echo(f"selection={report.selection} scorer={report.scorer} golds={report.golds}")

    if report_path:
        header = "spearman\tevaluated\texcluded_selection\texcluded_missing_candidates\tselection\tscorer\tgolds"
        row = f"{report.spearman!r}\t{report.n_evaluated}\t{report.n_excluded}\t{missing}\t{report.selection}\t{report.scorer}\t{report.golds}"
        with atomic_write(report_path) as fh:
            fh.write(header + "\n" + row + "\n")
    if histogram_path:
        rows = score_histogram(report.predictions, bins=bins)
        with atomic_write(histogram_path) as fh:
            for lo, hi, count in rows:
                fh.write(f"{lo!r}\t{hi!r}\t{count}\n")

    config = {
        "measure": measure, "scorer": scorer_kind, "score_mode": score_mode,
        "selection": selection, "golds": golds, "bins": bins,
        "virtual_root": virtual_root or "-",
    }
    write_manifest(manifest_path or "taxovec-eval-sim.manifest", "eval-sim", config, inputs, None, time.perf_counter() - t0)


@cli.command(
    "wsd",
    epilog="""
Instance file: one token per line,
`sentence_id<TAB>token_index<TAB>lemma<TAB>candidates<TAB>gold`, with
comma-separated candidates, `-` for no candidates or no gold, and a blank
line between sentences. The predictions file mirrors it with the chosen
node id in the last column.
""",
)
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--virtual-root", default=None)
@click.option("--instances", "instances_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_scorer_options("measure")
@click.option("--measure", type=click.Choice(MEASURES), default=None)
@click.option("--ic-counts", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--threshold", type=float, default=0.95, show_default=True, help="Edges require similarity strictly above this.")
@click.option("--sweep", default=None, help="Informational threshold sweep `lo:hi:step`.")
@click.option("--baseline", type=click.Choice(["random", "first"]), default=None, help="Also score a baseline.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for the random baseline.")
@click.option("--predictions", "predictions_path", type=click.Path(dir_okay=False), default=None)
@click.option("--manifest", "manifest_path", type=click.Path(dir_okay=False), default=None, help="Defaults to taxovec-wsd.manifest.")
def cmd_wsd(graph_path, virtual_root, instances_path, scorer_kind, measure, ic_counts, model_path, score_mode, norm_from, threshold, sweep, baseline, seed, predictions_path, manifest_path):
    """Disambiguate word senses by weighted-degree centrality."""
    t0 = time.perf_counter()
    _refuse_unread(scorer_kind, measure_options=("measure", "ic_counts"))
    inputs = _inputs(
        graph=graph_path, instances=instances_path,
        ic_counts=ic_counts, model=model_path, norm_from=norm_from,
    )
    g = load_edge_list(graph_path, virtual_root)
    depths, ic_table = _measure_context(g, measure or "shp", ic_counts) if scorer_kind == "measure" else (None, None)
    scorer = _build_scorer(scorer_kind, g, measure, depths, ic_table, model_path, score_mode, norm_from)
    instances = wsd_mod.load_instances(instances_path)
    golds = wsd_mod.gold_maps(instances)

    sweep_values = []
    if sweep:
        try:
            lo, hi, step = (float(x) for x in sweep.split(":"))
            if not np.isfinite([lo, hi, step]).all() or step <= 0 or hi < lo:  # inf would never end
                raise ValueError
        except ValueError:
            raise click.UsageError("--sweep expects finite `lo:hi:step` with step > 0")
        while lo <= hi + 1e-12:
            sweep_values.append(lo)
            lo += step

    (predictions, skipped), *swept = wsd_mod.disambiguate_sweep(
        instances, scorer, [threshold, *sweep_values]
    )
    result = wsd_mod.micro_f1(predictions, golds)
    click.echo(
        f"precision={result.precision:.4f} recall={result.recall:.4f} f1={result.f1:.4f}"
    )
    click.echo(
        f"attempted={result.attempted} correct={result.correct} "
        f"gold={result.total_gold} skipped_pairs={skipped}"
    )

    if baseline:
        picks = (wsd_mod.random_sense_baseline(instances, seed) if baseline == "random"
                 else wsd_mod.first_sense_baseline(instances))
        click.echo(f"baseline={baseline} f1={wsd_mod.micro_f1(picks, golds).f1:.4f}")

    for t, (preds_t, _) in zip(sweep_values, swept):
        click.echo(f"sweep t={t:.4f} f1={wsd_mod.micro_f1(preds_t, golds).f1:.4f}")

    if predictions_path:
        wsd_mod.write_predictions(predictions_path, instances, predictions)
        click.echo(f"wrote predictions to {predictions_path}")

    config = {
        "scorer": scorer_kind, "measure": measure or "-", "score_mode": score_mode,
        "threshold": threshold, "baseline": baseline or "-",
        "virtual_root": virtual_root or "-",
    }
    write_manifest(manifest_path or "taxovec-wsd.manifest", "wsd", config, inputs, seed, time.perf_counter() - t0)


@cli.command("neighbors")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--node", required=True)
@click.option("-k", "--k", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--score-mode", type=click.Choice(["dot", "cosine"]), default="dot", show_default=True)
@click.option("--manifest", "manifest_path", type=click.Path(dir_okay=False), default=None, help="Defaults to taxovec-neighbors.manifest.")
def cmd_neighbors(model_path, node, k, score_mode, manifest_path):
    """Rank all nodes by similarity to one node (the node itself included)."""
    t0 = time.perf_counter()
    inputs = _inputs(model=model_path)
    m = load_embeddings(model_path)
    if k > m.n:
        click.echo(f"k={k} exceeds node count {m.n}; clipping to {m.n}", err=True)
        k = m.n
    scores = (bench_mod.one_vs_all_dot(m, node) if score_mode == "dot"
              else ModelScorer(m, "cosine").grid([node], m.ids)[0])
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")[:k]
    for idx in order:
        click.echo(f"{m.ids[int(idx)]}\t{float(scores[int(idx)])!r}")

    config = {"node": node, "k": k, "score_mode": score_mode}
    write_manifest(manifest_path or "taxovec-neighbors.manifest", "neighbors", config, inputs, None, time.perf_counter() - t0)


@cli.command("bench")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--virtual-root", default=None)
@click.option("--measure", type=click.Choice(MEASURES), default="shp", show_default=True)
@click.option("--ic-counts", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Embeddings for the dot method; omitted -> random float32 matrix.")
@click.option("--dim", type=click.IntRange(min=1), default=300, show_default=True, help="Dimension of the random matrix when --model is omitted.")
@click.option("--queries", type=click.IntRange(min=1), default=10, show_default=True, help="How many query nodes to sample.")
@click.option("--query-nodes", default=None, help="Comma-separated node ids; overrides --queries.")
@click.option("--repeats", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--methods", default="graph,dot", show_default=True, help="Comma-separated subset of graph,dot.")
@click.option("--topk", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None, help="Write the report as TSV here.")
@click.option("--manifest", "manifest_path", type=click.Path(dir_okay=False), default=None, help="Defaults to taxovec-bench.manifest.")
def cmd_bench(graph_path, virtual_root, measure, ic_counts, model_path, dim, queries, query_nodes, repeats, methods, topk, seed, report_path, manifest_path):
    """Time one-vs-all similarity queries: graph traversal vs dot products."""
    t0 = time.perf_counter()
    inputs = _inputs(graph=graph_path, ic_counts=ic_counts, model=model_path)
    g = load_edge_list(graph_path, virtual_root)
    depths, ic_table = _measure_context(g, measure, ic_counts)
    method_tuple = tuple(s.strip() for s in methods.split(",") if s.strip())

    m = None
    if "dot" in method_tuple:
        if model_path:
            m = load_embeddings(model_path)
        else:
            rng = np.random.default_rng(seed)
            matrix = rng.uniform(-0.05, 0.05, size=(g.n, dim)).astype(np.float32)
            m = EmbeddingMatrix(g.ids, matrix)

    if query_nodes:
        query_list = [s.strip() for s in query_nodes.split(",") if s.strip()]
    else:
        rng = np.random.default_rng(seed)
        count = min(queries, g.n)
        query_list = [g.ids[int(i)] for i in rng.choice(g.n, size=count, replace=False)]

    result = bench_mod.run_benchmark(
        g, measure, m, query_list, repeats=repeats, depths=depths,
        ic_table=ic_table, methods=method_tuple, topk=topk,
    )

    reports = [r for r in (result.graph, result.dot) if r is not None]
    rows = []
    for report in reports:
        speedup = "-" if report.speedup is None else f"{report.speedup:.1f}"
        rows.append((report.method, f"{report.seconds_per_query:.3e}", str(report.n_targets), str(report.repeats), speedup))
        if report.timer_warning:
            click.echo(f"warning: {report.method} medians are below timer resolution; increase --queries", err=True)
    widths = [max(len(r[c]) for r in rows + [("method", "sec/query", "targets", "repeats", "speedup")]) for c in range(5)]
    header = ("method", "sec/query", "targets", "repeats", "speedup")
    click.echo("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        click.echo("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    if result.topk_overlap is not None:
        click.echo(f"top-{topk} overlap: {result.topk_overlap:.3f}")

    if report_path:
        with atomic_write(report_path) as fh:
            fh.write("method\tseconds_per_query\tn_targets\trepeats\tspeedup\n")
            for report in reports:
                speedup = "" if report.speedup is None else repr(report.speedup)
                fh.write(f"{report.method}\t{report.seconds_per_query!r}\t{report.n_targets}\t{report.repeats}\t{speedup}\n")

    config = {
        "measure": measure, "methods": ",".join(method_tuple), "repeats": repeats,
        "queries": ",".join(query_list), "topk": topk, "dim": dim,
        "virtual_root": virtual_root or "-",
        # the dot timings depend on BLAS threading, which the environment sets
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unset",
    }
    write_manifest(manifest_path or "taxovec-bench.manifest", "bench", config, inputs, seed, time.perf_counter() - t0)


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping exceptions to the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:  # raised by --help
        return exc.exit_code
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except ConfigError as exc:
        click.echo(f"usage error: {exc}", err=True)
        return 1
    except NumericError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return 3
    except (DataError, OSError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
