"""Command-line interface.

Subcommands cover the full pipeline: `similarities` builds training
datasets, `train` fits embeddings, `eval-sim` runs the rank-correlation
evaluation, `wsd` disambiguates word senses, `neighbors` ranks nearest
nodes, and `bench` times one-vs-all queries. Each command body returns its
resolved config; the `_command` scaffold writes the run's manifest
(key=value text) with it, the given input files' digests, the seed, the
virtual root, the version and the wall time, to `--manifest`, else
`<output>.manifest`, else `taxovec-<command>.manifest`. An option the run
never reads is, if given, a usage error raised before any input is read.
So is an integer option that sizes an array numpy cannot index, once the
inputs it is multiplied by are read.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure. A
run that runs out of memory exits 2 with a one-line message, as inputs
too large for the machine are data errors.
"""

from __future__ import annotations

import functools
import math
import os
import stat
import sys
import time
import warnings

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
from .graph import load_edge_list
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


def _options(*options):
    """One decorator stacking `options`, the first outermost."""
    return lambda command: functools.reduce(lambda cmd, option: option(cmd), reversed(options), command)


SWEEP_MAX = 1000  # thresholds one `wsd --sweep` may ask for; each keeps every token's prediction
BINS_MAX = 10_000  # `eval-sim --bins`; the histogram writes a line per bin

INPUT = click.Path(exists=True, dir_okay=False)
GRAPH_OPTIONS = _options(
    click.option("--graph", required=True, type=INPUT),
    click.option("--virtual-root", default=None, help="Attach parentless nodes to a synthetic root with this id."),
)
IC_COUNTS_OPTION = click.option("--ic-counts", type=INPUT, default=None, help="Corpus counts; read only with --measure jcn.")

UNREAD = "taxovec.unread"  # context meta: the names of the options the run never reads


def _command(name: str, epilog: str | None = None):
    """Register a command whose body returns its config; add `--manifest`,
    time the run and write its manifest. Its inputs are the given options
    typed `click.Path(exists=True)`, keyed by option name; a TAB or line
    break in one would break its manifest line, so it fails first, and so
    does a path that is not a regular file: the body would drain a pipe
    or device before its digest is taken. The seed is `-` unless the run
    reads `--seed`; the body writes `-` for the config entries it did
    not read."""

    def register(body):
        @functools.wraps(body)
        def run(manifest, **options):
            t0 = time.perf_counter()
            ctx = click.get_current_context()
            inputs = {}
            for param in ctx.command.params:
                path = options.get(param.name)
                if isinstance(param.type, click.Path) and param.type.exists and path:
                    if any(ch in path for ch in "\t\r\n"):
                        raise DataError(f"{param.opts[0]} path {path!r} holds a TAB or line break")
                    if not stat.S_ISREG(os.stat(path).st_mode):
                        raise DataError(f"{param.opts[0]} path {path!r} is not a regular file")
                    inputs[param.name] = path
            config = body(**options)
            if "virtual_root" in options:
                config["virtual_root"] = options["virtual_root"] or "-"
            seed = None if "seed" in ctx.meta.get(UNREAD, ()) else options.get("seed")
            write_manifest(manifest or default.format(**options), name, config, inputs, seed, time.perf_counter() - t0)

        command = cli.command(name, epilog=epilog)(run)
        default = "{output}.manifest" if "output" in {p.name for p in command.params} else f"taxovec-{name}.manifest"
        command.params.append(click.Option(
            ["--manifest"], type=click.Path(dir_okay=False), help=f"Defaults to {default.format(output='<output>')}."))
        return command

    return register


def _refuse_unread(why: str, *names: str) -> None:
    """A usage error for any of `names` given on the command line: the run
    never reads them, and the manifest must record nothing it ignored, so
    the names are also kept for the scaffold's seed."""
    ctx = click.get_current_context()
    ctx.meta.setdefault(UNREAD, set()).update(names)
    for param in ctx.command.params:
        if param.name in names and ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE:
            raise click.UsageError(f"{param.opts[0]} is not read {why}")


def _refuse_oversized(option: str, value: int, *shape: int) -> None:
    """A usage error naming `option` when `value` makes an array of `shape`
    float64s too large for numpy to index, which numpy would raise mid-run."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise click.UsageError(f"{option} {value} asks for a {' x '.join(map(str, shape))} array, too large to create")


def _load_graph(graph: str, virtual_root: str | None, measure: str | None, ic_counts: str | None):
    """The graph, with the IC table jcn needs; IC counts are read only for
    jcn, and jcn without them is a usage error."""
    if measure != "jcn":
        _refuse_unread("without --measure jcn", "ic_counts")
    elif ic_counts is None:
        raise click.UsageError("--measure jcn requires --ic-counts")
    g = load_edge_list(graph, virtual_root)
    ic_table = propagate_counts(g, load_raw_counts(ic_counts, g)) if measure == "jcn" else None
    return g, ic_table


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


@_command(
    "similarities",
    epilog=GRAPH_FORMAT_HELP
    + """
Output: `# key=value` header (measure, threshold, top_k, mode, seed,
norm_min, norm_max) followed by `u<TAB>v<TAB>s` rows, s in [0,1].
IC counts file (jcn only): `node<TAB>count` lines.
""",
)
@GRAPH_OPTIONS
@click.option("--measure", required=True, type=click.Choice(MEASURES))
@click.option("--mode", type=click.Choice(["full", "fast"]), default="full", show_default=True)
@click.option("--threshold", type=float, default=None, help="Raw similarity cutoff; defaults per measure (shp/jcn 0.1, wup 0.3, lch 1.5).")
@click.option("--top-k", type=click.IntRange(min=1), default=50, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@IC_COUNTS_OPTION
@click.option("--output", required=True, type=click.Path(dir_okay=False, writable=True))
def cmd_similarities(graph, virtual_root, measure, mode, threshold, top_k, seed, ic_counts, output):
    """Build a training dataset of similarity-scored node pairs."""
    g, ic_table = _load_graph(graph, virtual_root, measure, ic_counts)
    cfg = DatasetConfig(measure=measure, threshold=threshold, top_k=top_k, mode=mode, seed=seed)
    builder = build_fast if mode == "fast" else build_full
    build = builder(g, cfg, ic_table=ic_table)
    write_pairs(output, build)
    click.echo(
        f"candidates={build.candidate_count} threshold_kept={build.threshold_kept} "
        f"pairs={len(build.pairs)} norm_min={build.norm_min!r} norm_max={build.norm_max!r}"
    )
    click.echo(f"wrote {len(build.pairs)} pairs to {output}")
    return dict(build.header())


@_command(
    "train",
    epilog=GRAPH_FORMAT_HELP
    + """
Pairs file: output of `similarities`. Embeddings output: text, header
`N d`, then `node_id v1 ... vd` per row.
""",
)
@GRAPH_OPTIONS
@click.option("--pairs", required=True, type=INPUT)
@click.option("--dev-pairs", type=INPUT, default=None, help="Held-out pairs; enables early stopping on dev Spearman.")
@click.option("--dim", type=click.IntRange(min=1), default=300, show_default=True)
@click.option("--alpha", type=float, default=0.01, show_default=True, help="Adjacency regularization weight.")
@click.option("--negatives", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--neg-per-side/--neg-total", "neg_per_side", default=True, show_default=True, help="Draw `negatives` per endpoint, or split that many across both.")
@click.option("--batch-size", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--epochs", type=click.IntRange(min=1), default=15, show_default=True)
@click.option("--learning-rate", "--lr", type=float, default=0.001, show_default=True)
@click.option("--l1", type=float, default=1e-5, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--patience", type=click.IntRange(min=1), default=2, show_default=True, help="Early-stop after this many non-improving epochs (needs --dev-pairs).")
@click.option("--dtype", type=click.Choice(["float32", "float64"]), default="float32", show_default=True)
@click.option("--output", required=True, type=click.Path(dir_okay=False, writable=True))
def cmd_train(graph, virtual_root, pairs, dev_pairs, dim, alpha, negatives, neg_per_side, batch_size, epochs, learning_rate, l1, seed, patience, dtype, output):
    """Fit node embeddings to a training dataset."""
    if dev_pairs is None:
        _refuse_unread("without --dev-pairs", "patience")
    g = load_edge_list(graph, virtual_root)
    check_writable_ids(g.ids)  # fail before training, not at the save
    training, _ = read_pairs(pairs)
    dev_set = read_pairs(dev_pairs)[0] if dev_pairs else None
    hyper = {  # the trainer's settings and the manifest's config
        "d": dim, "alpha": alpha, "negatives": negatives, "batch_size": batch_size, "epochs": epochs,
        "learning_rate": learning_rate, "l1": l1, "early_stop_patience": patience, "dtype": dtype,
    }
    cfg = TrainConfig(**hyper, seed=seed, dev_set=dev_set, neg_total=not neg_per_side)
    _refuse_oversized("--dim", dim, g.n, dim)  # the matrix and its Adam moments
    _refuse_oversized("--negatives", negatives, len(training), 1 + sum(cfg.negatives_per_side()))  # an epoch's entries
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

    m = train(training, g, cfg, on_epoch=on_epoch)
    save_embeddings(m, output)
    click.echo(f"wrote {m.n}x{m.d} embeddings to {output}")
    return {**hyper, "early_stop_patience": patience if dev_pairs else "-", "neg_mode": "per-side" if neg_per_side else "total"}


def _scorer_options(default: str):
    """The four options that choose the pair scorer of eval-sim and wsd."""
    return _options(
        click.option("--scorer", "scorer_kind", type=click.Choice(["model", "measure"]), default=default, show_default=True),
        click.option("--model", type=INPUT, default=None),
        click.option("--score-mode", type=click.Choice(["dot", "cosine"]), default="dot", show_default=True),
        click.option("--norm-from", type=INPUT, default=None, help="Dataset file whose header rescales a measure scorer to [0,1]."),
    )


def _build_scorer(scorer_kind, g, measure, ic_table, model, score_mode, norm_from):
    if scorer_kind == "model":
        if model is None:
            raise click.UsageError("--scorer model requires --model")
        return ModelScorer(load_embeddings(model), score_mode)
    if measure is None:
        raise click.UsageError("--scorer measure requires --measure")
    return MeasureScorer(g, measure, ic_table=ic_table, norm_range=_norm_range_from(norm_from))


@_command(
    "eval-sim",
    epilog="""
Lemma pairs file: `lemma1<TAB>lemma2<TAB>gold_score`. Candidates file:
`lemma<TAB>comma-separated node ids`. Report TSV: one header row and one
value row. Histogram TSV: `bin_lo<TAB>bin_hi<TAB>count` per bin.
""",
)
@GRAPH_OPTIONS
@click.option("--pairs", required=True, type=INPUT, help="Lemma pairs with gold scores.")
@click.option("--candidates", required=True, type=INPUT)
@click.option("--measure", type=click.Choice(MEASURES), default=None, help="Graph measure for static selection, measure golds or the measure scorer.")
@IC_COUNTS_OPTION
@_scorer_options("model")
@click.option("--selection", type=click.Choice(["static", "dynamic"]), default="static", show_default=True)
@click.option("--golds", type=click.Choice(["human", "measure"]), default="human", show_default=True)
@click.option("--histogram", "histogram_path", type=click.Path(dir_okay=False), default=None, help="Write predicted-score histogram TSV here.")
@click.option("--bins", type=click.IntRange(min=1, max=BINS_MAX), default=20, show_default=True)
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None, help="Write the report as TSV here.")
def cmd_eval_sim(graph, virtual_root, pairs, candidates, measure, ic_counts, model, scorer_kind, score_mode, selection, golds, norm_from, histogram_path, bins, report_path):
    """Rank-correlation evaluation over lemma pair benchmarks."""
    _refuse_unread(f"with --scorer {scorer_kind}", *(("model", "score_mode") if scorer_kind == "measure" else ("norm_from",)))
    if histogram_path is None:
        _refuse_unread("without --histogram", "bins")
    readers = [f"--{option} {value}" for option, value, reads in (
        ("selection", "static", selection == "static"),
        ("golds", "measure", golds == "measure"),
        ("scorer", "measure", scorer_kind == "measure"),
    ) if reads]
    if not readers:
        _refuse_unread("with --selection dynamic, --golds human and --scorer model", "measure")
    elif measure is None:
        raise click.UsageError(f"{readers[0]} requires --measure")
    g, ic_table = _load_graph(graph, virtual_root, measure, ic_counts)
    records, missing = make_records(load_lemma_pairs(pairs), load_candidates(candidates))
    scorer = _build_scorer(scorer_kind, g, measure, ic_table, model, score_mode, norm_from)

    report = evaluate(records, scorer, selection, g=g, measure=measure, ic_table=ic_table, golds=golds)
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
    return {
        "measure": measure or "-", "scorer": scorer_kind, "score_mode": score_mode if scorer_kind == "model" else "-",
        "selection": selection, "golds": golds, "bins": bins if histogram_path else "-",
    }


@_command(
    "wsd",
    epilog="""
Instance file: one token per line,
`sentence_id<TAB>token_index<TAB>lemma<TAB>candidates<TAB>gold`, with
comma-separated candidates, `-` for no candidates or no gold, and a blank
line between sentences. The predictions file mirrors it with the chosen
node id in the last column.
""",
)
@GRAPH_OPTIONS
@click.option("--instances", required=True, type=INPUT)
@_scorer_options("measure")
@click.option("--measure", type=click.Choice(MEASURES), default=None)
@IC_COUNTS_OPTION
@click.option("--threshold", type=float, default=0.95, show_default=True, help="Edges require similarity strictly above this.")
@click.option("--sweep", default=None, help="Informational threshold sweep `lo:hi:step`.")
@click.option("--baseline", type=click.Choice(["random", "first"]), default=None, help="Also score a baseline.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Seed for the random baseline.")
@click.option("--predictions", "predictions_path", type=click.Path(dir_okay=False), default=None)
def cmd_wsd(graph, virtual_root, instances, scorer_kind, measure, ic_counts, model, score_mode, norm_from, threshold, sweep, baseline, seed, predictions_path):
    """Disambiguate word senses by weighted-degree centrality."""
    unread = ("model", "score_mode") if scorer_kind == "measure" else ("norm_from", "measure", "ic_counts")
    _refuse_unread(f"with --scorer {scorer_kind}", *unread)
    if baseline != "random":
        _refuse_unread("without --baseline random", "seed")
    g, ic_table = _load_graph(graph, virtual_root, measure, ic_counts)
    scorer = _build_scorer(scorer_kind, g, measure, ic_table, model, score_mode, norm_from)
    tokens = wsd_mod.load_instances(instances)
    golds = wsd_mod.gold_maps(tokens)

    sweep_values = []
    if sweep:
        try:
            lo, hi, step = (float(x) for x in sweep.split(":"))
            if not np.isfinite([lo, hi, step]).all() or step <= 0 or hi < lo:  # inf would never end
                raise ValueError
        except ValueError:
            raise click.UsageError("--sweep expects finite `lo:hi:step` with step > 0")
        beyond_first = (hi + 1e-12 - lo) / step  # inf for a subnormal step
        if not beyond_first < SWEEP_MAX:
            raise click.UsageError(
                f"--sweep {sweep} asks for {np.floor(beyond_first) + 1:.6g} thresholds; at most {SWEEP_MAX} are allowed"
            )
        # the count, with one spare for rounding, also ends a step below lo's resolution
        while lo <= hi + 1e-12 and len(sweep_values) <= beyond_first + 1:
            sweep_values.append(lo)
            lo += step

    (predictions, skipped), *swept = wsd_mod.disambiguate_sweep(
        tokens, scorer, [threshold, *sweep_values]
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
        picks = (wsd_mod.random_sense_baseline(tokens, seed) if baseline == "random"
                 else wsd_mod.first_sense_baseline(tokens))
        click.echo(f"baseline={baseline} f1={wsd_mod.micro_f1(picks, golds).f1:.4f}")

    for t, (preds_t, _) in zip(sweep_values, swept):
        click.echo(f"sweep t={t:.4f} f1={wsd_mod.micro_f1(preds_t, golds).f1:.4f}")

    if predictions_path:
        wsd_mod.write_predictions(predictions_path, tokens, predictions)
        click.echo(f"wrote predictions to {predictions_path}")
    return {
        "scorer": scorer_kind, "measure": measure or "-", "score_mode": score_mode if scorer_kind == "model" else "-",
        "threshold": threshold, "baseline": baseline or "-",
    }


@_command("neighbors")
@click.option("--model", required=True, type=INPUT)
@click.option("--node", required=True)
@click.option("-k", "--k", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--score-mode", type=click.Choice(["dot", "cosine"]), default="dot", show_default=True)
def cmd_neighbors(model, node, k, score_mode):
    """Rank all nodes by similarity to one node (the node itself included)."""
    m = load_embeddings(model)
    if k > m.n:
        click.echo(f"k={k} exceeds node count {m.n}; clipping to {m.n}", err=True)
        k = m.n
    scores = (bench_mod.one_vs_all_dot(m, node) if score_mode == "dot"
              else ModelScorer(m, "cosine").grid([node], m.ids)[0])
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")[:k]
    for idx in order:
        click.echo(f"{m.ids[int(idx)]}\t{float(scores[int(idx)])!r}")
    return {"node": node, "k": k, "score_mode": score_mode}


@_command("bench")
@GRAPH_OPTIONS
@click.option("--measure", type=click.Choice(MEASURES), default="shp", show_default=True)
@IC_COUNTS_OPTION
@click.option("--model", type=INPUT, default=None, help="Embeddings for the dot method; omitted -> random float32 matrix.")
@click.option("--dim", type=click.IntRange(min=1), default=300, show_default=True, help="Dimension of the random matrix when --model is omitted.")
@click.option("--queries", type=click.IntRange(min=1), default=10, show_default=True, help="How many query nodes to sample.")
@click.option("--query-nodes", default=None, help="Comma-separated node ids; overrides --queries.")
@click.option("--repeats", type=click.IntRange(min=5), default=5, show_default=True, help="Timed passes; the median needs 5.")
@click.option("--methods", default="graph,dot", show_default=True, help="Comma-separated subset of graph,dot.")
@click.option("--topk", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None, help="Write the report as TSV here.")
def cmd_bench(graph, virtual_root, measure, ic_counts, model, dim, queries, query_nodes, repeats, methods, topk, seed, report_path):
    """Time one-vs-all similarity queries: graph traversal vs dot products."""
    method_tuple = tuple(s.strip() for s in methods.split(",") if s.strip())
    unknown = [method for method in method_tuple if method not in ("graph", "dot")]
    if unknown or not method_tuple:
        why = f"unknown method {unknown[0]!r}" if unknown else "need at least one method"
        raise click.UsageError(f"--methods {methods!r}: {why}; expected graph, dot or both")
    graph_runs, dot_runs = "graph" in method_tuple, "dot" in method_tuple
    random_matrix = dot_runs and not model
    if not graph_runs:
        _refuse_unread("without graph in --methods", "measure", "ic_counts")
    if not dot_runs:
        _refuse_unread("without dot in --methods", "model", "dim")
    elif model:
        _refuse_unread("with --model", "dim")
    if not (graph_runs and dot_runs):
        _refuse_unread("unless --methods has both graph and dot", "topk")
    if query_nodes:
        _refuse_unread("with --query-nodes", "queries")
        if not random_matrix:
            _refuse_unread("with --query-nodes unless dot runs on the random matrix", "seed")
    g, ic_table = _load_graph(graph, virtual_root, measure if graph_runs else None, ic_counts)

    m = load_embeddings(model) if model else None  # --model without dot is refused above
    if random_matrix:
        _refuse_oversized("--dim", dim, g.n, dim)
        matrix = np.random.default_rng(seed).uniform(-0.05, 0.05, size=(g.n, dim)).astype(np.float32)
        m = EmbeddingMatrix(g.ids, matrix)

    if query_nodes:
        query_list = [s.strip() for s in query_nodes.split(",") if s.strip()]
    else:
        picks = np.random.default_rng(seed).choice(g.n, size=min(queries, g.n), replace=False)
        query_list = [g.ids[int(i)] for i in picks]

    with warnings.catch_warnings():  # a report's timer_warning is printed below, as one line
        warnings.filterwarnings("ignore", "median pass time", UserWarning)
        result = bench_mod.run_benchmark(
            g, measure, m, query_list, repeats=repeats,
            ic_table=ic_table, methods=method_tuple, topk=topk,
        )

    reports = [r for r in (result.graph, result.dot) if r is not None]
    rows = [("method", "sec/query", "targets", "repeats", "speedup")]
    for report in reports:
        speedup = "-" if report.speedup is None else f"{report.speedup:.1f}"
        rows.append((report.method, f"{report.seconds_per_query:.3e}", str(report.n_targets), str(report.repeats), speedup))
        if report.timer_warning:
            click.echo(f"warning: {report.method} medians are below timer resolution; increase --queries", err=True)
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
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
    return {
        "measure": measure if graph_runs else "-", "methods": ",".join(method_tuple), "repeats": repeats,
        "queries": ",".join(query_list), "topk": topk if graph_runs and dot_runs else "-",
        "dim": dim if random_matrix else "-",
        # the dot timings depend on BLAS threading, which the environment sets
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unset",
    }


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
    except MemoryError as exc:
        click.echo(f"data error: out of memory{f': {exc}' if str(exc) else ''}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
