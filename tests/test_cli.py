"""Command-line interface tests driven through main()'s exit codes."""

from __future__ import annotations

import contextlib
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from taxovec import cli, dataset, io, manifest, wsd
from taxovec.cli import SWEEP_MAX, _norm_range_from, main
from taxovec.dataset import read_pairs
from taxovec.errors import DataError
from taxovec.manifest import file_digest, read_manifest
from taxovec.evaluation import MeasureScorer
from taxovec.trainer import load_embeddings

from oracles import model_score_oracle

CHAIN = "b\ta\nc\tb\n"
# r with children a, b; a has c, d; b has e, f
TREE = "a\tr\nb\tr\nc\ta\nd\ta\ne\tb\nf\tb\n"


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain.tsv").write_text(CHAIN)
    (tmp_path / "tree.tsv").write_text(TREE)
    return tmp_path


def data_rows(path):
    return [
        line
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]


def header_meta(path):
    out = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition("=")
        out[key] = value
    return out


class TestSimilarities:
    def test_chain_golden_rows(self, workdir, capsys):
        code = main(
            ["similarities", "--graph", "chain.tsv", "--measure", "shp",
             "--output", "pairs.tsv"]
        )
        assert code == 0
        rows = set(data_rows(workdir / "pairs.tsv"))
        # ids take file order (b appears first), so pairs lead with b
        assert rows == {"b\ta\t1.0", "b\tc\t1.0", "a\tc\t0.0"}
        out = capsys.readouterr().out
        assert "candidates=3" in out
        assert "pairs=3" in out

    def test_manifest_digest_and_config(self, workdir):
        main(
            ["similarities", "--graph", "chain.tsv",
             "--measure", "shp", "--seed", "5", "--output", "pairs.tsv"]
        )
        got = read_manifest(workdir / "pairs.tsv.manifest")
        assert got["subcommand"] == "similarities"
        assert got["seed"] == "5"
        assert got["input.graph.sha256"] == file_digest(workdir / "chain.tsv")
        assert got["config.measure"] == "shp"
        assert got["config.mode"] == "full"
        assert got["config.top_k"] == "50"

    def test_full_and_fast_agree_on_chain(self, workdir):
        for mode in ("full", "fast"):
            assert main(
                ["similarities", "--graph", "chain.tsv", "--measure", "shp",
                 "--mode", mode, "--output", f"{mode}.tsv"]
            ) == 0
        assert data_rows(workdir / "full.tsv") == data_rows(workdir / "fast.tsv")
        assert header_meta(workdir / "full.tsv")["mode"] == "full"
        assert header_meta(workdir / "fast.tsv")["mode"] == "fast"

    def test_byte_identical_reruns(self, workdir):
        args = ["similarities", "--graph", "tree.tsv", "--measure", "shp",
                "--seed", "3"]
        assert main(args + ["--output", "one.tsv"]) == 0
        assert main(args + ["--output", "two.tsv"]) == 0
        assert (workdir / "one.tsv").read_bytes() == (workdir / "two.tsv").read_bytes()

    def test_jcn_requires_ic_counts(self, workdir, capsys):
        code = main(
            ["similarities", "--graph", "tree.tsv", "--measure", "jcn",
             "--output", "pairs.tsv"]
        )
        assert code == 1
        assert "ic-counts" in capsys.readouterr().err

    def test_jcn_with_counts(self, workdir):
        (workdir / "counts.tsv").write_text(
            "c\t4\nd\t2\ne\t3\nf\t1\n"
        )
        code = main(
            ["similarities", "--graph", "tree.tsv", "--measure", "jcn",
             "--ic-counts", "counts.tsv", "--output", "pairs.tsv"]
        )
        assert code == 0
        assert len(data_rows(workdir / "pairs.tsv")) > 0

    @pytest.mark.parametrize("count", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_count_is_a_data_error_at_its_line(self, workdir, capsys, count):
        (workdir / "counts.tsv").write_text(f"c\t4\nd\t{count}\n")
        code = main(
            ["similarities", "--graph", "tree.tsv", "--measure", "jcn",
             "--ic-counts", "counts.tsv", "--output", "pairs.tsv"]
        )
        assert code == 2
        assert f"counts.tsv:2: non-finite count '{count}'" in capsys.readouterr().err
        assert not (workdir / "pairs.tsv").exists()

    def test_counts_overflowing_to_inf_are_a_data_error(self, workdir, capsys):
        (workdir / "counts.tsv").write_text("c\t1e308\nd\t1e308\n")
        code = main(
            ["similarities", "--graph", "tree.tsv", "--measure", "jcn",
             "--ic-counts", "counts.tsv", "--output", "pairs.tsv"]
        )
        assert code == 2
        assert "corpus counts sum to inf" in capsys.readouterr().err

    def test_cyclic_graph_is_a_data_error(self, workdir, capsys):
        (workdir / "cyc.tsv").write_text("a\tb\nb\ta\n")
        code = main(
            ["similarities", "--graph", "cyc.tsv", "--measure", "shp",
             "--output", "pairs.tsv"]
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("graph, extra", [
        ("x\t#y\nz\tx\n", []),
        ("b\ta\n", ["--virtual-root", "#r"]),
    ])
    def test_id_beginning_with_hash_is_a_data_error(self, workdir, capsys, graph, extra):
        (workdir / "hash.tsv").write_text(graph)
        code = main(
            ["similarities", "--graph", "hash.tsv", "--measure", "shp", "--threshold", "0",
             "--output", "pairs.tsv", *extra]
        )
        assert code == 2
        assert "begins with '#'" in capsys.readouterr().err
        assert not (workdir / "pairs.tsv").exists()

    @pytest.mark.parametrize("root", ["v\tx", " v"])
    def test_virtual_root_that_would_not_read_back_is_a_data_error(self, workdir, capsys, root):
        # a TAB splits the pairs line written for it; padding is stripped on reading
        (workdir / "g.tsv").write_text("a\tr\nb\tr\nc\ta\n")
        code = main(
            ["similarities", "--graph", "g.tsv", "--measure", "shp", "--threshold", "0",
             "--virtual-root", root, "--output", "pairs.tsv"]
        )
        assert code == 2
        assert "virtual root id" in capsys.readouterr().err
        assert not (workdir / "pairs.tsv").exists()
        assert not (workdir / "pairs.tsv.manifest").exists()

    def test_nan_threshold_is_a_usage_error(self, workdir, capsys):
        code = main(
            ["similarities", "--graph", "tree.tsv", "--measure", "shp",
             "--threshold", "nan", "--output", "pairs.tsv"]
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not (workdir / "pairs.tsv").exists()

    def test_virtual_root_connects_forest(self, workdir):
        (workdir / "forest.tsv").write_text("b\ta\nd\tc\n")
        code = main(
            ["similarities", "--graph", "forest.tsv", "--measure", "shp",
             "--virtual-root", "ROOT", "--threshold", "0.0",
             "--output", "pairs.tsv"]
        )
        assert code == 0
        joined = "\n".join(data_rows(workdir / "pairs.tsv"))
        assert "ROOT" in joined

    @pytest.mark.parametrize("measure", ["shp", "lch", "wup"])
    @pytest.mark.parametrize("extra", [[], ["--virtual-root", "ROOT"]])
    def test_graph_without_nodes_is_a_data_error(self, workdir, capsys, measure, extra):
        # only a comment and a blank line: no node, so no depth and no pair
        (workdir / "empty.tsv").write_text("# nothing yet\n\n")
        code = main(
            ["similarities", "--graph", "empty.tsv", "--measure", measure,
             "--output", "pairs.tsv", *extra]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "empty.tsv" in err and "holds no node" in err
        assert not (workdir / "pairs.tsv").exists()


@pytest.fixture()
def tree_pairs(workdir):
    main(["similarities", "--graph", "tree.tsv", "--measure", "shp",
          "--output", "pairs.tsv"])
    return workdir


class TestTrain:
    def test_train_and_reload(self, tree_pairs, capsys):
        code = main(
            ["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv",
             "--dim", "8", "--epochs", "3", "--output", "emb.txt"]
        )
        assert code == 0
        m = load_embeddings(tree_pairs / "emb.txt")
        assert m.n == 7 and m.d == 8
        out = capsys.readouterr().out
        assert "epoch 0:" in out and "epoch 2:" in out

    def test_seed_determinism(self, tree_pairs):
        args = ["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv",
                "--dim", "8", "--epochs", "2"]
        main(args + ["--seed", "4", "--output", "a.txt"])
        main(args + ["--seed", "4", "--output", "b.txt"])
        main(args + ["--seed", "5", "--output", "c.txt"])
        assert (tree_pairs / "a.txt").read_bytes() == (tree_pairs / "b.txt").read_bytes()
        assert (tree_pairs / "a.txt").read_bytes() != (tree_pairs / "c.txt").read_bytes()

    def test_manifest_records_hyperparameter_defaults(self, tree_pairs):
        main(["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv",
              "--dim", "8", "--output", "emb.txt"])
        got = read_manifest(tree_pairs / "emb.txt.manifest")
        assert got["config.d"] == "8"
        assert got["config.alpha"] == "0.01"
        assert got["config.negatives"] == "3"
        assert got["config.neg_mode"] == "per-side"
        assert got["config.batch_size"] == "100"
        assert got["config.epochs"] == "15"
        assert got["config.learning_rate"] == "0.001"
        assert got["config.l1"] == "1e-05"
        assert got["config.dtype"] == "float32"
        assert got["input.pairs.sha256"] == file_digest(tree_pairs / "pairs.tsv")

    def test_manifest_dashes_the_patience_without_dev_pairs(self, tree_pairs):
        # early stopping needs a dev set: without one the default patience is never read
        args = ["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv", "--dim", "4", "--epochs", "1"]
        main(args + ["--output", "a.txt"])
        main(args + ["--dev-pairs", "pairs.tsv", "--output", "b.txt"])
        assert read_manifest(tree_pairs / "a.txt.manifest")["config.early_stop_patience"] == "-"
        assert read_manifest(tree_pairs / "b.txt.manifest")["config.early_stop_patience"] == "2"

    def test_dev_pairs_enable_early_stop_reporting(self, tree_pairs, capsys):
        main(["similarities", "--graph", "tree.tsv", "--measure", "shp",
              "--seed", "9", "--output", "dev.tsv"])
        code = main(
            ["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv",
             "--dev-pairs", "dev.tsv", "--dim", "8", "--epochs", "4",
             "--output", "emb.txt"]
        )
        assert code == 0
        assert "dev_spearman=" in capsys.readouterr().out

    def test_unusable_dev_set_fails_before_the_first_epoch(self, tree_pairs, capsys):
        (tree_pairs / "dev.tsv").write_text("a\tr\t0.5\nc\ta\t0.5\n")
        code = main(
            ["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv",
             "--dev-pairs", "dev.tsv", "--dim", "4", "--epochs", "2", "--output", "emb.txt"]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert "dev set" in err
        assert "epoch 0" not in out
        assert not (tree_pairs / "emb.txt").exists()

    def test_empty_dev_set_fails_before_the_first_epoch(self, tree_pairs, capsys):
        # an empty dev file must not quietly turn early stopping off
        (tree_pairs / "dev.tsv").write_text("")
        code = main(
            ["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv",
             "--dev-pairs", "dev.tsv", "--dim", "4", "--epochs", "2", "--output", "emb.txt"]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert "dev set needs at least 3 pairs, got 0" in err
        assert "epoch 0" not in out
        assert not (tree_pairs / "emb.txt").exists()

    def test_divergence_exits_three(self, tree_pairs, capsys):
        code = main(
            ["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv",
             "--dim", "4", "--epochs", "3", "--learning-rate", "1e39",
             "--dtype", "float32", "--output", "emb.txt"]
        )
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--alpha", "--l1", "--learning-rate"])
    def test_nan_hyperparameter_is_a_usage_error(self, tree_pairs, capsys, option):
        code = main(
            ["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv",
             "--dim", "4", "--epochs", "2", option, "nan", "--output", "emb.txt"]
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert "usage error" in err and "nan" in err
        assert "epoch" not in out
        assert not (tree_pairs / "emb.txt").exists()

    def test_bad_pairs_file_exits_two(self, tree_pairs, capsys):
        (tree_pairs / "bad.tsv").write_text("a\tb\t1.5\n")
        code = main(
            ["train", "--graph", "tree.tsv", "--pairs", "bad.tsv",
             "--dim", "4", "--output", "emb.txt"]
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_whitespace_id_fails_before_training(self, workdir, capsys):
        (workdir / "spaced.tsv").write_text("a b\tr\nc\tr\n")
        (workdir / "pairs.tsv").write_text("a b\tc\t0.5\nc\tr\t1.0\n")
        code = main(
            ["train", "--graph", "spaced.tsv", "--pairs", "pairs.tsv",
             "--dim", "4", "--epochs", "2", "--output", "emb.txt"]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert "'a b'" in err and "whitespace" in err
        assert "epoch" not in out
        assert not (workdir / "emb.txt").exists()
        assert not (workdir / "emb.txt.manifest").exists()


class TestEvalSim:
    def setup_files(self, workdir):
        (workdir / "lemma_pairs.tsv").write_text(
            "cup\tmug\t8.0\nseat\tchair\t6.5\nbird\tstone\t2.0\nleaf\troot\t3.5\n"
        )
        (workdir / "candidates.tsv").write_text(
            "cup\tc,d\nmug\td\nseat\te\nchair\tf\nbird\tc\nstone\tf\nleaf\te\nroot\tr\n"
        )

    def test_measure_scorer_static(self, workdir, capsys):
        self.setup_files(workdir)
        code = main(
            ["eval-sim", "--graph", "tree.tsv", "--pairs", "lemma_pairs.tsv",
             "--candidates", "candidates.tsv", "--measure", "shp",
             "--scorer", "measure", "--golds", "measure",
             "--report", "report.tsv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spearman=1.0000" in out
        assert "scorer=shp[raw]" in out
        report = (workdir / "report.tsv").read_text().splitlines()
        assert report[0].startswith("spearman\t")
        assert report[1].split("\t")[0] == "1.0"

    def test_model_scorer_dynamic(self, workdir, capsys):
        self.setup_files(workdir)
        main(["similarities", "--graph", "tree.tsv", "--measure", "shp",
              "--output", "pairs.tsv"])
        main(["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv",
              "--dim", "8", "--epochs", "3", "--output", "emb.txt"])
        code = main(
            ["eval-sim", "--graph", "tree.tsv", "--pairs", "lemma_pairs.tsv",
             "--candidates", "candidates.tsv",
             "--model", "emb.txt", "--selection", "dynamic",
             "--histogram", "hist.tsv", "--bins", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "selection=dynamic scorer=model[dot]" in out
        assert len((workdir / "hist.tsv").read_text().splitlines()) == 4
        assert (workdir / "taxovec-eval-sim.manifest").exists()

    def test_histogram_counts_every_evaluated_pair(self, workdir, capsys):
        self.setup_files(workdir)
        code = main(
            ["eval-sim", "--graph", "tree.tsv", "--pairs", "lemma_pairs.tsv",
             "--candidates", "candidates.tsv", "--measure", "shp",
             "--scorer", "measure", "--histogram", "hist.tsv", "--bins", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        evaluated = int(out.split("evaluated=")[1].split()[0])
        rows = (workdir / "hist.tsv").read_text().splitlines()
        assert len(rows) == 3
        assert sum(int(r.split("\t")[2]) for r in rows) == evaluated

    def test_repeated_lemma_is_a_data_error(self, workdir, capsys):
        self.setup_files(workdir)
        with open(workdir / "candidates.tsv", "a") as fh:
            fh.write("cup\tr\n")
        code = main(
            ["eval-sim", "--graph", "tree.tsv", "--pairs", "lemma_pairs.tsv",
             "--candidates", "candidates.tsv", "--measure", "shp",
             "--scorer", "measure", "--report", "report.tsv"]
        )
        assert code == 2
        assert "candidates.tsv:9: lemma 'cup' repeats candidates.tsv:1" in capsys.readouterr().err
        assert not (workdir / "report.tsv").exists()

    def test_repeated_lemma_pair_is_a_data_error(self, workdir, capsys):
        self.setup_files(workdir)
        with open(workdir / "lemma_pairs.tsv", "a") as fh:
            fh.write("mug\tcup\t3.0\n")
        code = main(
            ["eval-sim", "--graph", "tree.tsv", "--pairs", "lemma_pairs.tsv",
             "--candidates", "candidates.tsv", "--measure", "shp",
             "--scorer", "measure", "--report", "report.tsv"]
        )
        assert code == 2
        assert "lemma_pairs.tsv:5: lemma pair ('mug', 'cup') repeats lemma_pairs.tsv:1" in capsys.readouterr().err
        assert not (workdir / "report.tsv").exists()

    def test_normalized_measure_scorer(self, workdir, capsys):
        self.setup_files(workdir)
        main(["similarities", "--graph", "tree.tsv", "--measure", "shp",
              "--output", "pairs.tsv"])
        code = main(
            ["eval-sim", "--graph", "tree.tsv", "--pairs", "lemma_pairs.tsv",
             "--candidates", "candidates.tsv", "--measure", "shp",
             "--scorer", "measure", "--norm-from", "pairs.tsv"]
        )
        assert code == 0
        assert "scorer=shp[norm]" in capsys.readouterr().out

    @pytest.mark.parametrize("graph", ["chain.tsv", "tree.tsv"])
    @pytest.mark.parametrize("measure", ["shp", "lch", "wup"])
    def test_norm_range_matches_read_pairs(self, workdir, graph, measure):
        main(["similarities", "--graph", graph, "--measure", measure,
              "--threshold", "0.0", "--output", "pairs.tsv"])
        meta = read_pairs("pairs.tsv")[1]
        want = (float(meta["norm_min"]), float(meta["norm_max"]))
        assert _norm_range_from("pairs.tsv") == want

    def test_norm_range_reads_only_the_header(self, workdir):
        # a bad data row is never parsed, and a header line after the first
        # data row is not part of the header
        (workdir / "pairs.tsv").write_text(
            "# norm_min=0.25\n# norm_max=0.5\na\tb\tnot-a-number\n"
        )
        assert _norm_range_from("pairs.tsv") == (0.25, 0.5)
        (workdir / "late.tsv").write_text("# norm_min=0.25\na\tb\t1.0\n# norm_max=0.5\n")
        with pytest.raises(DataError, match="late.tsv: header lacks usable norm_min/norm_max"):
            _norm_range_from("late.tsv")

    @pytest.mark.parametrize("gold", ["nan", "inf"])
    def test_non_finite_gold_is_a_data_error_at_its_line(self, workdir, capsys, gold):
        self.setup_files(workdir)
        with (workdir / "lemma_pairs.tsv").open("a") as fh:
            fh.write(f"cup\tleaf\t{gold}\n")
        code = main(
            ["eval-sim", "--graph", "tree.tsv", "--pairs", "lemma_pairs.tsv",
             "--candidates", "candidates.tsv", "--measure", "shp",
             "--scorer", "measure", "--report", "report.tsv"]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert f"lemma_pairs.tsv:5: non-finite score '{gold}'" in err
        assert "spearman" not in out and not (workdir / "report.tsv").exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "1_0"])
    def test_norm_range_must_be_finite_reals(self, workdir, value):
        (workdir / "pairs.tsv").write_text(f"# norm_min=0.25\n# norm_max={value}\na\tb\t1.0\n")
        with pytest.raises(DataError, match="pairs.tsv: header lacks usable norm_min/norm_max"):
            _norm_range_from("pairs.tsv")

    def test_scorer_model_requires_model_path(self, workdir, capsys):
        self.setup_files(workdir)
        code = main(
            ["eval-sim", "--graph", "tree.tsv", "--pairs", "lemma_pairs.tsv",
             "--candidates", "candidates.tsv", "--measure", "shp"]
        )
        assert code == 1
        assert "requires --model" in capsys.readouterr().err


EVAL_SIM_DYNAMIC = ["eval-sim", "--graph", "tree.tsv", "--pairs", "lemma_pairs.tsv",
                    "--candidates", "candidates.tsv", "--selection", "dynamic", "--report", "out.tsv"]
EVAL_SIM = ["eval-sim", "--graph", "tree.tsv", "--pairs", "lemma_pairs.tsv",
            "--candidates", "candidates.tsv", "--measure", "shp", "--report", "out.tsv"]
WSD = ["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv", "--threshold", "0.3",
       "--predictions", "out.tsv"]
SIMILARITIES = ["similarities", "--graph", "tree.tsv", "--output", "out.tsv"]
TRAIN = ["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv", "--dim", "4", "--epochs", "1",
         "--output", "out.tsv"]
BENCH = ["bench", "--graph", "tree.tsv", "--queries", "2", "--repeats", "5", "--report", "out.tsv"]
BENCH_NODES = ["bench", "--graph", "tree.tsv", "--query-nodes", "c,d", "--repeats", "5", "--report", "out.tsv"]


class TestUnreadScorerOptions:
    # a run never reads these options in its mode; accepting them would put
    # a model digest, a score mode or a setting it never used in the manifest

    @pytest.mark.parametrize(
        "command, valid, unread, why",
        [
            (EVAL_SIM, ["--scorer", "measure"], ["--model", "emb.txt"], "with --scorer measure"),
            (EVAL_SIM, ["--scorer", "measure"], ["--score-mode", "cosine"], "with --scorer measure"),
            (EVAL_SIM, ["--model", "emb.txt"], ["--norm-from", "pairs.tsv"], "with --scorer model"),
            (WSD, ["--scorer", "model", "--model", "emb.txt"], ["--norm-from", "pairs.tsv"], "with --scorer model"),
            (WSD, ["--scorer", "model", "--model", "emb.txt"], ["--measure", "shp"], "with --scorer model"),
            (WSD, ["--scorer", "model", "--model", "emb.txt"], ["--ic-counts", "counts.tsv"], "with --scorer model"),
            (WSD, ["--measure", "shp"], ["--model", "emb.txt"], "with --scorer measure"),
            (WSD, ["--measure", "shp"], ["--score-mode", "cosine"], "with --scorer measure"),
            (SIMILARITIES, ["--measure", "shp"], ["--ic-counts", "counts.tsv"], "without --measure jcn"),
            (EVAL_SIM, ["--scorer", "measure"], ["--ic-counts", "counts.tsv"], "without --measure jcn"),
            (EVAL_SIM, ["--model", "emb.txt"], ["--ic-counts", "counts.tsv"], "without --measure jcn"),
            (WSD, ["--measure", "wup"], ["--ic-counts", "counts.tsv"], "without --measure jcn"),
            (BENCH, ["--measure", "lch", "--dim", "4"], ["--ic-counts", "counts.tsv"], "without --measure jcn"),
            (BENCH, ["--model", "emb.txt"], ["--dim", "4"], "with --model"),
            (BENCH, ["--methods", "graph"], ["--model", "emb.txt"], "without dot in --methods"),
            (BENCH, ["--methods", "graph"], ["--dim", "4"], "without dot in --methods"),
            (EVAL_SIM, ["--scorer", "measure"], ["--bins", "3"], "without --histogram"),
            (TRAIN, [], ["--patience", "1"], "without --dev-pairs"),
            (WSD, ["--measure", "shp"], ["--seed", "3"], "without --baseline random"),
            (WSD, ["--measure", "shp", "--baseline", "first"], ["--seed", "3"], "without --baseline random"),
            (BENCH_NODES, [], ["--queries", "2"], "with --query-nodes"),
            (BENCH, ["--methods", "graph"], ["--topk", "3"], "unless --methods has both graph and dot"),
            (BENCH, ["--methods", "dot"], ["--topk", "3"], "unless --methods has both graph and dot"),
            (BENCH_NODES, ["--methods", "graph"], ["--seed", "3"],
             "with --query-nodes unless dot runs on the random matrix"),
            (BENCH_NODES, ["--model", "emb.txt"], ["--seed", "3"],
             "with --query-nodes unless dot runs on the random matrix"),
            (BENCH, ["--methods", "dot"], ["--measure", "wup"], "without graph in --methods"),
            (BENCH, ["--methods", "dot"], ["--ic-counts", "counts.tsv"], "without graph in --methods"),
            (BENCH, ["--methods", "dot"], ["--measure", "jcn", "--ic-counts", "counts.tsv"],
             "without graph in --methods"),
            (EVAL_SIM_DYNAMIC, ["--model", "emb.txt"], ["--measure", "jcn"],
             "with --selection dynamic, --golds human and --scorer model"),
            (EVAL_SIM_DYNAMIC, ["--model", "emb.txt"], ["--measure", "wup"],
             "with --selection dynamic, --golds human and --scorer model"),
        ],
        ids=["eval-sim-measure-model", "eval-sim-measure-score-mode", "eval-sim-model-norm-from",
             "wsd-model-norm-from", "wsd-model-measure", "wsd-model-ic-counts",
             "wsd-measure-model", "wsd-measure-score-mode",
             "similarities-shp-ic-counts", "eval-sim-measure-shp-ic-counts", "eval-sim-model-shp-ic-counts",
             "wsd-wup-ic-counts", "bench-lch-ic-counts", "bench-model-dim", "bench-graph-model",
             "bench-graph-dim", "eval-sim-bins", "train-patience", "wsd-no-baseline-seed",
             "wsd-first-baseline-seed", "bench-query-nodes-queries", "bench-graph-topk", "bench-dot-topk",
             "bench-query-nodes-graph-seed", "bench-query-nodes-model-seed", "bench-dot-measure",
             "bench-dot-ic-counts", "bench-dot-jcn-ic-counts", "eval-sim-dynamic-jcn", "eval-sim-dynamic-wup"],
    )
    def test_usage_error_names_the_option(self, workdir, capsys, command, valid, unread, why):
        TestEvalSim().setup_files(workdir)
        (workdir / "inst.tsv").write_text(TestWsd.INSTANCES)
        (workdir / "counts.tsv").write_text("c\t3\nd\t1\n")
        (workdir / "emb.txt").write_text(
            "7 2\n" + "".join(f"{node} {k % 3 - 1}.5 {k % 2}.25\n" for k, node in enumerate("arbcdef"))
        )
        assert main(["similarities", "--graph", "tree.tsv", "--measure", "shp", "--output", "pairs.tsv"]) == 0
        assert main([*command, *valid, *unread]) == 1
        assert f"{unread[0]} is not read {why}" in capsys.readouterr().err
        assert not list(workdir.glob("out.tsv*")) + list(workdir.glob("taxovec-*.manifest"))
        assert main([*command, *valid]) == 0


@pytest.mark.parametrize(
    "args, reader",
    [
        (["--model", "emb.txt"], "--selection static"),
        (["--model", "emb.txt", "--selection", "dynamic", "--golds", "measure"], "--golds measure"),
        (["--scorer", "measure", "--selection", "dynamic"], "--scorer measure"),
    ],
    ids=["static-selection", "measure-golds", "measure-scorer"],
)
def test_eval_sim_requires_measure_where_the_run_reads_it(workdir, capsys, args, reader):
    TestEvalSim().setup_files(workdir)
    (workdir / "emb.txt").write_text(
        "7 2\n" + "".join(f"{node} {k % 3 - 1}.5 {k % 2}.25\n" for k, node in enumerate("arbcdef"))
    )
    base = [arg for arg in EVAL_SIM if arg not in ("--measure", "shp")]
    assert main([*base, *args]) == 1
    assert f"{reader} requires --measure" in capsys.readouterr().err
    assert not list(workdir.glob("out.tsv*")) + list(workdir.glob("taxovec-*.manifest"))


class TestWsd:
    INSTANCES = (
        "s1\t0\tfirst\tc,e\tc\n"
        "s1\t1\tsecond\td\td\n"
        "\n"
        "s2\t0\tonly\tf\tf\n"
    )

    def test_measure_scorer_run(self, workdir, capsys):
        (workdir / "inst.tsv").write_text(self.INSTANCES)
        code = main(
            ["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv",
             "--measure", "shp", "--threshold", "0.3",
             "--baseline", "first", "--predictions", "preds.tsv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # shp(c,d)=1/3 > 0.3 links them; e-d scores 1/5 -> token 0 picks c
        assert "precision=1.0000 recall=1.0000 f1=1.0000" in out
        assert "attempted=3 correct=3 gold=3 skipped_pairs=0" in out
        assert "baseline=first f1=1.0000" in out
        preds = (workdir / "preds.tsv").read_text().splitlines()
        assert preds[0] == "s1\t0\tfirst\tc,e\tc"
        assert (workdir / "taxovec-wsd.manifest").exists()

    def test_high_threshold_falls_back_to_first(self, workdir, capsys):
        (workdir / "inst.tsv").write_text(
            "s1\t0\tfirst\te,c\t-\ns1\t1\tsecond\td\td\n"
        )
        code = main(
            ["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv",
             "--measure", "shp", "--threshold", "0.99",
             "--predictions", "preds.tsv"]
        )
        assert code == 0
        assert (workdir / "preds.tsv").read_text().splitlines()[0].endswith("\te")

    def test_sweep_lines(self, workdir, capsys):
        (workdir / "inst.tsv").write_text(self.INSTANCES)
        code = main(
            ["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv",
             "--measure", "shp", "--sweep", "0.2:0.4:0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("sweep t=") == 3

    def test_sweep_scores_each_sentence_once(self, workdir, capsys, monkeypatch):
        calls = []
        grids = MeasureScorer.grids

        def counting_grids(self, requests):
            calls.append([(tuple(us), tuple(vs)) for us, vs in requests])
            return grids(self, requests)

        monkeypatch.setattr(MeasureScorer, "grids", counting_grids)
        (workdir / "inst.tsv").write_text(self.INSTANCES)
        code = main(
            ["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv",
             "--measure", "shp", "--threshold", "0.3", "--sweep", "0.2:0.4:0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("sweep t=") == 3
        assert "sweep t=0.3000 f1=1.0000" in out
        assert [len(requests) for requests in calls] == [2]  # one grid per sentence, one call for all four thresholds

    def test_nan_threshold_is_a_usage_error(self, workdir, capsys):
        (workdir / "inst.tsv").write_text(self.INSTANCES)
        code = main(
            ["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv",
             "--measure", "shp", "--threshold", "nan", "--predictions", "preds.tsv"]
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not (workdir / "preds.tsv").exists()

    def test_bad_sweep_spec(self, workdir, capsys):
        (workdir / "inst.tsv").write_text(self.INSTANCES)
        code = main(
            ["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv",
             "--measure", "shp", "--sweep", "backwards"]
        )
        assert code == 1

    @pytest.mark.parametrize("spec", [f"0:1:{1 / SWEEP_MAX}", "0:1:1e-12", "0:1:1e-320"])
    def test_sweep_over_the_cap_is_a_usage_error(self, workdir, capsys, spec):
        (workdir / "inst.tsv").write_text(self.INSTANCES)
        code = main(
            ["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv",
             "--measure", "shp", "--sweep", spec]
        )
        assert code == 1
        err = capsys.readouterr().err
        count = {"0:1:1e-12": "1e+12", "0:1:1e-320": "inf"}.get(spec, str(SWEEP_MAX + 1))
        assert f"asks for {count} thresholds; at most {SWEEP_MAX}" in err
        assert not (workdir / "taxovec-wsd.manifest").exists()

    def test_sweep_at_the_cap_runs(self, workdir, capsys):
        (workdir / "inst.tsv").write_text(self.INSTANCES)
        code = main(
            ["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv",
             "--measure", "shp", "--sweep", f"0:{SWEEP_MAX - 1}:1"]
        )
        assert code == 0
        assert capsys.readouterr().out.count("sweep t=") == SWEEP_MAX

    def test_sweep_step_below_resolution_ends(self, workdir, capsys):
        (workdir / "inst.tsv").write_text(self.INSTANCES)
        code = main(
            ["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv",
             "--measure", "shp", "--sweep", "1e17:1e17:1"]
        )
        assert code == 0
        assert capsys.readouterr().out.count("sweep t=") <= 2

    @pytest.mark.parametrize("spec", ["nan:1:0.1", "0:nan:0.1", "0:1:nan", "0:inf:0.5", "-inf:0:0.5"])
    def test_non_finite_sweep_spec_is_a_usage_error(self, workdir, capsys, spec):
        (workdir / "inst.tsv").write_text(self.INSTANCES)
        code = main(
            ["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv",
             "--measure", "shp", "--sweep", spec]
        )
        assert code == 1
        assert "finite" in capsys.readouterr().err

    def test_random_baseline_seeded(self, workdir, capsys):
        (workdir / "inst.tsv").write_text(self.INSTANCES)
        outs = []
        for _ in range(2):
            assert main(
                ["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv",
                 "--measure", "shp", "--baseline", "random", "--seed", "6"]
            ) == 0
            outs.append(
                [l for l in capsys.readouterr().out.splitlines() if "baseline" in l]
            )
        assert outs[0] == outs[1]


class TestNeighbors:
    def test_matches_full_sort(self, tree_pairs, capsys):
        main(["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv",
              "--dim", "8", "--epochs", "3", "--output", "emb.txt"])
        capsys.readouterr()
        code = main(["neighbors", "--model", "emb.txt", "--node", "c", "--k", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        m = load_embeddings(tree_pairs / "emb.txt")
        scores = m.matrix.astype(np.float64) @ m.matrix[m.idx("c")].astype(np.float64)
        expected = [m.ids[int(i)] for i in np.argsort(-scores, kind="stable")[:3]]
        assert [l.split("\t")[0] for l in lines] == expected
        got_scores = [float(l.split("\t")[1]) for l in lines]
        assert got_scores == sorted(got_scores, reverse=True)

    def test_oversized_k_clips_with_warning(self, tree_pairs, capsys):
        main(["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv",
              "--dim", "4", "--epochs", "2", "--output", "emb.txt"])
        capsys.readouterr()
        code = main(["neighbors", "--model", "emb.txt", "--node", "c", "--k", "99"])
        assert code == 0
        captured = capsys.readouterr()
        # the node ranks itself, so all 7 nodes print
        assert "clipping to 7" in captured.err
        lines = captured.out.splitlines()
        assert sorted(l.split("\t")[0] for l in lines) == sorted(load_embeddings(tree_pairs / "emb.txt").ids)

    def test_cosine_mode_with_zero_row(self, workdir, capsys):
        rows = {"a": [3.0, 4.0], "b": [0.0, 0.0], "c": [-1.0, 0.5], "d": [6.0, 8.0]}
        (workdir / "emb.txt").write_text(
            "4 2\n" + "".join(f"{k} {x!r} {y!r}\n" for k, (x, y) in rows.items())
        )
        m = load_embeddings(workdir / "emb.txt")
        assert main(["neighbors", "--model", "emb.txt", "--node", "a",
                     "--k", "4", "--score-mode", "cosine"]) == 0
        got = [l.split("\t") for l in capsys.readouterr().out.splitlines()]
        assert [node for node, _ in got] == ["a", "d", "b", "c"]
        for node, value in got:
            want = model_score_oracle(m.matrix, m.idx("a"), m.idx(node), "cosine")
            assert abs(float(value) - want) <= 1e-12 * abs(want)
        assert main(["neighbors", "--model", "emb.txt", "--node", "b",
                     "--k", "4", "--score-mode", "cosine"]) == 0
        got = [l.split("\t") for l in capsys.readouterr().out.splitlines()]
        assert got == [[node, "0.0"] for node in "abcd"]

    def test_unknown_node_is_a_data_error(self, tree_pairs, capsys):
        main(["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv",
              "--dim", "4", "--epochs", "2", "--output", "emb.txt"])
        assert main(["neighbors", "--model", "emb.txt", "--node", "zzz"]) == 2


@pytest.mark.filterwarnings("ignore:median pass time")
class TestBench:
    def test_graph_and_dot(self, workdir, capsys):
        code = main(
            ["bench", "--graph", "tree.tsv", "--measure", "shp",
             "--dim", "16", "--queries", "3", "--repeats", "5",
             "--report", "bench.tsv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "graph[shp]" in out
        assert "dot[float32]" in out
        assert "top-10 overlap:" in out
        rows = (workdir / "bench.tsv").read_text().splitlines()
        assert rows[0].startswith("method\t")
        assert len(rows) == 3
        got = read_manifest(workdir / "taxovec-bench.manifest")
        assert got["config.methods"] == "graph,dot"

    def test_query_nodes_override(self, workdir, capsys):
        code = main(
            ["bench", "--graph", "tree.tsv", "--measure", "shp",
             "--methods", "graph", "--query-nodes", "c,d",
             "--repeats", "5"]
        )
        assert code == 0
        got = read_manifest(workdir / "taxovec-bench.manifest")
        assert got["config.queries"] == "c,d"

    @pytest.mark.parametrize(
        "env, want",
        [({}, "unset"), ({"OMP_NUM_THREADS": "2"}, "2"),
         ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, "1")],
    )
    def test_manifest_records_blas_threads(self, workdir, monkeypatch, env, want):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        code = main(
            ["bench", "--graph", "tree.tsv", "--measure", "shp",
             "--dim", "8", "--queries", "2", "--repeats", "5"]
        )
        assert code == 0
        got = read_manifest(workdir / "taxovec-bench.manifest")
        assert got["config.blas_threads"] == want

    def test_empty_method_list_is_a_usage_error(self, workdir, capsys):
        # at least one method must run: an empty list would time nothing
        code = main(["bench", "--graph", "tree.tsv", "--methods", ",", "--repeats", "5"])
        assert code == 1
        assert "need at least one method" in capsys.readouterr().err
        assert not (workdir / "taxovec-bench.manifest").exists()

    def test_too_few_repeats(self, workdir, capsys):
        code = main(
            ["bench", "--graph", "tree.tsv", "--measure", "shp",
             "--methods", "graph", "--repeats", "1"]
        )
        assert code == 1
        assert "repeats" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, message", [
        ("--repeats", "4", "4 is not in the range x>=5"),
        ("--methods", "foo", "unknown method 'foo'"),
        ("--methods", ",", "need at least one method"),
        ("--methods", "graph,dots", "unknown method 'dots'"),
        ("--query-nodes", ",", "--query-nodes ',': need at least one node id"),
        ("--query-nodes", "", "--query-nodes '': need at least one node id"),
    ])
    def test_bad_repeats_or_methods_fail_before_any_input_is_read(self, workdir, capsys, option, value, message):
        # the graph is cyclic: reading it would be a data error (exit 2)
        (workdir / "cycle.tsv").write_text("a\tb\nb\ta\n")
        assert main(["bench", "--graph", "cycle.tsv", "--dim", "4", "--queries", "2", option, value]) == 1
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == ["chain.tsv", "cycle.tsv", "tree.tsv"]

    def test_timer_floor_prints_one_warning_line(self, workdir, capsys):
        # one tiny dot product per pass is far under the timer floor
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["bench", "--graph", "tree.tsv", "--methods", "dot", "--dim", "4", "--query-nodes", "c"]) == 0
        assert not [w for w in caught if "median pass time" in str(w.message)]
        assert capsys.readouterr().err.splitlines() == [
            "warning: dot[float32] medians are below timer resolution; give more --query-nodes"
        ]

    def test_timer_floor_warning_asks_for_more_queries_when_they_are_sampled(self, workdir, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["bench", "--graph", "tree.tsv", "--methods", "dot", "--dim", "4", "--queries", "1"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: dot[float32] medians are below timer resolution; increase --queries"
        ]


@pytest.mark.parametrize("command", [
    [*SIMILARITIES, "--measure", "shp"],
    TRAIN,
    [*WSD, "--measure", "shp", "--baseline", "random"],
    [*BENCH, "--dim", "4"],
], ids=["similarities", "train", "wsd-random-baseline", "bench"])
def test_negative_seed_is_a_usage_error(workdir, capsys, command):
    (workdir / "inst.tsv").write_text(TestWsd.INSTANCES)
    assert main(["similarities", "--graph", "tree.tsv", "--measure", "shp", "--output", "pairs.tsv"]) == 0
    capsys.readouterr()
    assert main([*command, "--seed", "-1"]) == 1
    assert "Invalid value for '--seed': -1 is not in the range x>=0" in capsys.readouterr().err
    assert not list(workdir.glob("out.tsv*")) + list(workdir.glob("taxovec-*.manifest"))


@pytest.mark.parametrize("command, target", [
    ([*SIMILARITIES, "--measure", "shp"], "out.tsv"),
    ([*WSD, "--measure", "shp"], "out.tsv"),
    ([*EVAL_SIM, "--scorer", "measure"], "out.tsv"),
    ([*EVAL_SIM[:-2], "--scorer", "measure", "--histogram", "out.tsv"], "out.tsv"),
    ([*BENCH, "--dim", "4"], "out.tsv"),
    (BENCH[:-2] + ["--dim", "4"], "taxovec-bench.manifest"),
], ids=["write_pairs", "wsd-predictions", "eval-sim-report", "eval-sim-histogram", "bench-report", "manifest"])
def test_interrupted_writer_leaves_no_file(workdir, capsys, monkeypatch, command, target):
    # Ctrl-C at the target's first write exits 1 with `aborted` and leaves
    # neither the target nor its temporary file, nor any later output
    TestEvalSim().setup_files(workdir)
    (workdir / "inst.tsv").write_text(TestWsd.INSTANCES)
    before = sorted(p.name for p in workdir.iterdir())

    class Interrupted:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise KeyboardInterrupt

    @contextlib.contextmanager
    def interrupting_write(path):
        with io.atomic_write(path) as fh:
            yield Interrupted(fh) if Path(path).name == target else fh

    for module in (cli, dataset, manifest, wsd):
        monkeypatch.setattr(module, "atomic_write", interrupting_write)
    assert main(command) == 1
    assert "aborted" in capsys.readouterr().err
    assert sorted(p.name for p in workdir.iterdir()) == before


class TestEntryPoint:
    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "similarities" in capsys.readouterr().out

    def test_no_arguments_shows_usage(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "No such command" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["similarities", "--graph", "{bad}", "--measure", "shp", "--output", "out.tsv"],
        ["similarities", "--graph", "tree.tsv", "--measure", "jcn", "--ic-counts", "{bad}",
         "--output", "out.tsv"],
        ["neighbors", "--model", "{bad}", "--node", "a"],
    ])
    @pytest.mark.parametrize("bad", ["a\tb.tsv", "a\nb.tsv", "a\rb.tsv"])
    def test_input_path_with_tab_or_line_break_fails_first(self, workdir, capsys, args, bad):
        # the path would break its manifest line: reject it before any work
        (workdir / bad).write_text("c\tb\nb\ta\n")
        option = next(a for a, b in zip(args, args[1:]) if b == "{bad}")
        code = main([bad if a == "{bad}" else a for a in args])
        assert code == 2
        assert f"{option} path" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == sorted([bad, "chain.tsv", "tree.tsv"])

    def test_input_that_is_not_a_regular_file_fails_first(self, workdir, capsys):
        # the run would drain a pipe before its manifest digest is taken, and record the empty file's
        read_end, write_end = os.pipe()
        try:
            with os.fdopen(write_end, "w") as fh:  # written and closed: a read of the pipe cannot block
                fh.write(CHAIN)
            path = f"/dev/fd/{read_end}"
            code = main(["similarities", "--graph", path, "--measure", "shp", "--output", "out.tsv"])
        finally:
            os.close(read_end)
        assert code == 2
        assert f"--graph path {path!r} is not a regular file" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == ["chain.tsv", "tree.tsv"]

    @pytest.mark.parametrize("args, output, source", [
        (["similarities", "--graph", "tree.tsv", "--measure", "shp", "--output", "tree.tsv"], "--output", "--graph"),
        (["similarities", "--graph", "tree.tsv", "--measure", "shp", "--output", "link.tsv"], "--output", "--graph"),
        (["similarities", "--graph", "tree.tsv", "--measure", "shp", "--output", "out.tsv", "--manifest", "./tree.tsv"],
         "--manifest", "--graph"),
        (["similarities", "--graph", "out.tsv.manifest", "--measure", "shp", "--output", "out.tsv"], "--manifest", "--graph"),
        ([*EVAL_SIM, "--scorer", "measure", "--histogram", "candidates.tsv"], "--histogram", "--candidates"),
        ([*EVAL_SIM[:-1], "lemma_pairs.tsv", "--scorer", "measure"], "--report", "--pairs"),
        (["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv", "--measure", "shp", "--predictions", "inst.tsv"],
         "--predictions", "--instances"),
        ([*BENCH[:-1], "tree.tsv"], "--report", "--graph"),
    ], ids=["output", "output-symlink", "manifest", "default-manifest", "histogram", "report", "predictions", "bench-report"])
    def test_an_output_that_names_an_input_fails_first(self, workdir, capsys, args, output, source):
        # the run would overwrite its own input, and record the output's digest as the input's
        (workdir / "lemma_pairs.tsv").write_text("cup\tmug\t8.0\nseat\tchair\t6.5\nbird\tstone\t2.0\n")
        (workdir / "candidates.tsv").write_text("cup\tc,d\nmug\td\nseat\te\nchair\tf\nbird\tc\nstone\tf\n")
        (workdir / "inst.tsv").write_text(TestWsd.INSTANCES)
        (workdir / "link.tsv").symlink_to("tree.tsv")
        (workdir / "out.tsv.manifest").write_text(TREE)
        before = {p.name: p.read_bytes() for p in workdir.iterdir()}
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"{output} " in err and f"the {source} input" in err
        assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before

    @pytest.mark.parametrize("args, later, earlier", [
        ([*EVAL_SIM, "--scorer", "measure", "--histogram", "./out.tsv"], "--report", "--histogram"),
        ([*EVAL_SIM, "--scorer", "measure", "--manifest", "out.tsv"], "--manifest", "--report"),
        ([*EVAL_SIM, "--scorer", "measure", "--manifest", "link.tsv"], "--manifest", "--report"),
    ], ids=["report-histogram", "report-manifest", "report-manifest-symlink"])
    def test_two_outputs_that_name_one_file_fail_first(self, workdir, capsys, args, later, earlier):
        # the later write would replace the earlier output, which the run reports as written
        (workdir / "lemma_pairs.tsv").write_text("cup\tmug\t8.0\nseat\tchair\t6.5\nbird\tstone\t2.0\n")
        (workdir / "candidates.tsv").write_text("cup\tc,d\nmug\td\nseat\te\nchair\tf\nbird\tc\nstone\tf\n")
        (workdir / "link.tsv").symlink_to("out.tsv")
        before = {p.name: p.read_bytes() for p in workdir.iterdir() if p.name != "link.tsv"}
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"{later} " in err and f"names the {earlier} output" in err
        assert {p.name: p.read_bytes() for p in workdir.iterdir() if p.name != "link.tsv"} == before

    def test_missing_input_file(self, workdir, capsys):
        code = main(
            ["similarities", "--graph", "no-such-file.tsv",
             "--measure", "shp", "--output", "pairs.tsv"]
        )
        assert code == 1

    @pytest.mark.parametrize("command, loader", [
        (["similarities", "--graph", "tree.tsv", "--measure", "shp", "--output", "out.tsv"], "load_edge_list"),
        (["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv", "--dim", "2", "--output", "out.tsv"], "read_pairs"),
    ], ids=["similarities", "train"])
    @pytest.mark.parametrize("message", ["Unable to allocate 8.00 EiB for an array", ""])
    def test_memory_error_is_a_one_line_data_error(self, workdir, capsys, monkeypatch, command, loader, message):
        assert main(["similarities", "--graph", "tree.tsv", "--measure", "shp", "--output", "pairs.tsv"]) == 0
        capsys.readouterr()

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(f"taxovec.cli.{loader}", out_of_memory)
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err == f"data error: out of memory{': ' + message if message else ''}\n"
        assert not list(workdir.glob("out.tsv*"))


class TestArraySizingOptions:
    """An integer option that sizes an array numpy cannot index is a usage
    error naming it, with no output; the sizes all overflow int64 element
    counts, which numpy refuses before allocating."""

    def test_top_k_beyond_int64_keeps_every_partner(self, workdir, capsys):
        args = ["similarities", "--graph", "tree.tsv", "--measure", "shp"]
        assert main([*args, "--top-k", "6", "--output", "every.tsv"]) == 0
        assert main([*args, "--top-k", "99999999999999999999", "--output", "huge.tsv"]) == 0
        assert data_rows(workdir / "huge.tsv") == data_rows(workdir / "every.tsv")
        assert header_meta(workdir / "huge.tsv")["top_k"] == "99999999999999999999"

    def test_bins_beyond_the_cap_are_refused_before_any_input_is_read(self, workdir, capsys):
        (workdir / "lemma_pairs.tsv").write_text("not a lemma pairs file\n")
        (workdir / "candidates.tsv").write_text("cup\tc\n")
        code = main(["eval-sim", "--graph", "tree.tsv", "--pairs", "lemma_pairs.tsv", "--candidates",
                     "candidates.tsv", "--measure", "shp", "--scorer", "measure", "--histogram", "hist.tsv",
                     "--bins", "99999999999999999999"])
        assert code == 1
        assert "--bins" in capsys.readouterr().err
        assert not list(workdir.glob("hist.tsv*")) + list(workdir.glob("taxovec-*.manifest"))

    @pytest.mark.parametrize("option, value", [
        ("--dim", "99999999999999999999"),
        ("--dim", str(2**62)),  # overflows only times the 7 nodes
        ("--negatives", "99999999999999999999"),
        ("--negatives", str(2**61)),  # overflows only times the 21 pairs' 1 + 2 * 2**61 entries
    ])
    def test_train(self, workdir, capsys, option, value):
        assert main(["similarities", "--graph", "tree.tsv", "--measure", "shp", "--output", "pairs.tsv"]) == 0
        capsys.readouterr()
        code = main(["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv", "--epochs", "1", "--dim", "2",
                     option, value, "--output", "emb.txt"])
        assert code == 1
        assert f"{option} {value} asks for a " in capsys.readouterr().err
        assert not list(workdir.glob("emb.txt*"))

    @pytest.mark.parametrize("value", ["99999999999999999999", str(2**62)])
    def test_bench_dim(self, workdir, capsys, value):
        code = main(["bench", "--graph", "tree.tsv", "--methods", "dot", "--dim", value, "--report", "bench.tsv"])
        assert code == 1
        assert f"--dim {value} asks for a 7 x {value} array" in capsys.readouterr().err
        assert not list(workdir.glob("bench.tsv*")) + list(workdir.glob("taxovec-*.manifest"))

    def test_embedding_header_beyond_int64_is_a_data_error(self, workdir, capsys):
        (workdir / "emb.txt").write_text("99999999999999999999 3\na 1 2 3\n")
        assert main(["neighbors", "--model", "emb.txt", "--node", "a"]) == 2
        assert "emb.txt:1: header `99999999999999999999 3` declares a 99999999999999999999 x 3 matrix" in (
            capsys.readouterr().err)
        assert not list(workdir.glob("taxovec-*.manifest"))


GOLDEN = Path(__file__).with_name("cli_golden.txt")
# runs of each command and mode on tree.tsv; bench's stdout and the timing
# columns of its report are left out, since they vary from run to run
GOLDEN_RUNS = [
    ["similarities", "--graph", "tree.tsv", "--measure", "shp", "--output", "pairs.tsv"],
    ["similarities", "--graph", "tree.tsv", "--virtual-root", "top", "--measure", "jcn",
     "--ic-counts", "counts.tsv", "--mode", "fast", "--seed", "3", "--output", "jcn.tsv",
     "--manifest", "jcn.manifest"],
    ["train", "--graph", "tree.tsv", "--pairs", "pairs.tsv", "--dev-pairs", "pairs.tsv",
     "--dim", "4", "--epochs", "3", "--patience", "1", "--seed", "2", "--output", "emb.txt"],
    ["eval-sim", "--graph", "tree.tsv", "--pairs", "lemma_pairs.tsv", "--candidates",
     "candidates.tsv", "--measure", "shp", "--scorer", "measure", "--norm-from", "pairs.tsv",
     "--golds", "measure", "--report", "eval.tsv", "--histogram", "hist.tsv", "--bins", "3"],
    ["eval-sim", "--graph", "tree.tsv", "--pairs", "lemma_pairs.tsv", "--candidates",
     "candidates.tsv", "--model", "emb.txt", "--score-mode", "cosine",
     "--selection", "dynamic", "--report", "eval-model.tsv", "--manifest", "eval-model.manifest"],
    ["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv", "--measure", "jcn",
     "--ic-counts", "counts.tsv", "--threshold", "0.3", "--sweep", "0:0.5:0.25",
     "--baseline", "random", "--seed", "4", "--predictions", "preds.tsv"],
    ["wsd", "--graph", "tree.tsv", "--instances", "inst.tsv", "--scorer", "model",
     "--model", "emb.txt", "--threshold", "0.1", "--predictions", "preds-model.tsv",
     "--manifest", "wsd-model.manifest"],
    ["neighbors", "--model", "emb.txt", "--node", "c", "-k", "3", "--score-mode", "cosine"],
    ["bench", "--graph", "tree.tsv", "--measure", "lch", "--dim", "4", "--queries", "2",
     "--repeats", "5", "--seed", "1", "--report", "bench.tsv"],
    ["bench", "--graph", "tree.tsv", "--methods", "dot", "--model", "emb.txt",
     "--query-nodes", "c,d", "--repeats", "5", "--manifest", "bench-model.manifest"],
]


def golden_text(workdir, capsys, monkeypatch) -> str:
    """Every output, manifest and stdout of GOLDEN_RUNS, wall time and version masked."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    TestEvalSim().setup_files(workdir)
    (workdir / "inst.tsv").write_text(TestWsd.INSTANCES)
    (workdir / "counts.tsv").write_text("c\t3\nd\t1\n")
    fixtures = {p.name for p in workdir.iterdir()}
    sections = []
    for args in GOLDEN_RUNS:
        assert main(args) == 0, args
        out = capsys.readouterr().out
        sections.append(f"==> stdout of {' '.join(args)} <==\n{'' if args[0] == 'bench' else out}")
    for path in sorted(p for p in workdir.iterdir() if p.name not in fixtures):
        lines = path.read_text().splitlines()
        if path.name.endswith("manifest"):
            lines = [line.partition("=")[0] + "=*" if line.startswith(("wall_time_s=", "version=")) else line
                     for line in lines]
        if path.name == "bench.tsv":
            lines = [f"{m}\t*\t{n}\t{r}\t*" for m, _, n, r, _ in (line.split("\t") for line in lines)]
        sections.append(f"==> {path.name} <==\n" + "".join(line + "\n" for line in lines))
    return "".join(sections)


def test_outputs_and_manifests_match_the_pinned_text(workdir, capsys, monkeypatch):
    # pins the pairs, embeddings, reports, predictions, stdout and manifests
    # of every command byte for byte; recapture cli_golden.txt only for a
    # change that means to alter them
    assert golden_text(workdir, capsys, monkeypatch) == GOLDEN.read_text()
