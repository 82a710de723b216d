"""The shared line reader, number grammar and atomic writer of taxovec.io."""

from __future__ import annotations

import ast
import builtins
import inspect
import itertools
import os
import random
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taxovec
from taxovec import io, trainer
from taxovec.cli import main
from taxovec.dataset import DatasetBuild, DatasetConfig, Pairs, TrainingPair, read_pairs, write_pairs
from taxovec.errors import DataError, RecordError
from taxovec.trainer import EmbeddingMatrix, load_embeddings, save_embeddings

from oracles import records_oracle

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)


def _records(path, layout="a<TAB>b"):
    return list(io.records(path, layout))


class TestRecordsPolicy:
    def test_bom_and_line_ends(self, tmp_path):
        p = tmp_path / "f.tsv"
        for body in ("\ufeffa\tb\nc\td\n", "a\tb\r\nc\td\r\n", "a\tb\rc\td\r", "a\tb\nc\td"):
            p.write_bytes(body.encode("utf-8"))
            assert _records(p) == [(f"{p}:1", ["a", "b"]), (f"{p}:2", ["c", "d"])]

    def test_comments_and_blank_lines_hold_no_record(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("# head\n\n \t \n  # indented\na\tb\n#a\tb\n\n")
        assert _records(p) == [(f"{p}:5", ["a", "b"])]

    def test_fields_are_stripped(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text(" new york \t\u00a0b \nx y\tz\n")
        assert _records(p) == [(f"{p}:1", ["new york", "b"]), (f"{p}:2", ["x y", "z"])]

    @pytest.mark.parametrize("line, message", [
        ("a\t", ":1: empty b"),
        ("\tb", ":1: empty a"),
        ("a\t \t", ":1: expected 2 tab-separated fields `a<TAB>b`, got 3"),
        ("a", ":1: expected 2 tab-separated fields `a<TAB>b`, got 1"),
    ])
    def test_empty_field_and_wrong_width(self, tmp_path, line, message):
        p = tmp_path / "f.tsv"
        p.write_text(line + "\n")
        with pytest.raises(RecordError, match=message):
            _records(p)

    def test_optional_trailing_fields(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("a\nb\tc\n")
        assert _records(p, "child[<TAB>parent]") == [(f"{p}:1", ["a"]), (f"{p}:2", ["b", "c"])]
        p.write_text("a\tb\tc\n")
        with pytest.raises(RecordError, match="expected 1 or 2 tab-separated fields"):
            _records(p, "child[<TAB>parent]")

    @pytest.mark.parametrize("middle", [
        "#x\ty", "#", "x y\t", "x\u3000y\t", "x\x0by\t", "\u00e9\t", "x\t\ty", " x\ty",
    ])
    def test_plain_blocks_follow_the_policy(self, tmp_path, middle):
        # whole lines of a block are split in bulk only when that cannot
        # differ from the policy: comments, empty fields hidden by a space
        # inside another field, and non-ASCII whitespace all count
        p = tmp_path / "f.tsv"
        p.write_text(f"a\tb\n{middle}\nc\td\n", encoding="utf-8")
        try:
            want = [(where, fields) for _, where, fields in records_oracle(p, "a[<TAB>b]")]
        except ValueError as exc:
            with pytest.raises(RecordError) as got:
                _records(p, "a[<TAB>b]")
            assert str(got.value) == str(exc)
        else:
            assert _records(p, "a[<TAB>b]") == want

    def test_paragraphs_break_at_blank_lines_only(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("\n\na\t1\n# no break\nb\t2\n\n\n \nc\t3\n\n")
        runs = list(io.paragraphs(p, "a<TAB>b"))
        assert [[fields[0] for _, fields in run] for run in runs] == [["a", "b"], ["c"]]

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 16, 64, 4096]),
           layout=st.sampled_from(["a<TAB>b", "a[<TAB>b]", "k", "a<TAB>b<TAB>c"]))
    def test_matches_line_by_line_oracle(self, seed, block, layout):
        rng = random.Random(seed)
        names = layout.replace("[", "").replace("]", "").split("<TAB>")
        text = _drawn_file(rng, range(layout.split("[")[0].count("<TAB>") + 1, len(names) + 1))
        with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
            mp.setattr(io, "BLOCK_CHARS", block)
            p = Path(d) / "f.tsv"
            p.write_bytes(text.encode("utf-8"))
            try:
                want = records_oracle(p, layout)
            except ValueError as exc:
                with pytest.raises(RecordError) as got:
                    list(io.records(p, layout))
                assert str(got.value) == str(exc)
                return
            assert list(io.records(p, layout)) == [(where, f) for _, where, f in want]
            runs = [[(w, f) for _, w, f in run]
                    for _, run in itertools.groupby(want, key=lambda r: r[0])]
            assert list(io.paragraphs(p, layout)) == runs


PLAIN = ["a", "b7", "n01"]
FANCY = ["x y", "\u00e9", "#h", "1.5", "a\u00a0b"]
PADS = [" ", "\u3000", "\x0b", "\u2028 "]
BLANK = ["", " ", "\u00a0", "\x1c"]  # empty once stripped


def _drawn_file(rng: random.Random, widths: range) -> str:
    """Mostly plain records, with comments, blank lines, padded fields and
    odd whitespace mixed in; about a third of the files get one bad line
    (a wrong width, an empty field or a stray TAB)."""
    n = rng.randint(0, 60)
    bad = rng.randrange(n) if n and rng.random() < 0.35 else -1
    lines, noise = [], rng.choice([0.0, 0.1, 0.2])
    for k in range(n):
        kind = rng.random()
        if kind < noise / 2:
            lines.append(rng.choice(["", "  ", "\t", " \t "]))
        elif kind < noise:
            lines.append(rng.choice(["# k=v", "#", "  # c", "#x\ty"]))
        fields = [rng.choice(PLAIN) for _ in range(rng.choice(widths))]
        if rng.random() < noise:
            j = rng.randrange(len(fields))
            fields[j] = rng.choice(PADS[:1] + [""]) + rng.choice(FANCY) + rng.choice(PADS + [""])
        if k == bad:
            fault = rng.randrange(3)
            if fault == 0:
                fields.append(rng.choice(PLAIN))
            elif fault == 1:
                fields[rng.randrange(len(fields))] = rng.choice(BLANK)
            else:
                fields.append("")
        lines.append("\t".join(fields))
    eol = rng.choice(["\n", "\n", "\r\n", "\r"])
    text = eol.join(lines) + (eol if rng.random() < 0.9 else "")
    return ("\ufeff" if rng.random() < 0.2 else "") + text


class TestNumberGrammar:
    TOKENS = st.one_of(
        st.sampled_from(["0", "-0.0", "+.5", "5.", "1e5", "1E-5", ".", "e1", "1e", "inf", "-Infinity",
                         "nan", "NaN", "1e400", "1e-400", "0x10", "1_0", "\u0663", "\uff11", "1\u0663",
                         "\u0663.5", "--1", "1.5f", "", "+", "infinit"]),
        st.text(alphabet="0123456789+-.eEinfatyINFATY_x\u0663\uff11", min_size=1, max_size=8),
    )

    @PROPERTY_SETTINGS
    @given(token=TOKENS)
    def test_real_accepts_what_a_one_by_one_embedding_loads(self, token):
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "emb.txt"
            p.write_text(f"1 1\nx {token}\n", encoding="utf-8")
            try:
                loaded = load_embeddings(p, "float64").matrix[0, 0]
            except DataError:
                loaded = None
        try:
            value = io.real(token, "f:1", "value")
        except RecordError:
            value = None
        assert (value is None) == (loaded is None), token
        if value is not None:
            assert np.float64(value).tobytes() == loaded.tobytes()

    def test_real_messages(self):
        with pytest.raises(RecordError, match=r"^f:3: bad score '1_0'$"):
            io.real("1_0", "f:3", "score")
        with pytest.raises(RecordError, match=r"^f:3: non-finite score 'nan'$"):
            io.real("nan", "f:3", "score")

    @pytest.mark.parametrize("token, value", [("0", 0), ("007", 7), ("12", 12)])
    def test_natural_accepts_ascii_digits(self, token, value):
        assert io.natural(token, "f:1", "count") == value

    @pytest.mark.parametrize("token", ["", "+1", "-1", "1_0", "1.0", "\u0663", "\uff11", " 1"])
    def test_natural_rejects_everything_else(self, token):
        with pytest.raises(RecordError, match="f:1: bad count"):
            io.natural(token, "f:1", "count")


class TestGrammarInReaders:
    """`1_0` and non-ASCII digits used to read as numbers in every reader."""

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11"])
    @pytest.mark.parametrize("reader, text, where", [
        ("embeddings", "{t} 1\na 1\n", ":1: bad header"),
        ("pairs", "a\tb\t0.5\nb\tc\t{t}\n", ":2: bad similarity"),
        ("counts", "a\t{t}\n", ":1: bad count"),
        ("lemma pairs", "cat\tdog\t{t}\n", ":1: bad score"),
        ("instances", "s1\t{t}\tcat\tn1\t-\n", ":1: bad token index"),
    ])
    def test_rejected_at_file_line(self, tmp_path, chain3, reader, text, where, token):
        from taxovec.evaluation import load_lemma_pairs
        from taxovec.metrics import load_raw_counts
        from taxovec.wsd import load_instances

        p = tmp_path / "f.txt"
        p.write_text(text.format(t=token), encoding="utf-8")
        read = {"embeddings": load_embeddings, "pairs": read_pairs,
                "counts": lambda q: load_raw_counts(q, chain3),
                "lemma pairs": load_lemma_pairs, "instances": load_instances}[reader]
        with pytest.raises(DataError, match=f"{p}{where}"):
            read(p)


    @pytest.mark.parametrize("reader, text, where", [
        ("embeddings", "+1 1\na 1\n", ":1: bad header '\\+1 1'"),
        ("instances", "s1\t-1\tcat\tn1\t-\n", ":1: bad token index '-1'"),
        ("instances", "s1\t+1\tcat\tn1\t-\n", ":1: bad token index '\\+1'"),
    ])
    def test_counts_are_digits_only(self, tmp_path, reader, text, where):
        from taxovec.wsd import load_instances

        p = tmp_path / "f.txt"
        p.write_text(text)
        with pytest.raises(DataError, match=f"{p}{where}"):
            {"embeddings": load_embeddings, "instances": load_instances}[reader](p)


IDS = st.text(alphabet="abcXYZ019_.-é#", min_size=1, max_size=6).filter(lambda s: s[0] != "#")


class TestRoundTrips:
    @PROPERTY_SETTINGS
    @given(pairs=st.lists(st.tuples(IDS, IDS, st.floats(0.0, 1.0)), max_size=40),
           norm=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)))
    def test_write_then_read_pairs(self, pairs, norm):
        seen, unique = set(), []
        for u, v, s in pairs:  # the program never writes self or repeated pairs
            if u != v and frozenset((u, v)) not in seen:
                seen.add(frozenset((u, v)))
                unique.append(TrainingPair(u, v, s))
        build = DatasetBuild(Pairs.from_rows(unique), DatasetConfig(measure="wup", top_k=7, seed=3), 0, 0, *norm)
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "pairs.tsv"
            write_pairs(p, build)
            pairs, meta = read_pairs(p)
            assert (list(pairs), meta) == (unique, build.header())

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 70), d=st.integers(1, 4),
           dtype=st.sampled_from(["float32", "float64"]))
    def test_save_then_load_embeddings(self, seed, n, d, dtype):
        rng = np.random.default_rng(seed)
        matrix = (rng.standard_normal((n, d)) * 10.0 ** rng.integers(-30, 30, (n, d))).astype(dtype)
        ids = [f"n{i}é" for i in rng.permutation(n)]
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "emb.txt"
            save_embeddings(EmbeddingMatrix(ids, matrix), p)
            m = load_embeddings(p, dtype)
        assert list(m.ids) == ids and m.matrix.tobytes() == matrix.tobytes()


class TestAtomicWrite:
    def test_exception_keeps_old_content_and_leaves_no_temp(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("old\n")
        for exc in (ValueError, KeyboardInterrupt):
            with pytest.raises(exc):
                with io.atomic_write(p) as fh:
                    fh.write("partial")
                    raise exc
            assert p.read_text() == "old\n"
            assert os.listdir(tmp_path) == ["out.txt"]

    def test_success_replaces_content(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("old\n")
        with io.atomic_write(p) as fh:
            fh.write("new\n")
        assert p.read_text() == "new\n" and os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_matches_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            with io.atomic_write(tmp_path / "atomic.txt") as fh:
                fh.write("x")
        finally:
            os.umask(old)
        mode = [stat.S_IMODE(os.stat(tmp_path / f).st_mode) for f in ("plain.txt", "atomic.txt")]
        assert mode[0] == mode[1] == 0o666 & ~umask


class TestInterruptedSave:
    """Ctrl-C inside save_embeddings leaves no partial embedding file."""

    @pytest.fixture()
    def interrupt_last_row(self, monkeypatch):
        calls = itertools.count()

        def interrupting_repr(x):
            if next(calls) == 3 * 4:  # after three of the four rows, d=4 values each
                raise KeyboardInterrupt
            return builtins.repr(x)

        monkeypatch.setattr(trainer, "repr", interrupting_repr, raising=False)

    def _train(self, tmp_path):
        (tmp_path / "g.tsv").write_text("b\ta\nc\ta\nd\tb\n")
        (tmp_path / "p.tsv").write_text("a\tb\t1.0\nb\td\t1.0\nc\td\t0.0\n")
        return main(["train", "--graph", str(tmp_path / "g.tsv"), "--pairs", str(tmp_path / "p.tsv"),
                     "--dim", "4", "--epochs", "1", "--output", str(tmp_path / "emb.txt")])

    def test_no_output_and_no_temp_file(self, tmp_path, interrupt_last_row, capsys):
        assert self._train(tmp_path) == 1
        assert "aborted" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["g.tsv", "p.tsv"]

    def test_existing_output_intact(self, tmp_path, interrupt_last_row):
        (tmp_path / "emb.txt").write_text("1 1\nkeep 0.5\n")
        assert self._train(tmp_path) == 1
        assert (tmp_path / "emb.txt").read_text() == "1 1\nkeep 0.5\n"
        assert sorted(os.listdir(tmp_path)) == ["emb.txt", "g.tsv", "p.tsv"]


def _write_opens(tree: ast.AST):
    """Line numbers of calls that open a file for writing."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("write_text", "write_bytes"):
            yield node.lineno
        elif name in ("open", "fdopen"):
            args = node.args + [k.value for k in node.keywords if k.arg == "mode"]
            modes = [a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            flags = {a.attr for a in ast.walk(node) if isinstance(a, ast.Attribute)}
            if any(set(m) & set("wax+") and set(m) <= set("rwaxbt+") for m in modes) or \
                    flags & {"O_WRONLY", "O_RDWR", "O_CREAT"}:
                yield node.lineno


def test_only_io_opens_files_for_writing():
    src = Path(taxovec.__file__).parent
    found = {f.name: list(_write_opens(ast.parse(f.read_text()))) for f in sorted(src.glob("*.py"))}
    assert found.pop("io.py"), "the guard no longer sees atomic_write's own open"
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_dataset_names_the_pair_row_type():
    # pairs cross module boundaries as columns; every other module, the trainer
    # included, sees index arrays and never builds or reads a TrainingPair
    src = Path(taxovec.__file__).parent
    found = {
        f.name: [
            node.lineno
            for node in ast.walk(ast.parse(f.read_text()))
            if "TrainingPair" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        ]
        for f in sorted(src.glob("*.py"))
    }
    assert found.pop("dataset.py"), "the guard no longer sees dataset's own TrainingPair"
    assert {name: lines for name, lines in found.items() if lines} == {}


PER_PAIR_REFERENCE = {"pair_similarity", "shortest_path_length", "lcs_index", "wup_index", "jcn_index"}


def calls_in_package(names: set[str]) -> dict[str, list[int]]:
    """Line numbers of the calls to any of `names`, per module of the package."""
    src = Path(taxovec.__file__).parent
    return {
        f.name: [
            node.lineno
            for node in ast.walk(ast.parse(f.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in names
        ]
        for f in sorted(src.glob("*.py"))
    }


def test_only_metrics_calls_the_per_pair_reference():
    # bulk scoring goes through SimilarityRows; the scalar path is the tests' reference
    found = calls_in_package(PER_PAIR_REFERENCE)
    assert found.pop("metrics.py"), "the guard no longer sees pair_similarity's own calls"
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_no_module_calls_the_single_source_bfs():
    # every traversal in the package is SimilarityRows.levels'; bfs_distances is a reference
    found = calls_in_package({"bfs_distances"})
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_metrics_and_the_dataset_build_unpack_levels():
    # the levels' words are unpacked by table()'s shp/lch walk and by the
    # shp/lch and fast wup/jcn dataset builds, nothing else
    found = calls_in_package({"unpack"})
    assert found.pop("metrics.py"), "the guard no longer sees table()'s unpack"
    assert found.pop("dataset.py"), "the guard no longer sees the builds' unpacks"
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_metrics_and_the_dataset_build_walk_the_levels():
    # the BFS levels feed table() and the shp/lch and fast wup/jcn dataset builds, nothing else
    found = calls_in_package({"levels"})
    assert found.pop("metrics.py"), "the guard no longer sees table()'s walk"
    assert found.pop("dataset.py"), "the guard no longer sees the builds' walks"
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_metrics_walks_ancestor_sets():
    # the Python ancestor walk seeds small subsumer DPs (_seed) and serves
    # propagate_counts and lcs_index; every other upward pass runs over g.schedule
    found = calls_in_package({"ancestors"})
    assert found.pop("metrics.py"), "the guard no longer sees the _seed walk"
    assert {name: lines for name, lines in found.items() if lines} == {}


MATMUL_SITES = {("trainer.py", "ModelScorer"), ("bench.py", "one_vs_all_dot"), ("evaluation.py", "spearman")}


def test_only_the_model_scorer_computes_model_similarity():
    # every model similarity is ModelScorer's; bench's stored-dtype one-vs-all
    # product and spearman's Pearson are the only other matrix products, `@`
    # or np.vecdot
    src = Path(taxovec.__file__).parent
    found = {
        (f.name, getattr(top, "name", None), node.lineno)
        for f in sorted(src.glob("*.py"))
        for top in ast.parse(f.read_text()).body
        for node in ast.walk(top)
        if isinstance(getattr(node, "op", None), ast.MatMult)
        or isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "vecdot"
    }
    assert any(site[:2] == ("trainer.py", "ModelScorer") for site in found), \
        "the guard no longer sees ModelScorer's own row dots"
    assert sorted(site for site in found if site[:2] not in MATMUL_SITES) == []


def test_only_the_command_scaffold_times_runs_and_writes_manifests():
    # a command body does its work and returns its config; cli._command around
    # it derives the inputs, the manifest path, the seed and the wall time
    found = calls_in_package({"write_manifest"})
    assert found.pop("cli.py"), "the guard no longer sees the scaffold's write_manifest"
    assert {name: lines for name, lines in found.items() if lines} == {}
    cli = ast.parse((Path(taxovec.__file__).parent / "cli.py").read_text())
    sites = {
        (top.name, node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id)
        for top in cli.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None))
        in ("write_manifest", "perf_counter")
    }
    assert sites == {("_command", "write_manifest"), ("_command", "perf_counter")}
    takes_manifest = [
        node.name
        for node in ast.walk(cli)
        if isinstance(node, ast.FunctionDef)
        and {"manifest", "manifest_path"} & {a.arg for a in [*node.args.args, *node.args.kwonlyargs]}
    ]
    assert takes_manifest == ["run"], "only the scaffold's wrapper takes the manifest option"


DEPTHS_SLOTS = {
    ("dataset.py", "build_fast"), ("dataset.py", "build_full"),
    ("metrics.py", "pair_similarity"), ("metrics.py", "_check_depths"),
}


def test_measures_read_depths_from_the_graph():
    # g.depths and g.max_depth are the only depths: build_full, build_fast and
    # pair_similarity keep a checked `depths` slot for old callers, and no other
    # function takes one; only graph.py builds a DepthIndex, and nothing calls
    # compute_depths
    src = Path(taxovec.__file__).parent
    takes_depths = {
        (f.name, node.name)
        for f in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(f.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "depths" in {a.arg for a in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]}
    }
    assert takes_depths == DEPTHS_SLOTS
    found = calls_in_package({"DepthIndex", "compute_depths"})
    assert found.pop("graph.py"), "the guard no longer sees compute_depths' own DepthIndex"
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize(
    "fn", ["SimilarityRows", "MeasureScorer", "static_selection", "evaluate", "one_vs_all_graph", "run_benchmark"]
)
def test_ic_table_is_keyword_only_where_depths_came_before_it(fn):
    # a stale positional DepthIndex is a TypeError instead of an IC table
    ic_table = inspect.signature(getattr(taxovec, fn)).parameters["ic_table"]
    assert ic_table.kind is inspect.Parameter.KEYWORD_ONLY
