"""tools/ab.py with the working tree's package on both sides: one round of
one build case and one train case, of the rows and query stages, and of
the query stage's manifest case alone, so an API change in src/ that
breaks the harness fails here; a large jcn build in child processes, in
full and fast mode, its graph made in a child; the alternation of rounds
and the printed lines of the one runner, in process and isolated; the
load stage's child processes, digest and cases; and the harness's own
refusals."""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def ab(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # so a spawned child imports the same module
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "ab", module)
    spec.loader.exec_module(module)
    return module


SIDES = {"base": ROOT / "src", "change": ROOT / "src"}


def test_one_round_of_a_build_and_a_train_case_is_byte_identical(ab, tmp_path, capsys):
    cases = [next(ab.build_cases([5], tmp_path)), next(ab.train_cases([5], tmp_path))]
    totals = ab.compare(SIDES, cases, 1, tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "seed 5 full shp: pairs files byte-identical"
    assert out[4] == "train seed 5: saved embeddings byte-identical"
    assert out[7].startswith("train seed 5 change won ") and out[7].endswith(" against base")
    assert len(out) == 8 and all(len(xs) == 1 for xs in totals.values())


def test_large_jcn_build_reads_the_counts_written_beside_the_graph(ab, tmp_path, capsys):
    for mode in ab.MODES:
        ab.compare(SIDES, ab.large_cases(tmp_path, 60, 5, "jcn", mode), 1, tmp_path, isolated=True)
        out = capsys.readouterr().out.splitlines()
        label = f"60 nodes, {mode} jcn"
        assert [line.split(":")[0] for line in out] == [
            label, *(f"{label} {name}" for name in ("base", "change", "base", "change")), out[5].split(":")[0]]
        assert out[0] == f"{label}: pairs files byte-identical"
        assert out[1].startswith(f"{label} base: peak RSS ") and out[1].endswith(" MB")
        assert out[3].startswith(f"{label} base: median ") and " s, quartiles " in out[3]
        assert out[5].startswith(f"{label} change won ") and out[5].endswith(" against base")
    assert (tmp_path / "dag-60-5-counts.tsv").exists()


def test_a_large_build_takes_its_mode_from_the_command_line(ab, monkeypatch):
    runs = []
    monkeypatch.setattr(ab, "large_cases", lambda work, *args: args)
    monkeypatch.setattr(ab, "compare", lambda roots, cases, n_pairs, work, isolated: runs.append(
        (list(roots), cases, n_pairs, isolated)))
    monkeypatch.setattr(ab, "extract", lambda rev, into: into)  # routes arguments only: no git checkout needed
    monkeypatch.setattr(sys, "argv", ["ab.py", "build", "--nodes", "60", "--measure", "wup", "--mode", "fast",
                                      "--pairs", "3"])
    ab.main()
    assert runs == [(["HEAD", "working tree"], (60, 5, "wup", "fast"), 3, True)]


@pytest.mark.parametrize("isolated, first, printed", [
    pytest.param(False, ["side0.out", "side1.out"], [  # an untimed run of 2 and 3 s, then rounds of 4 to 9 s
        "case base: median 7 s, quartiles 5.5-7.5",
        "case change: median 6 s, quartiles 5.5-7.5",
        "case change won 1/3 pairs, median -14.3% against base",
    ], id="in-process"),
    pytest.param(True, [], [  # rounds of 2 to 7 s, each side's peak RSS the largest of its rounds
        "case base: peak RSS 45 MB",
        "case change: peak RSS 46 MB",
        "case base: median 5 s, quartiles 3.5-5.5",
        "case change: median 4 s, quartiles 3.5-5.5",
        "case change won 1/3 pairs, median -20.0% against base",
    ], id="isolated"),
])
def test_rounds_alternate_which_side_goes_first(ab, monkeypatch, tmp_path, capsys, isolated, first, printed):
    ran = []

    def run(pkg, inputs, out):  # records the side and writes its output; each run takes a second longer
        ran.append(out.name)
        out.write_text(inputs)
        return 1.0 + len(ran)

    class Inline:  # stands in for the child process: runs the child here, its peak RSS made up
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            secs, _ = fn(*args)
            done.set_result((secs, 40.0 + len(ran)))  # seconds, peak RSS in MB
            return done

    monkeypatch.setattr(ab, "ProcessPoolExecutor", Inline)
    case = ("case", functools.partial(ab.as_is, "same output\n"), run, "outputs", 1.0, "s")
    totals = ab.compare(SIDES, [case], 3, tmp_path, isolated)
    assert ran == [*first, "side0.out", "side1.out", "side1.out", "side0.out", "side0.out", "side1.out"]
    assert capsys.readouterr().out.splitlines() == ["case: outputs byte-identical", *printed]
    timed = [1.0 + k for k in range(len(first) + 1, len(ran) + 1)]
    assert totals == {"base": [timed[0], timed[3], timed[4]], "change": [timed[1], timed[2], timed[5]]}


def test_a_large_build_makes_its_graph_in_a_child(ab, monkeypatch, tmp_path, capsys):
    # a spawned child imports perfbench's gen afresh, so only a make_dag call in this process meets the stand-in
    monkeypatch.setattr(ab.gen, "make_dag", lambda *args: pytest.fail("make_dag ran in the parent"))
    ab.compare(SIDES, ab.large_cases(tmp_path, 60, 5, "shp"), 1, tmp_path, isolated=True)
    assert capsys.readouterr().out.startswith("60 nodes, full shp: pairs files byte-identical\n")
    assert (tmp_path / "dag-60-5.tsv").exists() and (tmp_path / "dag-60-5-counts.tsv").exists()


@pytest.mark.parametrize("shape", [None, "chain"])
def test_one_round_of_the_load_stage_times_both_sides_in_children(ab, monkeypatch, tmp_path, capsys, shape):
    monkeypatch.setattr(ab, "extract", lambda rev, into: ROOT / "src")  # the working tree on both sides
    monkeypatch.setattr(sys, "argv", ["ab.py", "load", "--nodes", "60", "--pairs", "1", "--work", str(tmp_path),
                                      *(["--shape", shape] if shape else [])])
    ab.main()
    out = capsys.readouterr().out.splitlines()
    label = f"60-node {shape or 'dag'} load"
    assert out[0] == f"{label}: graphs byte-identical"
    assert out[1].startswith(f"{label} HEAD: peak RSS ") and out[2].startswith(f"{label} working tree: peak RSS ")
    assert out[3].startswith(f"{label} HEAD: median ") and " s, quartiles " in out[3]
    assert out[5].startswith(f"{label} working tree won ") and len(out) == 6
    g = ab.package(ROOT / "src", "taxovec_ab_load").graph.load_edge_list(tmp_path / "chain-60.tsv") if shape else None
    assert shape is None or (g.n, g.max_depth, g.roots()) == (60, 60, [0])


def test_the_load_digest_holds_the_graph_and_the_cases_cover_perfbench(ab, monkeypatch, tmp_path):
    for workload, key in [("build", "full_nodes"), ("build", "fast_nodes"), ("train", "nodes"), ("query", "nodes")]:
        monkeypatch.setitem(ab.gen.PARAMS[workload], key, 40)
    monkeypatch.setitem(ab.gen.PARAMS["query"], "dim", 4)
    monkeypatch.setattr(ab, "in_child", lambda fn, *args: fn(*args))  # so the small PARAMS hold
    cases = list(ab.load_cases([5], tmp_path, None, None))
    assert [case[0] for case in cases] == [f"seed 5 {name} load" for name in (
        "build full_graph.tsv", "build fast_graph.tsv", "train graph.tsv", "query graph.tsv")]
    pkg = ab.package(ROOT / "src", "taxovec_ab_digest")
    digests = []
    for _, load, run, *_ in cases[:2] + [cases[0]]:
        run(pkg, load(pkg), tmp_path / "digest")
        digests.append((tmp_path / "digest").read_text())
    assert digests[0] == ab.graph_digest(pkg.graph.load_edge_list(load(pkg)))
    assert digests[0] == digests[2] != digests[1]  # both build graphs have 40 nodes, in other shapes


def test_a_load_shape_without_nodes_is_a_usage_error(ab, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ab.py", "load", "--shape", "chain"])
    monkeypatch.setattr(ab, "extract", lambda *a: pytest.fail("extracted a revision"))
    with pytest.raises(SystemExit) as exit_:
        ab.main()
    assert exit_.value.code == 2 and "argument --shape: needs --nodes" in capsys.readouterr().err


def test_one_round_of_the_rows_stage_is_byte_identical(ab, tmp_path, capsys):
    totals = ab.compare(SIDES, ab.rows_cases([5], tmp_path, 300), 1, tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "identical" in line] == [
        "seed 5 shp rows: rows byte-identical",
        "seed 5 lch rows: rows byte-identical",
        "seed 5 3x3 grids: grids byte-identical",
        "seed 5 64x64 grids: grids byte-identical",
        "seed 5 64 pairs: pairs byte-identical",
    ]
    assert out[3].startswith("seed 5 shp rows change won ") and out[3].endswith(" against base")
    assert len(out) == 20 and all(len(xs) == 1 for xs in totals.values())
    assert (tmp_path / "side0.out").stat().st_size == 2 * 64 * 8  # the last case: shp and lch scores of 64 pairs


@pytest.mark.parametrize("measure", ["shp", "jcn"])  # jcn: with the IC table of the counts written beside
def test_one_round_of_the_query_stage_is_byte_identical(ab, tmp_path, capsys, monkeypatch, measure):
    for key, value in {"nodes": 300, "dim": 8, "sentences": 12}.items():  # the query inputs, made small
        monkeypatch.setitem(ab.gen.PARAMS["query"], key, value)
    totals = ab.compare(SIDES, ab.query_cases([5], tmp_path, measure), 1, tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "identical" in line] == [
        "seed 5 model wsd: predictions byte-identical",
        f"seed 5 {measure} wsd: predictions byte-identical",
        "seed 5 static eval-sim: reports byte-identical",
        "seed 5 dynamic eval-sim: reports byte-identical",
        "seed 5 manifests: manifests byte-identical",
    ]
    assert out[3].startswith("seed 5 model wsd change won ") and out[3].endswith(" against base")
    assert len(out) == 20 and all(len(xs) == 1 for xs in totals.values())
    assert (tmp_path / "side0.out.eval-dynamic.manifest").read_text().startswith("subcommand=eval-sim\n")
    inputs = ab.load_query(tmp_path / "query-5", measure, ab.package(ROOT / "src", f"taxovec_ab_query_{measure}"))
    assert len(inputs[3]) == 12 and (inputs[5] is not None) == (measure == "jcn")  # sentences, the IC table


def test_one_round_of_the_manifest_case_is_byte_identical(ab, tmp_path, capsys, monkeypatch):
    # the three manifests of a perfbench query pass, each input's digest as hashlib gives it
    for key, value in {"nodes": 300, "dim": 8, "sentences": 12}.items():
        monkeypatch.setitem(ab.gen.PARAMS["query"], key, value)
    cases = [case for case in ab.query_cases([5], tmp_path) if case[0] == "seed 5 manifests"]
    ab.compare(SIDES, cases, 1, tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "seed 5 manifests: manifests byte-identical" and len(out) == 4
    inputs = tmp_path / "query-5"
    read_manifest = ab.package(ROOT / "src", "taxovec_ab_manifest").manifest.read_manifest
    manifests = [read_manifest(tmp_path / f"side1.out.{name}.manifest")
                 for name in ("eval-static", "eval-dynamic", "wsd")]
    assert [m["subcommand"] for m in manifests] == ["eval-sim", "eval-sim", "wsd"]
    assert {m["wall_time_s"] for m in manifests} == {"0.000"}
    assert [m["seed"] for m in manifests] == ["-", "-", "5"]
    for m in manifests:
        names = {key.split(".")[1] for key in m if key.startswith("input.")}
        assert names >= {"graph", "model"}
        for name in names:
            path = Path(m[f"input.{name}.path"])
            assert path.parent == inputs
            assert m[f"input.{name}.sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    joined = b"".join((tmp_path / f"side0.out.{name}.manifest").read_bytes()
                      for name in ("eval-static", "eval-dynamic", "wsd"))
    assert (tmp_path / "side0.out").read_bytes() == joined


def test_a_failed_child_is_one_line_naming_its_error(ab, tmp_path):
    with pytest.raises(SystemExit) as exit_:
        ab.compare({"nowhere": tmp_path / "no-src"}, ab.large_cases(tmp_path, 60, 5, "shp"), 1, tmp_path, True)
    message = str(exit_.value.code)
    assert message.startswith("60 nodes, full shp, nowhere: failed: FileNotFoundError: ")
    assert "\n" not in message


@pytest.mark.parametrize("args", [
    pytest.param(["build", "--pairs", "0"], id="0"),
    pytest.param(["build", "--pairs", "-3"], id="-3"),
    pytest.param(["build", "--nodes", "0"], id="build-nodes-0"),
    pytest.param(["rows", "--nodes", "-5"], id="rows-nodes--5"),
    pytest.param(["train", "--star", "--leaves", "0"], id="leaves-0"),
    pytest.param(["train", "--star", "--batch-sizes", "100", "0"], id="batch-sizes-0"),
])
def test_fewer_than_one_round_is_a_usage_error(ab, monkeypatch, capsys, args):
    # also any other count below 1, refused before a revision is extracted
    monkeypatch.setattr(sys, "argv", ["ab.py", *args])
    monkeypatch.setattr(ab, "extract", lambda *a: pytest.fail("extracted a revision"))
    with pytest.raises(SystemExit) as exit_:
        ab.main()
    assert exit_.value.code == 2
    option = next(arg for arg in reversed(args) if arg.startswith("--"))
    assert f"argument {option}: {args[-1]} is below 1" in capsys.readouterr().err
