"""tools/ab.py with the working tree's package on both sides: one round of
one build case and one train case, of the rows and query stages, and of
the query stage's manifest case alone, so an API change in src/ that
breaks the harness fails here; a large jcn build in child processes, in
full and fast mode, and the alternation of its rounds; and the harness's
own refusals."""

from __future__ import annotations

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


def test_one_round_of_a_build_and_a_train_case_is_byte_identical(ab, tmp_path, capsys):
    sides = {name: ab.package(ROOT / "src", f"taxovec_ab_{name}") for name in ("base", "change")}
    cases = [next(ab.build_cases([5], tmp_path)), next(ab.train_cases([5], tmp_path))]
    totals = ab.compare(sides, cases, 1, tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "seed 5 full shp: pairs files byte-identical"
    assert out[4] == "train seed 5: saved embeddings byte-identical"
    assert out[7].startswith("train seed 5 change won ") and out[7].endswith(" against base")
    assert len(out) == 8 and all(len(xs) == 1 for xs in totals.values())


def test_large_jcn_build_reads_the_counts_written_beside_the_graph(ab, tmp_path, capsys):
    for mode in ab.MODES:
        ab.large({"base": ROOT / "src", "change": ROOT / "src"}, 60, 5, "jcn", tmp_path, mode)
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
    monkeypatch.setattr(ab, "large", lambda roots, *args: runs.append((list(roots), *args)))
    monkeypatch.setattr(sys, "argv", ["ab.py", "build", "--nodes", "60", "--measure", "wup", "--mode", "fast",
                                      "--pairs", "3"])
    ab.main()
    (names, nodes, seed, measure, _, mode, pairs), = runs
    assert (names, nodes, seed, measure, mode, pairs) == (["HEAD", "working tree"], 60, 5, "wup", "fast", 3)


def test_large_build_rounds_alternate_which_side_goes_first(ab, monkeypatch, tmp_path, capsys):
    ran = []

    class Inline:  # stands in for the child process: records the side and writes its output
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, root, graph, counts, mode, measure, out):
            ran.append(out.name)
            out.write_text("same pairs\n")
            done = Future()
            done.set_result((1.0 + len(ran), 40.0 + len(ran)))  # seconds, peak RSS in MB
            return done

    monkeypatch.setattr(ab, "ProcessPoolExecutor", Inline)
    ab.large({"base": ROOT / "src", "change": ROOT / "src"}, 60, 5, "shp", tmp_path, n_pairs=3)
    assert ran == ["large-0.tsv", "large-1.tsv", "large-1.tsv", "large-0.tsv", "large-0.tsv", "large-1.tsv"]
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [
        "60 nodes, full shp: pairs files byte-identical",
        "60 nodes, full shp base: peak RSS 45 MB",  # the largest of its rounds
        "60 nodes, full shp change: peak RSS 46 MB",
    ]
    assert out[3] == "60 nodes, full shp base: median 5 s, quartiles 3.5-5.5"  # rounds of 2, 5 and 6 s
    assert out[5] == "60 nodes, full shp change won 1/3 pairs, median -20.0% against base"  # 3, 4 and 7 s


def test_one_round_of_the_rows_stage_is_byte_identical(ab, tmp_path, capsys):
    sides = {name: ab.package(ROOT / "src", f"taxovec_ab_rows_{name}") for name in ("base", "change")}
    totals = ab.compare(sides, ab.rows_cases([5], tmp_path, 300), 1, tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "identical" in line] == [
        "seed 5 shp rows: rows byte-identical",
        "seed 5 lch rows: rows byte-identical",
        "seed 5 3x3 grids: grids byte-identical",
        "seed 5 64x64 grids: grids byte-identical",
    ]
    assert out[3].startswith("seed 5 shp rows change won ") and out[3].endswith(" against base")
    assert len(out) == 16 and all(len(xs) == 1 for xs in totals.values())
    assert (tmp_path / "side0.out").stat().st_size == 2 * 64 * 64 * 8  # the last case: two 64x64 float64 grids


@pytest.mark.parametrize("measure", ["shp", "jcn"])  # jcn: with the IC table of the counts written beside
def test_one_round_of_the_query_stage_is_byte_identical(ab, tmp_path, capsys, monkeypatch, measure):
    for key, value in {"nodes": 300, "dim": 8, "sentences": 12}.items():  # the query inputs, made small
        monkeypatch.setitem(ab.gen.PARAMS["query"], key, value)
    sides = {name: ab.package(ROOT / "src", f"taxovec_ab_query_{measure}_{name}") for name in ("base", "change")}
    totals = ab.compare(sides, ab.query_cases([5], tmp_path, measure), 1, tmp_path)
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
    inputs = ab.load_query(tmp_path / "query-5", measure, sides["base"])
    assert len(inputs[3]) == 12 and (inputs[5] is not None) == (measure == "jcn")  # sentences, the IC table


def test_one_round_of_the_manifest_case_is_byte_identical(ab, tmp_path, capsys, monkeypatch):
    # the three manifests of a perfbench query pass, each input's digest as hashlib gives it
    for key, value in {"nodes": 300, "dim": 8, "sentences": 12}.items():
        monkeypatch.setitem(ab.gen.PARAMS["query"], key, value)
    sides = {name: ab.package(ROOT / "src", f"taxovec_ab_manifest_{name}") for name in ("base", "change")}
    cases = [case for case in ab.query_cases([5], tmp_path) if case[0] == "seed 5 manifests"]
    ab.compare(sides, cases, 1, tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "seed 5 manifests: manifests byte-identical" and len(out) == 4
    inputs = tmp_path / "query-5"
    manifests = [sides["base"].manifest.read_manifest(tmp_path / f"side1.out.{name}.manifest")
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
        ab.large({"nowhere": tmp_path / "no-src"}, 60, 5, "shp", tmp_path)
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
