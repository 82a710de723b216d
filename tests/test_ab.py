"""tools/ab.py with the working tree's package on both sides: one round of
one build case and one train case, so an API change in src/ that breaks
the harness fails here; a large jcn build in child processes, in full
and fast mode; and the harness's own refusals."""

from __future__ import annotations

import importlib.util
import sys
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
        assert [line.split(":")[0] for line in out] == [f"{label}, base", f"{label}, change", label]
        assert out[2] == f"{label}: pairs files byte-identical"
    assert (tmp_path / "dag-60-5-counts.tsv").exists()


def test_a_large_build_takes_its_mode_from_the_command_line(ab, monkeypatch):
    runs = []
    monkeypatch.setattr(ab, "large", lambda roots, *args: runs.append((list(roots), *args)))
    monkeypatch.setattr(sys, "argv", ["ab.py", "build", "--nodes", "60", "--measure", "wup", "--mode", "fast"])
    ab.main()
    (names, nodes, seed, measure, _, mode), = runs
    assert (names, nodes, seed, measure, mode) == (["HEAD", "working tree"], 60, 5, "wup", "fast")


def test_a_failed_child_is_one_line_naming_its_error(ab, tmp_path):
    with pytest.raises(SystemExit) as exit_:
        ab.large({"nowhere": tmp_path / "no-src"}, 60, 5, "shp", tmp_path)
    message = str(exit_.value.code)
    assert message.startswith("60 nodes, full shp, nowhere: failed: FileNotFoundError: ")
    assert "\n" not in message


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_fewer_than_one_round_is_a_usage_error(ab, monkeypatch, capsys, pairs):
    monkeypatch.setattr(sys, "argv", ["ab.py", "build", "--pairs", pairs])
    with pytest.raises(SystemExit) as exit_:
        ab.main()
    assert exit_.value.code == 2
    assert f"argument --pairs: {pairs} is below 1" in capsys.readouterr().err
