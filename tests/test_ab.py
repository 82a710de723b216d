"""tools/ab.py with the working tree's package on both sides: one round of
one build case and one train case, so an API change in src/ that breaks
the harness fails here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_round_of_a_build_and_a_train_case_is_byte_identical(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    sides = {name: ab.package(ROOT / "src", f"taxovec_ab_{name}") for name in ("base", "change")}
    cases = [next(ab.build_cases([5], tmp_path)), next(ab.train_cases([5], tmp_path))]
    totals = ab.compare(sides, cases, 1, tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "seed 5 full shp: pairs files byte-identical"
    assert out[4] == "train seed 5: saved embeddings byte-identical"
    assert out[7].startswith("train seed 5 change won ") and out[7].endswith(" against base")
    assert len(out) == 8 and all(len(xs) == 1 for xs in totals.values())
