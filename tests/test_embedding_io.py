"""Embedding text loader against the per-token float() reader in oracles.

Files are drawn by hypothesis: row counts on both sides of the
CHUNK_ROWS boundary, tabs and runs of spaces, leading and trailing
whitespace, LF, CRLF and CR line ends, an optional BOM and trailing
blank lines, and values with signs, exponents, signed zeros and
subnormals. Valid files must load to the oracle's ids and bytes in
float32 and float64; malformed ones must raise the oracle's message.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxovec.errors import DataError
from taxovec.evaluation import ModelScorer
from taxovec.trainer import CHUNK_ROWS, EmbeddingMatrix, load_embeddings, score

from oracles import load_embeddings_oracle

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, database=None)
# a file holds up to 2,000 drawn tokens, so hypothesis draws a seed for
# random.Random rather than each token
SEEDS = st.integers(0, 2**32 - 1)

SIZES = sorted({0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1,
               255, 256, 257, 513})
SPECIAL = ["0", "-0.0", "+0", "0e0", "-0E-5", "5e-324", "-4.9e-324", "1e-310",
           "2.2250738585072014e-308", "1.4e-45", "-1e-46", "3.4028235e38",
           ".5", "-5.", "+.25E+2", "1E5", "007.50"]
SEPS = [" ", "\t", "  ", " \t ", "\t\t"]
EOLS = ["\n", "\r\n", "\r"]


def _token(rng) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(SPECIAL)
    x = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-40, 38)
    if kind == 1:
        return repr(x)
    if kind == 2:
        return f"{x:.{rng.randint(1, 12)}e}"
    if kind == 3:
        return f"{x:+.17G}"
    return repr(rng.randint(-(2**52), 2**52) * 5e-324)  # a float64 subnormal or zero


class EmbeddingText:
    """A drawn file as editable rows of tokens, rendered on demand."""

    def __init__(self, rng, n: int, d: int):
        self.rng, self.n, self.d = rng, n, d
        self.rows = [[rng.choice(["n", "#n", '"n', "é"]) + str(k)]
                     + [_token(rng) for _ in range(d)] for k in range(n)]
        self.bom = rng.random() < 0.3
        self.tail = rng.choice(["", "\n", "\n  \t\n", "\r\n\r\n"])
        self.final_eol = rng.random() < 0.8

    def render(self) -> str:
        rng = self.rng
        lines = [f"{self.n}{rng.choice(SEPS)}{self.d}"]
        for row in self.rows:
            lead = rng.choice(["", "", " ", "\t"])
            trail = rng.choice(["", "", " ", "\t ", "  "])
            lines.append(lead + "".join(t + rng.choice(SEPS) for t in row[:-1]) + row[-1] + trail)
        text = "".join(line + rng.choice(EOLS) for line in lines[:-1]) + lines[-1]
        if self.final_eol:
            text += rng.choice(EOLS)
            text += self.tail
        return ("\ufeff" if self.bom else "") + text


def _write(text: str) -> Path:
    fh = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False,
                                     encoding="utf-8", newline="")
    with fh:
        fh.write(text)
    return Path(fh.name)


def _outcome(fn, path: Path, dtype: str):
    try:
        return fn(path, dtype)
    except (DataError, ValueError) as exc:
        return str(exc)


def _load(path: Path, dtype: str):
    m = load_embeddings(path, dtype)
    return list(m.ids), m.matrix


@PROPERTY_SETTINGS
@given(seed=SEEDS, n=st.sampled_from(SIZES), d=st.integers(0, 4),
       dtype=st.sampled_from(["float32", "float64"]))
def test_valid_files_match_oracle_bytes(seed, n, d, dtype):
    path = _write(EmbeddingText(random.Random(seed), n, d).render())
    try:
        want_ids, want = load_embeddings_oracle(path, dtype)
        got = load_embeddings(path, dtype)
    finally:
        path.unlink()
    assert list(got.ids) == want_ids
    assert got.matrix.dtype == want.dtype and got.matrix.shape == want.shape == (n, d)
    assert got.matrix.tobytes() == want.tobytes()


MUTATIONS = ["short", "long", "bad_token", "missing_last", "blank_row"]
BAD_TOKENS = ["oops", "1.2.3", "--1", "1e", "e5", "0x10", "1,5", "#", '"1"', "nan(1)"]


@PROPERTY_SETTINGS
@given(seed=SEEDS, n=st.sampled_from(SIZES[1:]), d=st.integers(1, 4),
       dtype=st.sampled_from(["float32", "float64"]),
       mutation=st.sampled_from(MUTATIONS), data=st.data())
def test_malformed_files_raise_the_oracle_message(seed, n, d, dtype, mutation, data):
    rng = random.Random(seed)
    text = EmbeddingText(rng, n, d)
    k = data.draw(st.integers(0, n - 1), label="row")
    if mutation == "short":
        del text.rows[k][-1]
    elif mutation == "long":
        text.rows[k].append(_token(rng))
    elif mutation == "bad_token":
        text.rows[k][data.draw(st.integers(1, d), label="column")] = rng.choice(BAD_TOKENS)
    elif mutation == "missing_last":
        del text.rows[-1]
    else:
        text.rows[k] = [""]
    path = _write(text.render())
    try:
        want = _outcome(load_embeddings_oracle, path, dtype)
        got = _outcome(_load, path, dtype)
    finally:
        path.unlink()
    assert isinstance(want, str), "the mutation should make the file invalid"
    assert got == want


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_bad_token_in_the_middle_of_a_later_chunk(tmp_path, dtype):
    n, d, bad = 2 * CHUNK_ROWS + 1, 3, CHUNK_ROWS + CHUNK_ROWS // 2
    rows = [f"n{k} {k}.5 -{k}e-3 1e-310\n" for k in range(n)]
    rows[bad] = f"n{bad} 1.0 zero 2.0\n"
    path = tmp_path / "emb.txt"
    path.write_text(f"{n} {d}\n" + "".join(rows))
    with pytest.raises(ValueError) as want:
        load_embeddings_oracle(path, dtype)
    with pytest.raises(DataError) as got:
        load_embeddings(path, dtype)
    assert str(got.value) == str(want.value) == f"{path}:{bad + 2}: non-numeric vector entry"


class TestHeaderAndTrailer:
    @pytest.mark.parametrize("header", ["1 -2", "-1 2", "-1 -1", "0 -3"])
    def test_negative_header_is_a_data_error(self, tmp_path, header):
        path = tmp_path / "emb.txt"
        path.write_text(f"{header}\na 1 2\n")
        with pytest.raises(DataError, match=f":1: bad header '{header}'"):
            load_embeddings(path)

    @pytest.mark.parametrize("header", ["99999999999999999999 3", "3 99999999999999999999", "4611686018427387904 4"])
    def test_header_beyond_numpys_index_range_is_a_data_error(self, tmp_path, header):
        path = tmp_path / "emb.txt"
        path.write_text(f"{header}\na 1 2\n")
        n, d = header.split()
        with pytest.raises(DataError, match=f":1: header `{header}` declares a {n} x {d} matrix that cannot be created"):
            load_embeddings(path)

    def test_header_whose_matrix_fails_to_allocate_is_a_data_error(self, tmp_path, monkeypatch):
        empty = np.empty

        def refuse_the_header(shape, dtype=float):  # stands in for the allocation, which is never made
            if shape == (99999999999999, 3):
                raise MemoryError("Unable to allocate 1.07 PiB")
            return empty(shape, dtype=dtype)

        monkeypatch.setattr(np, "empty", refuse_the_header)
        path = tmp_path / "emb.txt"
        path.write_text("99999999999999 3\na 1 2 3\n")
        with pytest.raises(DataError, match=":1: header `99999999999999 3` declares a 99999999999999 x 3 matrix"):
            load_embeddings(path)

    def test_rows_beyond_n_are_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\na 1 2\nb 3 4\n")
        with pytest.raises(DataError, match=":3: row beyond the 1 declared"):
            load_embeddings(path)
        path.write_text("0 2\n\n a 1 2\n")
        with pytest.raises(DataError, match=":3: row beyond the 0 declared"):
            load_embeddings(path)

    def test_trailing_blank_lines_are_accepted(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\na 1 2\n\n  \t\n\n")
        m = load_embeddings(path, "float64")
        assert m.ids == ("a",) and m.matrix.tolist() == [[1.0, 2.0]]


class TestNarrowing:
    """Tokens Python float() reads but numpy's C parser does not.

    float() accepts `_` digit grouping and non-ASCII Unicode digits; the
    loader now reports both as non-numeric.
    """

    @pytest.mark.parametrize("token, old", [("1_0", 10.0), ("１", 1.0), ("٣.5", 3.5)])
    def test_now_non_numeric(self, tmp_path, token, old):
        path = tmp_path / "emb.txt"
        path.write_text(f"2 2\na 1 2\nb {token} 2\n", encoding="utf-8")
        assert load_embeddings_oracle(path, "float64")[1][1, 0] == old
        with pytest.raises(DataError, match=":3: non-numeric vector entry"):
            load_embeddings(path, "float64")

    def test_unicode_whitespace_still_separates(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\na 1\x0b2　3\n", encoding="utf-8")
        m = load_embeddings(path, "float64")
        assert m.ids == ("a",) and m.matrix.tolist() == [[1.0, 2.0, 3.0]]


class TestSelfCosine:
    def test_live_self_pairs_are_exactly_one(self):
        rng = np.random.default_rng(7)
        ids = [f"n{i}" for i in range(500)]
        for dtype in (np.float32, np.float64):
            matrix = rng.normal(size=(500, 300)).astype(dtype)
            matrix[3] = 0.0
            m = EmbeddingMatrix(ids, matrix)
            live = [u for u in ids if u != "n3"]
            assert all(score(m, u, u, "cosine") == 1.0 for u in live)
            assert score(m, "n3", "n3", "cosine") == 0.0
            grid = ModelScorer(m, "cosine").grids([(ids[:50], ids[:50])])[0]
            assert np.array_equal(np.diag(grid), [0.0 if u == "n3" else 1.0 for u in ids[:50]])

    def test_other_cells_keep_their_bits(self):
        rng = np.random.default_rng(8)
        ids = [f"n{i}" for i in range(12)]
        matrix = rng.normal(size=(12, 9))
        matrix[5] = matrix[4]  # identical rows of two nodes are not a self pair
        m = EmbeddingMatrix(ids, matrix)
        us, vs = ids[:8], ids[4:] + ["n0"]
        grid = ModelScorer(m, "cosine").grids([(us, vs)])[0]
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                assert grid[i, j] == score(m, u, v, "cosine")
