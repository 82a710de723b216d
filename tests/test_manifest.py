"""Run-manifest tests: digests and their per-process memo, key layout,
round trips."""

from __future__ import annotations

import hashlib
import os
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

from taxovec import manifest
from taxovec.errors import DataError
from taxovec.io import atomic_write
from taxovec.manifest import (
    artifact_version,
    file_digest,
    read_manifest,
    write_manifest,
)


class TestFileDigest:
    def test_matches_hashlib(self, tmp_path):
        p = tmp_path / "blob.bin"
        p.write_bytes(b"graph data\n" * 1000)
        assert file_digest(p) == hashlib.sha256(p.read_bytes()).hexdigest()

    def test_matches_hashlib_past_one_buffer(self, tmp_path):
        p = tmp_path / "big.bin"  # two full 1 MiB reads and a partial third
        p.write_bytes(np.random.default_rng(0).bytes((5 << 19) + 3))
        assert file_digest(p) == hashlib.sha256(p.read_bytes()).hexdigest()

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty"
        p.write_bytes(b"")
        assert file_digest(p) == hashlib.sha256(b"").hexdigest()


TICK_NS = 20_000_000  # longer than a 100 Hz kernel's timestamp tick


@pytest.fixture()
def memo(monkeypatch):
    """An empty digest memo, with a settle margin of one tick (see `settle`)."""
    monkeypatch.setattr(manifest, "_digests", {})
    monkeypatch.setattr(manifest, "_SETTLE_NS", TICK_NS)
    return manifest._digests


@pytest.fixture()
def hashed(monkeypatch):
    """The files file_digest read, one entry per read: it makes one sha256 per read."""
    reads, sha256 = [], hashlib.sha256
    monkeypatch.setattr(manifest, "hashlib", SimpleNamespace(sha256=lambda: reads.append(1) or sha256()))
    return reads


def settle(path):
    """Wait until the file's mtime and ctime are a tick older than now, so
    file_digest may memoize it and a later change gets another timestamp."""
    st = os.stat(path)
    while time.time_ns() < max(st.st_mtime_ns, st.st_ctime_ns) + TICK_NS:
        time.sleep(TICK_NS / 1e9)


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestDigestMemo:
    def test_a_settled_input_is_read_once_by_three_manifests(self, memo, hashed, tmp_path):
        data = tmp_path / "model.txt"
        data.write_bytes(np.random.default_rng(0).bytes(3 << 19))
        settle(data)
        texts = []
        for k in range(3):
            write_manifest(tmp_path / f"{k}.manifest", "wsd", {}, {"model": data}, None, 0.0)
            texts.append((tmp_path / f"{k}.manifest").read_bytes())
        assert len(hashed) == 1
        assert texts[0] == texts[1] == texts[2]
        assert read_manifest(tmp_path / "0.manifest")["input.model.sha256"] == sha256_of(data)

    @pytest.mark.parametrize("rewrite", ["in place", "in place, mtime kept", "atomic_write"])
    def test_a_same_size_rewrite_is_hashed_again(self, memo, hashed, tmp_path, rewrite):
        p = tmp_path / "graph.tsv"
        p.write_text("b\ta\n")
        settle(p)
        assert file_digest(p) == sha256_of(p) and len(memo) == 1
        before = p.stat()
        if rewrite == "atomic_write":
            with atomic_write(p) as fh:
                fh.write("c\ta\n")
        else:
            with p.open("r+") as fh:
                fh.write("c\ta\n")
            if rewrite == "in place, mtime kept":  # as `touch -r` or a copy keeping times leaves it
                os.utime(p, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = p.stat()
        assert (after.st_ino == before.st_ino) == (rewrite != "atomic_write")  # a new inode, or a new ctime
        assert (after.st_mtime_ns == before.st_mtime_ns) == (rewrite == "in place, mtime kept")
        assert file_digest(p) == sha256_of(p) == hashlib.sha256(b"c\ta\n").hexdigest()
        assert len(hashed) == 2

    @pytest.mark.parametrize("mtime_back_s", [0, 7200])  # 7200: as `cp -p` or `tar x` leave it; the ctime is new
    def test_a_file_younger_than_the_margin_is_never_memoized(self, memo, hashed, monkeypatch, tmp_path,
                                                              mtime_back_s):
        monkeypatch.setattr(manifest, "_SETTLE_NS", 3600 * 10**9)
        p = tmp_path / "graph.tsv"
        p.write_text("b\ta\n")
        st = p.stat()
        os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns - mtime_back_s * 10**9))
        assert file_digest(p) == file_digest(p) == sha256_of(p)
        assert len(hashed) == 2 and not memo

    def test_a_stamp_changed_during_the_read_is_not_memoized(self, memo, hashed, monkeypatch, tmp_path):
        p = tmp_path / "graph.tsv"
        p.write_text("b\ta\n")
        settle(p)
        stats = []

        def fstat(fd):  # the second stat of a call, after the read, sees a newer mtime
            st = os.fstat(fd)
            stats.append(st)
            fields = {name: getattr(st, name) for name in dir(st) if name.startswith("st_")}
            if len(stats) % 2 == 0:
                fields["st_mtime_ns"] += 1
            return SimpleNamespace(**fields)

        monkeypatch.setattr(manifest, "os", SimpleNamespace(fstat=fstat))
        assert file_digest(p) == sha256_of(p)
        assert len(stats) == 2 and not memo
        assert file_digest(p) == sha256_of(p) and len(hashed) == 2

    def test_a_hard_link_hits_the_memo(self, memo, hashed, tmp_path):
        p, link = tmp_path / "graph.tsv", tmp_path / "link.tsv"
        p.write_text("b\ta\n")
        os.link(p, link)  # before settling: a new link changes the ctime
        settle(p)
        assert file_digest(p) == file_digest(link) == sha256_of(link)
        assert len(hashed) == 1

    def test_a_pipe_is_never_memoized(self, memo, hashed, monkeypatch):
        monkeypatch.setattr(manifest, "_SETTLE_NS", -(2**62))  # any stamp would count as settled
        read_end, write_end = os.pipe()
        try:
            with os.fdopen(write_end, "wb") as fh:  # written and closed: the reads cannot block
                fh.write(b"b\ta\n")
            assert file_digest(f"/dev/fd/{read_end}") == hashlib.sha256(b"b\ta\n").hexdigest()
            assert file_digest(f"/dev/fd/{read_end}") == hashlib.sha256(b"").hexdigest()  # drained
        finally:
            os.close(read_end)
        assert len(hashed) == 2 and not memo

    def test_a_pipe_is_read_in_full_buffers(self, monkeypatch):
        # a pipe reports size 0: a buffer sized from it would take one byte per read
        data = np.random.default_rng(0).bytes(5000)
        updates, sha256 = [], hashlib.sha256

        class Spy:
            def __init__(self):
                self.h = sha256()

            def update(self, chunk):
                updates.append(bytes(chunk))
                self.h.update(chunk)

            def hexdigest(self):
                return self.h.hexdigest()

        monkeypatch.setattr(manifest, "hashlib", SimpleNamespace(sha256=Spy))
        read_end, write_end = os.pipe()
        try:
            with os.fdopen(write_end, "wb") as fh:  # within a pipe's buffer, and closed: the reads cannot block
                fh.write(data)
            assert file_digest(f"/dev/fd/{read_end}") == sha256(data).hexdigest()
        finally:
            os.close(read_end)
        assert b"".join(updates) == data and len(updates) <= 2


class TestWriteRead:
    def test_round_trip_and_layout(self, tmp_path):
        data = tmp_path / "input.tsv"
        data.write_text("a\tb\n")
        manifest = tmp_path / "run.manifest"
        write_manifest(
            manifest,
            "train",
            config={"zeta": 1, "alpha": 0.5},
            inputs={"graph": data},
            seed=7,
            wall_time_s=1.23456,
        )
        text = manifest.read_text()
        lines = text.splitlines()
        assert lines[0] == "subcommand=train"
        assert lines[2] == "seed=7"
        assert lines[3] == "wall_time_s=1.235"
        # config keys sorted
        assert text.index("config.alpha=") < text.index("config.zeta=")

        got = read_manifest(manifest)
        assert got["subcommand"] == "train"
        assert got["config.alpha"] == "0.5"
        assert got["config.zeta"] == "1"
        assert got["input.graph.path"] == str(data)
        assert got["input.graph.sha256"] == file_digest(data)

    def test_read_skips_utf8_bom(self, tmp_path):
        manifest = tmp_path / "run.manifest"
        manifest.write_text("\ufeffsubcommand=train\nseed=7\n", encoding="utf-8")
        assert read_manifest(manifest) == {"subcommand": "train", "seed": "7"}

    def test_seed_none_written_as_dash(self, tmp_path):
        manifest = tmp_path / "run.manifest"
        write_manifest(manifest, "neighbors", {}, {}, seed=None, wall_time_s=0.0)
        assert read_manifest(manifest)["seed"] == "-"

    def test_version_line(self, tmp_path):
        manifest = tmp_path / "run.manifest"
        write_manifest(manifest, "bench", {}, {}, seed=0, wall_time_s=0.0)
        got = read_manifest(manifest)
        assert got["version"] == artifact_version()
        assert re.match(r"\d", artifact_version())

    def test_read_rejects_bad_lines(self, tmp_path):
        p = tmp_path / "bad.manifest"
        p.write_text("subcommand=train\nnot a pair\n")
        with pytest.raises(DataError, match=":2"):
            read_manifest(p)

    def test_read_rejects_a_repeated_key(self, tmp_path):
        p = tmp_path / "twice.manifest"
        p.write_text("a=1\n# note\nb=2\na=2\n")
        with pytest.raises(DataError, match=r"twice.manifest:4: key 'a' repeats .*twice.manifest:1$"):
            read_manifest(p)

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "ok.manifest"
        p.write_text("a=1\n\nb=2\n")
        assert read_manifest(p) == {"a": "1", "b": "2"}
