"""Run-manifest tests: digests, key layout, round trips."""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from taxovec.errors import DataError
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

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "ok.manifest"
        p.write_text("a=1\n\nb=2\n")
        assert read_manifest(p) == {"a": "1", "b": "2"}
