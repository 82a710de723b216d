"""Run manifests.

Every CLI run writes a line-oriented key=value record of its resolved
configuration, input file digests, seed, artifact version, and wall time.
Deterministic subcommands are pure functions of their manifest: feeding
the same inputs and seed back reproduces the outputs byte for byte.

An input that has not changed is hashed once per process: `file_digest`
keeps each regular file's digest under its device and inode, valid while
the file's size, mtime and ctime stay as they were, so a process that
writes several manifests (a sweep, a notebook, a benchmark pass) reads
each unchanged input once.
"""

from __future__ import annotations

import hashlib
import os
import stat
import time
from importlib import metadata
from operator import attrgetter
from pathlib import Path
from typing import Mapping

from .errors import RecordError
from .io import atomic_write, records


def artifact_version() -> str:
    try:
        return metadata.version("taxovec")
    except metadata.PackageNotFoundError:
        return "0+unknown"


# A file changed within this many ns of hashing is not memoized: its
# timestamps come from a coarse clock, so a same-size rewrite in the same
# tick could leave its stamp as it was (git's "racily clean" rule).
_SETTLE_NS = 2_000_000_000
_stamp = attrgetter("st_size", "st_mtime_ns", "st_ctime_ns")
# (st_dev, st_ino) -> (_stamp of the file, its sha256 hex digest)
_digests: dict[tuple[int, int], tuple[tuple[int, int, int], str]] = {}


def file_digest(path: str | Path) -> str:
    """sha256 of the file, read into one reused buffer of 1 MiB, or of a
    regular file's size plus one when smaller, so a small file touches no
    more. A pipe or device reports size 0, so it takes the full buffer.

    The digest of a regular file is kept for the rest of the process and
    returned again, unread, while the open file's device, inode, size,
    mtime and ctime match the kept ones. It is kept only if the file's
    stamp was the same before and after the read and its mtime and ctime
    were both at least `_SETTLE_NS` older than the start of the call. An
    in-place rewrite changes the ctime and a replacement (`atomic_write`)
    the inode, so either is hashed again."""
    start = time.time_ns()
    with Path(path).open("rb") as fh:
        st = os.fstat(fh.fileno())
        key, stamp = (st.st_dev, st.st_ino), _stamp(st)
        kept = _digests.get(key)
        if kept and kept[0] == stamp:
            return kept[1]
        h = hashlib.sha256()
        regular = stat.S_ISREG(st.st_mode)
        buf = memoryview(bytearray(min(1 << 20, st.st_size + 1) if regular else 1 << 20))
        while size := fh.readinto(buf):
            h.update(buf[:size])
        unchanged = _stamp(os.fstat(fh.fileno())) == stamp
    digest = h.hexdigest()
    if regular and unchanged and max(st.st_mtime_ns, st.st_ctime_ns) <= start - _SETTLE_NS:
        _digests[key] = stamp, digest
    return digest


def write_manifest(
    path: str | Path,
    subcommand: str,
    config: Mapping[str, object],
    inputs: Mapping[str, str | Path],
    seed: int | None,
    wall_time_s: float,
) -> None:
    """Write the manifest; config and input keys are emitted sorted."""
    lines = [
        f"subcommand={subcommand}",
        f"version={artifact_version()}",
        f"seed={'-' if seed is None else seed}",
        f"wall_time_s={wall_time_s:.3f}",
    ]
    for name in sorted(inputs):
        p = Path(inputs[name])
        lines.append(f"input.{name}.path={p}")
        lines.append(f"input.{name}.sha256={file_digest(p)}")
    for key in sorted(config):
        lines.append(f"config.{key}={config[key]}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path: str | Path) -> dict[str, str]:
    """The key=value lines of a manifest (see taxovec.io); a key on a
    second line is a RecordError naming the first."""
    out: dict[str, str] = {}
    first: dict[str, str] = {}
    for where, (line,) in records(path, "key=value"):
        key, eq, value = line.partition("=")
        if not eq:
            raise RecordError(f"{where}: expected key=value")
        if first.setdefault(key, where) != where:
            raise RecordError(f"{where}: key {key!r} repeats {first[key]}")
        out[key] = value
    return out
