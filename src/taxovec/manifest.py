"""Run manifests.

Every CLI run writes a line-oriented key=value record of its resolved
configuration, input file digests, seed, artifact version, and wall time.
Deterministic subcommands are pure functions of their manifest: feeding
the same inputs and seed back reproduces the outputs byte for byte.
"""

from __future__ import annotations

import hashlib
import os
from importlib import metadata
from pathlib import Path
from typing import Mapping

from .errors import RecordError
from .io import atomic_write, records


def artifact_version() -> str:
    try:
        return metadata.version("taxovec")
    except metadata.PackageNotFoundError:
        return "0+unknown"


def file_digest(path: str | Path) -> str:
    """sha256 of the file, read into one reused buffer of 1 MiB, or of the
    file's size plus one when smaller, so a small file touches no more."""
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        buf = memoryview(bytearray(min(1 << 20, os.fstat(fh.fileno()).st_size + 1)))
        while size := fh.readinto(buf):
            h.update(buf[:size])
    return h.hexdigest()


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
    """The key=value lines of a manifest (see taxovec.io)."""
    out: dict[str, str] = {}
    for where, (line,) in records(path, "key=value"):
        key, eq, value = line.partition("=")
        if not eq:
            raise RecordError(f"{where}: expected key=value")
        out[key] = value
    return out
