"""Reading and writing the package's text files.

Inputs are UTF-8, with or without a BOM, with LF, CRLF or CR line ends.
A blank line, or one whose first non-blank character is `#`, holds no
record; other lines split on TAB into fields stripped of surrounding
whitespace, and an empty field or a field count the layout does not allow
is a RecordError at file:line. Numbers have one grammar, the one numpy's
parser applies to embedding values: a real has float() syntax in ASCII
without `_` grouping and is finite; a count is ASCII digits. Outputs go
through atomic_write, so a failed run leaves the old file or none.
"""

from __future__ import annotations

import itertools
import math
import os
from contextlib import contextmanager
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import RecordError

Record = tuple[str, list[str]]  # (file:line, fields)

# Lines are read in blocks of about this many characters. A block whose
# lines need no stripping is split in bulk; any other is read line by line.
BLOCK_CHARS = 1 << 12
_SPACES = " \r\x0b\x0c\x1c\x1d\x1e\x1f"  # ASCII whitespace but TAB and LF


def open_text(path: str | Path) -> TextIO:
    """Open an input file under the shared encoding and line-end policy."""
    return open(path, encoding="utf-8-sig")


def _blocks(path: str | Path, layout: str) -> Iterator[tuple[int, Iterable[Record]]]:
    """(paragraph, records) per block of lines; blank lines, not comments,
    separate paragraphs, and a paragraph may span blocks."""
    names = layout.replace("[", "").replace("]", "").split("<TAB>")
    widths = range(layout.split("[")[0].count("<TAB>") + 1, len(names) + 1)
    name = os.fspath(path)
    paragraph = lineno = 0
    with open_text(path) as fh:
        for lines in iter(partial(fh.readlines, BLOCK_CHARS), []):
            start, lineno = lineno + 1, lineno + len(lines)
            skip = next((k for k, line in enumerate(lines) if line[0] != "#"), len(lines))
            text = "".join(lines[skip:])
            rows = list(map(str.split, lines[skip:]))
            # with no whitespace but TAB and LF, str.split() gives the policy's
            # fields unless one is empty, which the token count shows
            if (text.isascii() and "\n#" not in text and not any(map(text.__contains__, _SPACES))
                    and sum(map(len, rows)) == text.count("\t") + len(rows)
                    and set(map(len, rows)) <= set(widths)):
                yield paragraph, zip([f"{name}:{i}" for i in range(start + skip, lineno + 1)], rows)
                continue
            run: list[Record] = []
            for i, line in enumerate(lines, start):
                body = line.strip()
                if not body:
                    yield paragraph, run
                    paragraph, run = paragraph + 1, []
                    continue
                if body[0] == "#":
                    continue
                fields = list(map(str.strip, line.split("\t")))
                if len(fields) not in widths:
                    raise RecordError(
                        f"{name}:{i}: expected {' or '.join(map(str, widths))} "
                        f"tab-separated fields `{layout}`, got {len(fields)}"
                    )
                if "" in fields:
                    raise RecordError(f"{name}:{i}: empty {names[fields.index('')]}")
                run.append((f"{name}:{i}", fields))
            yield paragraph, run


def records(path: str | Path, layout: str) -> Iterator[Record]:
    """(file:line, fields) of each record of a TAB-separated file. `layout`
    names the fields joined by `<TAB>`; trailing fields in brackets are
    optional, as in `child[<TAB>parent]`."""
    return itertools.chain.from_iterable(map(itemgetter(1), _blocks(path, layout)))


def paragraphs(path: str | Path, layout: str) -> Iterator[list[Record]]:
    """The records of `records`, in runs separated by blank lines."""
    for _, blocks in itertools.groupby(_blocks(path, layout), itemgetter(0)):
        run = [record for _, block in blocks for record in block]
        if run:
            yield run


def header(path: str | Path) -> dict[str, str]:
    """The `# key=value` entries of the comment lines before the first record."""
    meta: dict[str, str] = {}
    with open_text(path) as fh:
        for body in map(str.strip, fh):
            if body[:1] not in ("", "#"):
                break
            key, eq, value = body.lstrip("#").partition("=")
            if eq:
                meta[key.strip()] = value.strip()
    return meta


def real(token: str, where: str, what: str) -> float:
    """A finite real in the shared grammar; `what` names it in errors."""
    try:
        value = float(token) if token.isascii() and "_" not in token else None
    except ValueError:
        value = None
    if value is None:
        raise RecordError(f"{where}: bad {what} {token!r}")
    if not math.isfinite(value):
        raise RecordError(f"{where}: non-finite {what} {token!r}")
    return value


def natural(token: str, where: str, what: str) -> int:
    """A count in the shared grammar: one or more ASCII digits."""
    if token.isascii() and token.isdigit():
        return int(token)
    raise RecordError(f"{where}: bad {what} {token!r}")


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle whose content replaces `path` when the block ends.

    It writes a temporary file beside `path`, created with the mode that
    open(path, "w") gives a new file, and renames it over `path` when the
    block exits normally. On any exception, an interrupt included, the
    temporary file is deleted and `path` is left as it was.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
