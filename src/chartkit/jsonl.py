"""The on-disk JSONL format of every corpus stream.

A row is one JSON object on one UTF-8 line, keys sorted, non-ASCII kept
as is, ended by ``\\n``. Files are replaced atomically by ``AtomicFile``
(a temp file, then ``os.replace``), which takes its text as it is made,
so a writer holds one row, not the file. The manifest and the distill
checkpoint are a ``Journal``: one row appended per completion, loaded
last-wins on resume, and rewritten sorted at the end of a run.
``read_json_object`` reads the files that hold one JSON object: the chart
sidecars and the config files (pipeline config, selector profile, backend
config).
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Iterable

from .errors import InvalidConfig, MalformedJsonl


def encode_row(row: dict) -> str:
    """One JSONL line: the canonical encoding of ``row``, ended by ``\\n``."""
    return json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n"


def _scan(path) -> tuple[list[dict], int]:
    """The rows of a JSONL file and the byte length of its ended lines.

    A last line with no ``\\n`` that does not parse is a torn append, left
    by a crash in the middle of a write, and is dropped. Any other line that
    does not parse, or parses to something other than an object, raises
    ``MalformedJsonl`` naming the file and line; a file that cannot be read
    is ``InvalidConfig``.
    """
    rows: list[dict] = []
    ended = 0
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InvalidConfig(f"{path}: cannot read: {exc.strerror}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            torn = not line.endswith(b"\n")
            if not torn:
                ended += len(line)
            if line.strip():
                try:
                    row = json.loads(line)
                except ValueError as exc:
                    if torn:
                        continue
                    raise MalformedJsonl(
                        f"{path}, line {lineno}: invalid JSON: {exc}") from exc
                if not isinstance(row, dict):
                    raise MalformedJsonl(
                        f"{path}, line {lineno}: a row must be a JSON object")
                rows.append(row)
    return rows, ended


def read_jsonl(path) -> list[dict]:
    """Every row of a JSONL file, in file order, less a torn last line."""
    return _scan(path)[0]


def read_json_object(path) -> dict:
    """The JSON object of a sidecar or config file; ``InvalidConfig`` names
    the path when the file cannot be read or does not hold one JSON object."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidConfig(f"{path}: cannot read: {exc.strerror}") from exc
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise InvalidConfig(f"{path}: not a JSON file: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidConfig(f"{path}: holds a JSON {type(data).__name__}, not an object")
    return data


def row_error(path, index: int, message: str) -> MalformedJsonl:
    """``MalformedJsonl`` naming the file line of row ``index`` of ``path``."""
    with open(path, "rb") as fh:
        lines = [n for n, line in enumerate(fh, 1) if line.strip()]
    return MalformedJsonl(f"{path}, line {lines[index]}: {message}")


def check_rows(path, rows: list[dict], /, *, nonempty=(), **kinds) -> list[dict]:
    """``rows`` of ``path`` once each holds every key of ``kinds`` with a value
    of that type (``object``: any value) and a non-empty value under each key
    of ``nonempty``; else ``MalformedJsonl`` naming the file and line."""
    for i, row in enumerate(rows):
        for key, kind in kinds.items():
            if key not in row:
                raise row_error(path, i, f"row has no {key!r}")
            if not isinstance(row[key], kind):
                raise row_error(path, i, f"{key} {row[key]!r} is not a {kind.__name__}")
        for key in nonempty:
            if not row[key]:
                raise row_error(path, i, f"{key} is empty")
    return rows


class AtomicFile:
    """A text file written at ``<path>.tmp`` that replaces ``path`` when
    its ``with`` block ends, and is removed instead if the block raises: a
    reader sees all of the block's text at ``path`` or what was there
    before, and no temp file outlives the block. An ``OSError`` from
    opening, writing or replacing names ``path``, not the temp file.
    """

    def __init__(self, path):
        self.path, self.tmp = path, f"{path}.tmp"
        try:
            self._fh = open(self.tmp, "w", encoding="utf-8")
        except OSError as exc:
            raise self._named(exc) from exc

    def _named(self, exc: OSError) -> OSError:
        return OSError(exc.errno, exc.strerror, os.fspath(self.path))

    def write(self, text: str):
        try:
            self._fh.write(text)
        except OSError as exc:
            raise self._named(exc) from exc

    def __enter__(self) -> "AtomicFile":
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None:
            self._discard()
            return
        try:
            self._fh.close()
            os.replace(self.tmp, self.path)
        except OSError as exc:
            self._discard()
            raise self._named(exc) from exc

    def _discard(self):
        with contextlib.suppress(OSError):
            self._fh.close()
        with contextlib.suppress(OSError):
            os.remove(self.tmp)


def atomic_write_text(path, text: str):
    """Replace ``path`` with ``text`` through an ``AtomicFile``."""
    with AtomicFile(path) as out:
        out.write(text)


def write_jsonl(path, rows: Iterable[dict]):
    """Replace ``path`` with one ``encode_row`` line per row, in order.

    Each row is encoded into ``<path>.tmp`` as ``rows`` yields it, so
    memory holds one row at a time, not the file; an exception, from
    ``rows`` or from the encoding of a row, leaves ``path`` as it was and
    no temp file behind (``AtomicFile``).
    """
    with AtomicFile(path) as out:
        for row in rows:
            out.write(encode_row(row))


class Journal:
    """An append-only JSONL file of rows keyed by ``row["id"]``.

    ``rows`` starts as the file's rows by id, last wins (each must hold a
    string id). ``append`` writes and flushes one row, so a crashed process
    loses at most that row. The file is opened, and made if missing, by the
    first ``append``, so a run that fails before its first row leaves no
    file behind. A last line without its newline is cut off the file then
    (a whole row there stays in ``rows``), so no row is ever appended onto
    a fragment. ``compact`` ends a run: it closes the file and atomically
    rewrites it sorted by id.
    """

    def __init__(self, path):
        self.path = Path(path)
        rows, self._ended = _scan(self.path) if self.path.exists() else ([], 0)
        self.rows = {row["id"]: row for row in check_rows(self.path, rows, id=str)}
        self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc):
        if self._fh:
            self._fh.close()

    def append(self, row: dict):
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.truncate(self._ended)
        self.rows[row["id"]] = row
        self._fh.write(encode_row(row))
        self._fh.flush()

    def compact(self, rows: Iterable[dict]):
        self.__exit__()
        write_jsonl(self.path, sorted(rows, key=lambda row: row["id"]))
