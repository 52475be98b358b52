"""The on-disk JSONL format of every corpus stream.

A row is one JSON object on one UTF-8 line, keys sorted, non-ASCII kept
as is, ended by ``\\n``. Files are replaced atomically (temp file, then
``os.replace``). The manifest and the distill checkpoint are a ``Journal``:
one row appended per completion, loaded last-wins on resume, and rewritten
sorted at the end of a run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable


def encode_row(row: dict) -> str:
    """One JSONL line: the canonical encoding of ``row``, ended by ``\\n``."""
    return json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n"


def _scan(path) -> tuple[list[dict], int]:
    """The rows of a JSONL file and the byte length of its ended lines.

    A last line with no ``\\n`` that does not parse is a torn append, left
    by a crash in the middle of a write, and is dropped.
    """
    rows: list[dict] = []
    ended = 0
    with open(path, "rb") as fh:
        for line in fh:
            torn = not line.endswith(b"\n")
            if not torn:
                ended += len(line)
            if line.strip():
                try:
                    rows.append(json.loads(line))
                except ValueError:
                    if not torn:
                        raise
    return rows, ended


def read_jsonl(path) -> list[dict]:
    """Every row of a JSONL file, in file order, less a torn last line."""
    return _scan(path)[0]


def load_by_id(path) -> dict:
    """Rows by ``row["id"]``, the last row of an id winning; {} if no file."""
    if not os.path.exists(path):
        return {}
    return {row["id"]: row for row in read_jsonl(path)}


def atomic_write_text(path, text: str):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_jsonl(path, rows: Iterable[dict]):
    atomic_write_text(path, "".join(map(encode_row, rows)))


class Journal:
    """An append-only JSONL file of rows keyed by ``row["id"]``.

    ``rows`` starts as the file's rows by id, last wins. ``append`` writes and
    flushes one row, so a crashed process loses at most that row. A last
    line without its newline is cut off the file on open (a whole row there
    stays in ``rows``), so no row is ever appended onto a fragment.
    ``compact`` ends a run: it closes the file and atomically rewrites it
    sorted by id.
    """

    def __init__(self, path):
        self.path = Path(path)
        rows, ended = _scan(self.path) if self.path.exists() else ([], 0)
        self.rows = {row["id"]: row for row in rows}
        self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.truncate(ended)

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def append(self, row: dict):
        self.rows[row["id"]] = row
        self._fh.write(encode_row(row))
        self._fh.flush()

    def compact(self, rows: Iterable[dict]):
        self._fh.close()
        write_jsonl(self.path, sorted(rows, key=lambda row: row["id"]))
