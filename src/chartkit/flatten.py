"""Single-string table linearization used as a sequence-generation target.

Cells are joined by " | " and rows by " & ", header first. Literal "|",
"&" and "\\" inside cells are backslash-escaped, so the format is
unambiguous and invertible. Numeric cells print with up to two decimal
places, trailing zeros trimmed, no thousands separators; unflattening a
table whose values carry more precision than that is lossy by design.
"""

from __future__ import annotations

from .errors import MalformedTable, RaggedInput
from .tables import (
    CATEGORICAL,
    NUMERIC,
    PLAIN_NUMBER_RE,
    UNIT_SUFFIX_RE,
    Column,
    DataTable,
)

CELL_SEP = " | "
ROW_SEP = " & "


def format_number(value: float) -> str:
    """Render a number with at most two decimals and no trailing zeros."""
    q = round(float(value), 2)
    if q == 0:
        q = 0.0  # avoid "-0"
    s = f"{q:.2f}".rstrip("0").rstrip(".")
    return s or "0"


def escape_cell(text: str) -> str:
    return text.replace("\\", "\\\\").replace("|", "\\|").replace("&", "\\&")


def _header_cell(col: Column) -> str:
    name = col.name
    if col.kind == NUMERIC and col.unit:
        name = f"{name} ({col.unit})"
    return escape_cell(name)


def flatten_table(table: DataTable) -> str:
    """Linearize a table: header cells, then row cells."""
    out_rows = [CELL_SEP.join(_header_cell(c) for c in table.columns)]
    for row in table.rows:
        cells = []
        for col, cell in zip(table.columns, row):
            if col.kind == NUMERIC:
                cells.append(format_number(cell))
            else:
                cells.append(escape_cell(cell))
        out_rows.append(CELL_SEP.join(cells))
    return ROW_SEP.join(out_rows)


def _split_flat(text: str) -> list[list[str]]:
    """Undo the escaping-aware joins; returns rows of raw cell strings."""
    rows: list[list[str]] = []
    cells: list[str] = []
    buf: list[str] = []
    i, n = 0, len(text)
    while i < n:
        chunk = text[i : i + 3]
        if chunk == CELL_SEP:
            cells.append("".join(buf))
            buf = []
            i += 3
        elif chunk == ROW_SEP:
            cells.append("".join(buf))
            rows.append(cells)
            cells, buf = [], []
            i += 3
        elif text[i] == "\\" and i + 1 < n:
            buf.append(text[i + 1])
            i += 2
        else:
            buf.append(text[i])
            i += 1
    cells.append("".join(buf))
    rows.append(cells)
    return rows


def _plain_float(cell: str) -> float | None:
    if not PLAIN_NUMBER_RE.fullmatch(cell):
        return None
    return float(cell)


def unflatten_table(text: str) -> DataTable:
    """Parse a flattened table back into a DataTable.

    A column is numeric when every one of its cells is a plain number; a
    numeric header of the form "name (unit)" has its unit split out.
    Raises ``RaggedInput`` for rows of unequal width and ``MalformedTable``
    for an empty or repeated column name or a number too large for a float.
    """
    rows = _split_flat(text)
    header, data = rows[0], rows[1:]
    width = len(header)
    for i, row in enumerate(data, start=2):
        if len(row) != width:
            raise RaggedInput(f"flattened row {i} has {len(row)} cells, expected {width}")

    columns = []
    parsed_cols = []
    for j in range(width):
        values = [_plain_float(row[j]) for row in data]
        numeric = bool(values) and all(v is not None for v in values)
        name, unit = header[j], None
        if numeric:
            m = UNIT_SUFFIX_RE.match(name)
            if m:
                name, unit = m.group(1), m.group(2)
            columns.append((name, NUMERIC, unit))
        else:
            columns.append((name, CATEGORICAL, None))
        parsed_cols.append(values if numeric else [row[j] for row in data])

    table_rows = [
        [parsed_cols[j][k] for j in range(width)] for k in range(len(data))
    ]
    try:
        return DataTable([Column(*c) for c in columns], table_rows)
    except ValueError as exc:
        raise MalformedTable(f"flattened table: {exc}") from exc
