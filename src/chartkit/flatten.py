"""Single-string table linearization used as a sequence-generation target.

Cells are joined by " | " and rows by " & ", header first. Literal "|",
"&" and "\\" inside cells are backslash-escaped, so the format is
unambiguous and invertible. Numeric cells print with up to two decimal
places, trailing zeros trimmed, no thousands separators; unflattening a
table whose values carry more precision than that is lossy by design.

Unflattening reads a column as numeric when every one of its cells is a
plain number. A numeric column's header "name (unit)" is read back as
that name with that unit, unless another column would then have the same
name: such a header is kept whole, with no unit, and this is repeated
until no two names collide. So "Region | Sales (old) | Sales (new)" over
numbers gives the columns "Region", "Sales (old)" and "Sales (new)", not
two columns "Sales", and a table that flattens with distinct names reads
back with them.
"""

from __future__ import annotations

import re

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


# A cell separator (its character in group 1) or an escape (the escaped
# character in group 2). ``re.split`` on it gives the text between matches
# with both groups after each match, so the pieces come in threes after the
# first: separator, escaped character, text. A backslash that ends the text
# escapes nothing and stays in the text.
_FLAT_SPLIT_RE = re.compile(r" ([|&]) |\\(.)", re.DOTALL)


def _split_flat(text: str) -> list[list[str]]:
    """Undo the escaping-aware joins; returns rows of raw cell strings."""
    pieces = iter(_FLAT_SPLIT_RE.split(text))
    rows: list[list[str]] = []
    cells: list[str] = []
    buf = [next(pieces)]
    for sep, char, piece in zip(pieces, pieces, pieces):
        if char is not None:
            buf.append(char)
        else:
            cells.append("".join(buf))
            buf = []
            if sep == "&":
                rows.append(cells)
                cells = []
        buf.append(piece)
    cells.append("".join(buf))
    rows.append(cells)
    return rows


def unflatten_table(text: str) -> DataTable:
    """Parse a flattened table back into a DataTable.

    A column is numeric when every one of its cells is a plain number; a
    numeric header of the form "name (unit)" has its unit split out when
    the name stays unique (see the module docstring). Raises
    ``RaggedInput`` for rows of unequal width and ``MalformedTable`` for an
    empty or repeated column name or a number too large for a float.
    """
    rows = _split_flat(text)
    header, data = rows[0], rows[1:]
    width = len(header)
    for i, row in enumerate(data, start=2):
        if len(row) != width:
            raise RaggedInput(f"flattened row {i} has {len(row)} cells, expected {width}")

    kinds = [CATEGORICAL] * width
    if data:
        kinds = [NUMERIC if all(map(PLAIN_NUMBER_RE.fullmatch, cells)) else CATEGORICAL
                 for cells in zip(*data)]
    units = [UNIT_SUFFIX_RE.match(name) if kind == NUMERIC else None
             for name, kind in zip(header, kinds)]
    names = [m.group(1) if m else name for name, m in zip(header, units)]
    # Each pass keeps at least one more header whole, so this ends.
    while clash := [j for j, m in enumerate(units) if m and names.count(names[j]) > 1]:
        for j in clash:
            names[j], units[j] = header[j], None
    try:
        columns = [Column(name, kind, m and m.group(2))
                   for name, kind, m in zip(names, kinds, units)]
        # The table converts the numeric cells, each a plain number, to float.
        return DataTable(columns, data)
    except ValueError as exc:
        raise MalformedTable(f"flattened table: {exc}") from exc
