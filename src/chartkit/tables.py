"""Typed data tables and the preprocessing that makes them chart-ready.

A DataTable is a small columnar table whose columns are either categorical
(string cells) or numeric (finite float cells). infer_column_kinds turns a
raw grid of text cells into a typed table; decompose slices a typed table
into one-x / one-y (optionally one-group) tables small enough to chart.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    EmptyTable,
    NoCategoricalColumn,
    NoNumericColumn,
    RaggedInput,
)

Cell = Union[str, float]

CATEGORICAL = "categorical"
NUMERIC = "numeric"

CURRENCY_SYMBOLS = "$€£¥₹"

# Thousands separators are only stripped when they group digits in threes;
# "1,2" is not a number.
_GROUPED_RE = re.compile(r"[-+]?\d{1,3}(?:,\d{3})+(?:\.\d+)?")
_PLAIN_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)")


def parse_number(text: str) -> Optional[tuple[float, Optional[str]]]:
    """Parse one cell as a number, tolerating one unit decoration.

    Strips at most one leading currency symbol, digit-grouping commas, and
    one trailing "%". Returns (value, stripped_unit) or None when the cell
    is not a number. The unit is the currency symbol or "%" (currency wins
    when both occur).
    """
    s = text.strip()
    if not s:
        return None
    unit = None
    if s[0] in CURRENCY_SYMBOLS:
        unit = s[0]
        s = s[1:].strip()
    if s.endswith("%"):
        if unit is None:
            unit = "%"
        s = s[:-1].strip()
    if _GROUPED_RE.fullmatch(s):
        s = s.replace(",", "")
    elif not _PLAIN_RE.fullmatch(s):
        return None
    try:
        value = float(s)
    except ValueError:
        return None
    if not math.isfinite(value):
        return None
    return value, unit


@dataclass(frozen=True)
class Column:
    """One table column: a name, a kind, and an optional display unit."""

    name: str
    kind: str = CATEGORICAL
    unit: Optional[str] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("column name must be non-empty")
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise ValueError(f"unknown column kind: {self.kind!r}")


@dataclass(frozen=True)
class DataTable:
    """Immutable columnar table; the ground truth behind every chart."""

    columns: tuple[Column, ...]
    rows: tuple[tuple[Cell, ...], ...]

    def __init__(self, columns: Iterable[Column], rows: Iterable[Sequence[Cell]]):
        cols = tuple(columns)
        normalized = []
        for row in rows:
            cells = []
            for col, cell in zip(cols, row, strict=True):
                if col.kind == NUMERIC:
                    value = float(cell)
                    if not math.isfinite(value):
                        raise ValueError(f"non-finite value in column {col.name!r}")
                    cells.append(value)
                else:
                    cells.append(str(cell))
            normalized.append(tuple(cells))
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "rows", tuple(normalized))
        self._validate()

    def _validate(self):
        if not self.columns:
            raise ValueError("table needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names: {names}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def indices_of_kind(self, kind: str) -> list[int]:
        return [i for i, c in enumerate(self.columns) if c.kind == kind]

    def to_json_dict(self) -> dict:
        return {
            "columns": [
                {"name": c.name, "kind": c.kind, "unit": c.unit} for c in self.columns
            ],
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DataTable":
        raw_cols = data["columns"]
        if raw_cols and isinstance(raw_cols[0], str):
            # Bare column names: a raw table that still needs kind inference.
            grid = [list(raw_cols)] + [[str(c) for c in row] for row in data["rows"]]
            return infer_column_kinds(grid)
        columns = [
            Column(c["name"], c.get("kind", CATEGORICAL), c.get("unit"))
            for c in raw_cols
        ]
        return cls(columns, data["rows"])

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DataTable":
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def from_csv(cls, text: str) -> "DataTable":
        """Read an RFC 4180 CSV (header row first) and infer column kinds."""
        rows = list(csv.reader(io.StringIO(text)))
        rows = [r for r in rows if r]
        return infer_column_kinds(rows)


def infer_column_kinds(raw: Sequence[Sequence[str]]) -> DataTable:
    """Type a raw text grid: header row first, then data rows.

    A column is numeric when at least 90% of its non-empty cells parse as
    numbers (after unit stripping, see parse_number); the dominant stripped
    unit is recorded on the column. Rows whose cell in a numeric column does
    not parse (or is empty) are dropped entirely: synthesis must never chart
    invented numbers.

    Raises RaggedInput on unequal row arity and EmptyTable when no data row
    survives.
    """
    if not raw or not raw[0]:
        raise EmptyTable("input grid has no header row")
    header = [str(c).strip() for c in raw[0]]
    width = len(header)
    data = []
    for i, row in enumerate(raw[1:], start=2):
        if len(row) != width:
            raise RaggedInput(f"row {i} has {len(row)} cells, expected {width}")
        data.append([str(c) for c in row])
    if not data:
        raise EmptyTable("no data rows")

    parsed = [[parse_number(row[j]) for row in data] for j in range(width)]
    kinds = []
    units: list[Optional[str]] = []
    for j in range(width):
        non_empty = [k for k, row in enumerate(data) if row[j].strip()]
        ok = [k for k in non_empty if parsed[j][k] is not None]
        numeric = bool(non_empty) and len(ok) >= 0.9 * len(non_empty)
        kinds.append(NUMERIC if numeric else CATEGORICAL)
        if numeric:
            seen = Counter(
                parsed[j][k][1] for k in ok if parsed[j][k][1] is not None
            )
            units.append(seen.most_common(1)[0][0] if seen else None)
        else:
            units.append(None)

    numeric_cols = [j for j in range(width) if kinds[j] == NUMERIC]
    kept_rows = []
    for k, row in enumerate(data):
        if any(parsed[j][k] is None for j in numeric_cols):
            continue
        cells = [
            parsed[j][k][0] if kinds[j] == NUMERIC else row[j].strip()
            for j in range(width)
        ]
        kept_rows.append(cells)
    if not kept_rows:
        raise EmptyTable("no rows survived numeric parsing")

    columns = [Column(header[j], kinds[j], units[j]) for j in range(width)]
    return DataTable(columns, kept_rows)


MAX_CHART_ROWS = 8
MAX_SERIES = 4


@dataclass(frozen=True)
class ChartReadyTable:
    """A decomposed table: one categorical x, one numeric y, optional group.

    Holds at most MAX_CHART_ROWS rows so the resulting chart stays legible;
    (x, group) pairs are unique.
    """

    base: DataTable
    x_column: int
    y_column: int
    group_column: Optional[int] = None

    def __post_init__(self):
        t = self.base
        if not (0 < t.n_rows <= MAX_CHART_ROWS):
            raise ValueError(f"chart-ready table must have 1..{MAX_CHART_ROWS} rows")
        if t.columns[self.x_column].kind != CATEGORICAL:
            raise ValueError("x column must be categorical")
        if t.columns[self.y_column].kind != NUMERIC:
            raise ValueError("y column must be numeric")
        if self.group_column is not None:
            if t.columns[self.group_column].kind != CATEGORICAL:
                raise ValueError("group column must be categorical")
        keys = [(r[self.x_column], self._group_of(r)) for r in t.rows]
        if len(set(keys)) != len(keys):
            raise ValueError("(x, group) pairs must be unique")

    def _group_of(self, row) -> Optional[str]:
        return None if self.group_column is None else row[self.group_column]

    @property
    def grouped(self) -> bool:
        return self.group_column is not None

    @property
    def x_name(self) -> str:
        return self.base.columns[self.x_column].name

    @property
    def y_name(self) -> str:
        return self.base.columns[self.y_column].name

    @property
    def y_unit(self) -> Optional[str]:
        return self.base.columns[self.y_column].unit

    @property
    def group_name(self) -> Optional[str]:
        if self.group_column is None:
            return None
        return self.base.columns[self.group_column].name

    def x_labels(self) -> list[str]:
        """Distinct x values in first-occurrence order."""
        seen: dict[str, None] = {}
        for row in self.base.rows:
            seen.setdefault(row[self.x_column], None)
        return list(seen)

    def group_labels(self) -> list[str]:
        seen: dict[str, None] = {}
        for row in self.base.rows:
            g = self._group_of(row)
            if g is not None:
                seen.setdefault(g, None)
        return list(seen)

    def value(self, x: str, group: Optional[str] = None) -> float:
        for row in self.base.rows:
            if row[self.x_column] == x and self._group_of(row) == group:
                return row[self.y_column]
        raise KeyError((x, group))

    def to_wide_table(self) -> DataTable:
        """Canonical wide view: x column plus one numeric column per series.

        Ungrouped tables become (x, y); grouped tables pivot to one column
        per group value (which must all differ from the x column name).
        This is the table a reader would transcribe from the chart, and the
        target that extraction reconstructs.
        """
        x_col = self.base.columns[self.x_column]
        if not self.grouped:
            y_col = self.base.columns[self.y_column]
            rows = [
                (r[self.x_column], r[self.y_column]) for r in self.base.rows
            ]
            return DataTable((x_col, y_col), rows)
        groups = self.group_labels()
        unit = self.y_unit
        columns = [x_col] + [Column(g, NUMERIC, unit) for g in groups]
        rows = []
        for x in self.x_labels():
            rows.append([x] + [self.value(x, g) for g in groups])
        return DataTable(columns, rows)


def decompose(table: DataTable, rng_seed: int) -> list[ChartReadyTable]:
    """Slice a typed table into chart-ready pieces.

    Picks one numeric y column and one categorical x column (plus, half the
    time when available, a second categorical group column) pseudo-randomly
    from the seed, then splits the rows into consecutive windows small
    enough to chart. Duplicate (x, group) keys keep their first occurrence;
    rows with empty x or group cells are skipped; grouped output keeps only
    x values present in every group. Deterministic for a fixed seed.
    """
    numeric = table.indices_of_kind(NUMERIC)
    categorical = table.indices_of_kind(CATEGORICAL)
    if not numeric:
        raise NoNumericColumn("table has no numeric column")
    if not categorical:
        raise NoCategoricalColumn("table has no categorical column")

    rng = random.Random(rng_seed)
    y = rng.choice(numeric)
    x = rng.choice(categorical)
    group = None
    others = [c for c in categorical if c != x]
    if others and rng.random() < 0.5:
        group = rng.choice(others)

    if group is not None:
        pieces = _grouped_pieces(table, x, group, y)
        if pieces:
            return pieces
        # Grouped filtering can leave nothing chartable; fall back to x/y.
    return _ungrouped_pieces(table, x, y)


def _window_table(table, col_indices, rows):
    columns = [table.columns[i] for i in col_indices]
    data = [[row[i] for i in col_indices] for row in rows]
    return DataTable(columns, data)


def _ungrouped_pieces(table, x, y):
    seen = set()
    rows = []
    for row in table.rows:
        key = row[x]
        if not str(key).strip() or key in seen:
            continue
        seen.add(key)
        rows.append(row)
    pieces = []
    for start in range(0, len(rows), MAX_CHART_ROWS):
        window = rows[start : start + MAX_CHART_ROWS]
        base = _window_table(table, [x, y], window)
        pieces.append(ChartReadyTable(base, x_column=0, y_column=1))
    return pieces

def _grouped_pieces(table, x, group, y):
    values = {}
    x_order: dict[str, None] = {}
    g_order: dict[str, None] = {}
    for row in table.rows:
        xv, gv = row[x], row[group]
        if not str(xv).strip() or not str(gv).strip():
            continue
        if (xv, gv) in values:
            continue
        values[(xv, gv)] = row
        x_order.setdefault(xv, None)
        g_order.setdefault(gv, None)

    groups = list(g_order)[:MAX_SERIES]
    xs = [xv for xv in x_order if all((xv, g) in values for g in groups)]
    if len(groups) < 2 or not xs:
        return []

    per_window = max(1, MAX_CHART_ROWS // len(groups))
    pieces = []
    for start in range(0, len(xs), per_window):
        window_x = xs[start : start + per_window]
        rows = [values[(xv, g)] for xv in window_x for g in groups]
        base = _window_table(table, [x, group, y], rows)
        pieces.append(ChartReadyTable(base, x_column=0, group_column=1, y_column=2))
    return pieces
