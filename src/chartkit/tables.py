"""Typed data tables and the preprocessing that makes them chart-ready.

A DataTable is a small columnar table whose columns are either categorical
(string cells) or numeric (finite float cells). infer_column_kinds turns a
raw grid of text cells into a typed table; decompose slices a typed table
into chart-ready wide tables (x labels, then one numeric column per series)
of at most MAX_MARKS marks, the shape a chart draws and its sidecar
carries.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import random
import re
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    EmptyTable,
    MalformedTable,
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
# The text rules every module shares: a plain number, a number that may
# carry an exponent, and a "name (unit)" header.
PLAIN_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)")
EXP_NUMBER_RE = re.compile(PLAIN_NUMBER_RE.pattern + r"(?:[eE][-+]?\d+)?")
UNIT_SUFFIX_RE = re.compile(r"^(.+) \((.+)\)$")


def left_sum(values: Iterable) -> Union[int, float]:
    """``sum(values)`` added left to right, as Python 3.11 adds it.

    From 3.12 on ``sum`` compensates float rounding, which moves the last
    bits of some totals, so every float total that reaches an output byte
    or a score is added here instead.
    """
    return reduce(operator.add, values, 0)


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
    elif not PLAIN_NUMBER_RE.fullmatch(s):
        return None
    value = float(s)  # the patterns above match only text float parses
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
        if not (isinstance(self.name, str) and self.name):
            raise ValueError(f"column name must be a non-empty string, not {self.name!r}")
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
        """The table of ``{"columns", "rows"}``: columns as bare names (kinds
        inferred) or as ``{"name", "kind", "unit"}``. Anything that does not
        form a table is ``MalformedTable``."""
        try:
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
        except KeyError as exc:
            raise MalformedTable(f"table has no key {exc}") from exc
        except (TypeError, AttributeError, ValueError) as exc:
            raise MalformedTable(f"not a table: {exc}") from exc

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


MAX_MARKS = 8
MAX_SERIES = 4


@dataclass(frozen=True)
class ChartReadyTable:
    """The wide table a chart draws: x labels, then one column per series.

    ``wide`` has a categorical x column first, then one numeric column per
    series, one row per distinct x label. It is exactly the table the
    sidecar carries and extraction reconstructs. An ungrouped table has one
    series, the measure ``y`` itself. A grouped table names its series
    after the group values, so the measure (``y``: name and unit) and the
    group column's name ride beside it. At most MAX_MARKS marks (rows
    times series columns) keep the chart legible.
    """

    wide: DataTable
    y: Column
    group_name: Optional[str] = None

    def __post_init__(self):
        x_col, *series = self.wide.columns
        n_marks = self.wide.n_rows * len(series)
        if not (0 < n_marks <= MAX_MARKS):
            raise ValueError(f"chart-ready table must have 1..{MAX_MARKS} marks")
        if x_col.kind != CATEGORICAL:
            raise ValueError("x column must be categorical")
        if self.y.kind != NUMERIC or any(c.kind != NUMERIC for c in series):
            raise ValueError("y and every series column must be numeric")
        if not self.grouped and series != [self.y]:
            raise ValueError("an ungrouped table's one series column must be y")
        xs = self.x_labels()
        if len(set(xs)) != len(xs):
            raise ValueError("x labels must be unique")

    @property
    def grouped(self) -> bool:
        return self.group_name is not None

    @property
    def x_name(self) -> str:
        return self.wide.columns[0].name

    @property
    def y_name(self) -> str:
        return self.y.name

    @property
    def y_unit(self) -> Optional[str]:
        return self.y.unit

    def x_labels(self) -> list[str]:
        """The x labels, one per row, in chart order."""
        return [row[0] for row in self.wide.rows]

    def to_wide_table(self) -> DataTable:
        """The table a reader would transcribe from the chart, and the
        target that extraction reconstructs."""
        return self.wide


def decompose(table: DataTable, rng_seed: int) -> list[ChartReadyTable]:
    """Slice a typed table into chart-ready pieces.

    Picks one numeric y column and one categorical x column (plus, half the
    time when available, a second categorical group column) pseudo-randomly
    from the seed, then splits the x labels into consecutive windows small
    enough to chart. Duplicate (x, group) keys keep their first occurrence;
    rows with empty x or group cells are skipped; grouped output keeps the
    first MAX_SERIES group values as series and only x values present in
    every one of them. Deterministic for a fixed seed.

    Raises MalformedTable when a series would take the x column's name.
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


def _windows(columns, rows, size, y, group_name):
    return [
        ChartReadyTable(DataTable(columns, rows[i : i + size]), y, group_name)
        for i in range(0, len(rows), size)
    ]


def _ungrouped_pieces(table, x, y):
    values = {}
    for row in table.rows:
        if str(row[x]).strip():
            values.setdefault(row[x], row[y])
    y_col = table.columns[y]
    return _windows((table.columns[x], y_col), list(values.items()),
                    MAX_MARKS, y_col, None)


def _grouped_pieces(table, x, group, y):
    values = {}
    x_order: dict[str, None] = {}
    g_order: dict[str, None] = {}
    for row in table.rows:
        xv, gv = row[x], row[group]
        if not str(xv).strip() or not str(gv).strip():
            continue
        values.setdefault((xv, gv), row[y])
        x_order.setdefault(xv, None)
        g_order.setdefault(gv, None)

    groups = list(g_order)[:MAX_SERIES]
    xs = [xv for xv in x_order if all((xv, g) in values for g in groups)]
    if len(groups) < 2 or not xs:
        return []
    x_col, y_col = table.columns[x], table.columns[y]
    if x_col.name in groups:
        raise MalformedTable(
            f"group value {x_col.name!r} of column {table.columns[group].name!r} "
            f"is also the x column's name"
        )
    columns = [x_col] + [Column(g, NUMERIC, y_col.unit) for g in groups]
    rows = [[xv] + [values[(xv, g)] for g in groups] for xv in xs]
    return _windows(columns, rows, max(1, MAX_MARKS // len(groups)),
                    y_col, table.columns[group].name)
