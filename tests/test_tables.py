import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartkit.errors import (
    EmptyTable,
    MalformedTable,
    NoCategoricalColumn,
    NoNumericColumn,
    RaggedInput,
)
from chartkit.flatten import format_number
from chartkit.jsonl import encode_row
from chartkit.tables import (
    CATEGORICAL,
    NUMERIC,
    ChartReadyTable,
    Column,
    DataTable,
    decompose,
    infer_column_kinds,
    parse_number,
)


def test_parse_number_strips_units():
    assert parse_number("1,200") == (1200.0, None)
    assert parse_number("5%") == (5.0, "%")
    assert parse_number("$1,200") == (1200.0, "$")
    assert parse_number("-3.5") == (-3.5, None)
    assert parse_number("abc") is None
    assert parse_number("1,2") is None  # not a grouped number
    assert parse_number("") is None
    assert parse_number("nan") is None


def test_infer_separator_stripping():
    t = infer_column_kinds([["year", "pop"], ["2001", "1,200"], ["2002", "1,350"]])
    assert t.columns[1].name == "pop"
    assert t.columns[1].kind == NUMERIC
    assert [r[1] for r in t.rows] == [1200.0, 1350.0]


def test_infer_single_categorical_column():
    t = infer_column_kinds([["name"], ["a"], ["b"]])
    assert t.columns[0].kind == CATEGORICAL
    assert [r[0] for r in t.rows] == ["a", "b"]


def test_infer_percent_unit():
    t = infer_column_kinds([["x", "share"], ["a", "5%"], ["b", "7%"], ["c", "9%"]])
    col = t.columns[1]
    assert col.name == "share"
    assert col.kind == NUMERIC
    assert col.unit == "%"
    assert [r[1] for r in t.rows] == [5.0, 7.0, 9.0]


def test_infer_drops_rows_with_unparseable_numeric_cells():
    # Empty cells don't count against the 90% rule but still kill their row.
    rows = [["x", "v"]] + [[f"r{i}", str(i)] for i in range(9)] + [["gap", ""]]
    t = infer_column_kinds(rows)
    assert t.columns[1].kind == NUMERIC
    assert "gap" not in [r[0] for r in t.rows]
    assert t.n_rows == 9


def test_infer_ninety_percent_threshold():
    # 9 numeric + 1 footnote cell: still numeric, the footnote row dropped.
    rows = [["x", "v"]] + [[f"r{i}", str(i)] for i in range(9)] + [["foot", "see note"]]
    t = infer_column_kinds(rows)
    assert t.columns[1].kind == NUMERIC
    assert t.n_rows == 9
    # 8 numeric of 10 is below the threshold: categorical.
    rows = [["x", "v"]] + [[f"r{i}", str(i)] for i in range(8)] + [
        ["a", "n/a"], ["b", "tbd"]
    ]
    t = infer_column_kinds(rows)
    assert t.columns[1].kind == CATEGORICAL


def test_infer_errors():
    with pytest.raises(RaggedInput):
        infer_column_kinds([["a", "b"], ["1"]])
    with pytest.raises(EmptyTable):
        infer_column_kinds([["a", "b"]])
    # Two numeric columns whose empty cells alternate: every row drops.
    grid = [["a", "b"]]
    for i in range(10):
        grid.append([str(i), ""] if i % 2 else ["", str(i)])
    with pytest.raises(EmptyTable):
        infer_column_kinds(grid)


def _render_back(table: DataTable) -> list[list[str]]:
    grid = [[c.name for c in table.columns]]
    for row in table.rows:
        cells = []
        for col, cell in zip(table.columns, row):
            if col.kind == NUMERIC:
                text = format_number(cell)
                # Only single-symbol units survive a round trip through text;
                # word units ("millions") live in headers, not cells.
                if col.unit == "%":
                    text += "%"
                elif col.unit and len(col.unit) == 1:
                    text = col.unit + text
                cells.append(text)
            else:
                cells.append(cell)
        grid.append(cells)
    return grid


def test_infer_is_idempotent_on_rendered_output():
    rng = random.Random(5)
    from chartkit.gen import random_plain_table

    for _ in range(25):
        t = random_plain_table(rng)
        again = infer_column_kinds(_render_back(t))
        assert [c.kind for c in again.columns] == [c.kind for c in t.columns]
        for j, col in enumerate(t.columns):
            if col.kind == NUMERIC:
                assert [r[j] for r in again.rows] == [
                    round(r[j], 2) for r in t.rows
                ]


def test_datatable_validation():
    with pytest.raises(ValueError):
        DataTable([Column("a"), Column("a")], [])
    with pytest.raises(ValueError):
        Column("")
    with pytest.raises(ValueError):
        DataTable([Column("a", NUMERIC)], [[float("inf")]])


def test_json_round_trip():
    t = infer_column_kinds([["x", "v"], ["a", "1"], ["b", "2"]])
    assert DataTable.from_json_dict(json.loads(encode_row(t.to_json_dict()))) == t


def test_json_import_with_bare_column_names_infers_kinds():
    t = DataTable.from_json_dict({"columns": ["x", "v"], "rows": [["a", "3"]]})
    assert t.columns[1].kind == NUMERIC


def test_json_import_rejects_what_is_not_a_table():
    for data in ([], {"rows": []}, {"columns": 5, "rows": []}, {"columns": [7], "rows": []},
                 {"columns": [{"kind": "numeric"}], "rows": []},
                 {"columns": [{"name": True}], "rows": [["a"]]},
                 {"columns": [{"name": "v", "kind": "numeric"}], "rows": [["abc"]]},
                 {"columns": [{"name": "v", "kind": "numeric"}], "rows": [[None]]},
                 {"columns": ["x"], "rows": [5]}):
        with pytest.raises(MalformedTable):
            DataTable.from_json_dict(data)


def test_csv_import():
    t = DataTable.from_csv('x,v\n"a,with comma",10\nb,20\n')
    assert [r[0] for r in t.rows] == ["a,with comma", "b"]
    assert [r[1] for r in t.rows] == [10.0, 20.0]


def _table(cat_cols, num_cols, n_rows, rng, n_labels=None):
    """Distinct labels per row, or ``n_labels`` repeating ones (so groups form)."""
    columns = [Column(n, CATEGORICAL) for n in cat_cols] + [
        Column(n, NUMERIC) for n in num_cols
    ]
    rows = []
    for i in range(n_rows):
        row = [
            f"{name}{i if n_labels is None else rng.randrange(n_labels)}"
            for name in cat_cols
        ] + [round(rng.uniform(1, 100), 2) for _ in num_cols]
        rows.append(row)
    return DataTable(columns, rows)


def test_decompose_window_sizes():
    rng = random.Random(0)
    t = _table(["x"], ["v"], 10, rng)
    pieces = decompose(t, rng_seed=1)
    assert [p.wide.n_rows for p in pieces] == [8, 2]
    assert not any(p.grouped for p in pieces)


def test_decompose_preconditions():
    rng = random.Random(0)
    with pytest.raises(NoNumericColumn):
        decompose(_table(["x"], [], 3, rng), 0)
    with pytest.raises(NoCategoricalColumn):
        decompose(_table([], ["v"], 3, rng), 0)


def test_decompose_deterministic():
    rng = random.Random(3)
    t = _table(["x", "g"], ["v", "w"], 6, rng)
    assert decompose(t, 42) == decompose(t, 42)


def test_decompose_single_y_column_and_row_cap():
    rng = random.Random(9)
    t = _table(["x", "g"], ["v", "w"], 3, rng)
    for piece in decompose(t, 0):
        assert piece.y in t.columns and piece.y.kind == NUMERIC
        series = piece.wide.columns[1:]
        assert all(c.kind == NUMERIC and c.unit == piece.y.unit for c in series)
        assert piece.wide.n_rows * len(series) <= 8


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=3),
)
def test_decompose_invariants_random(seed, n_rows, n_num):
    rng = random.Random(seed)
    cat_cols = ["x", "g"][: rng.randint(1, 2)]
    n_labels = rng.choice([None, 3])
    t = _table(cat_cols, [f"v{i}" for i in range(n_num)], n_rows, rng, n_labels)
    names = [c.name for c in t.columns]
    for piece in decompose(t, seed):
        wide = piece.wide
        assert wide.n_rows * (wide.n_cols - 1) <= 8
        assert len(set(piece.x_labels())) == wide.n_rows
        x, y = names.index(piece.x_name), names.index(piece.y_name)
        group = names.index(piece.group_name) if piece.grouped else None
        # No fabricated cells: each (x, series, value) cell is some input row's.
        for row in wide.rows:
            for col, value in zip(wide.columns[1:], row[1:]):
                assert any(
                    orig[x] == row[0] and orig[y] == value
                    and (group is None or orig[group] == col.name)
                    for orig in t.rows
                )


def test_wide_table_grouped_pivot():
    long = DataTable(
        [Column("Year"), Column("Region"), Column("Sales", NUMERIC, "%")],
        [
            ["2001", "North", 5.0], ["2001", "South", 7.0],
            ["2002", "North", 6.0], ["2002", "South", 8.0],
        ],
    )
    (crt,) = decompose(long, rng_seed=1)
    assert (crt.x_name, crt.group_name, crt.y) == ("Year", "Region", long.columns[2])
    wide = crt.to_wide_table()
    assert [c.name for c in wide.columns] == ["Year", "North", "South"]
    assert wide.rows == (("2001", 5.0, 7.0), ("2002", 6.0, 8.0))
    assert all(c.unit == "%" for c in wide.columns[1:])


def test_chart_ready_table_rejections():
    x, y = Column("X"), Column("V", NUMERIC)

    def ready(columns, rows, group_name=None):
        return ChartReadyTable(DataTable(columns, rows), y, group_name)

    ready([x, y], [[f"c{i}", 1.0] for i in range(8)])
    with pytest.raises(ValueError, match="marks"):
        ready([x, y], [[f"c{i}", 1.0] for i in range(9)])
    with pytest.raises(ValueError, match="marks"):
        series = [Column(g, NUMERIC) for g in "abc"]
        ready([x, *series], [[f"c{i}", 1, 2, 3] for i in range(3)], "G")
    with pytest.raises(ValueError, match="unique"):
        ready([x, y], [["a", 1.0], ["a", 2.0]])
    with pytest.raises(ValueError, match="numeric"):
        ready([x, Column("a", NUMERIC), Column("b")], [["c0", 1.0, "t"]], "G")
    with pytest.raises(ValueError, match="must be y"):
        ready([x, Column("W", NUMERIC)], [["c0", 1.0]])
