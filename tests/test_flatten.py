import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chartkit.errors import ChartKitError
from chartkit.flatten import (
    _split_flat,
    escape_cell,
    flatten_table,
    format_number,
    unflatten_table,
)
from chartkit.gen import random_plain_table
from chartkit.tables import Column, DataTable, NUMERIC
from eval_oracles import split_flat_scan


def test_flatten_example():
    t = DataTable(
        [Column("Year", NUMERIC), Column("Sales", NUMERIC)],
        [[2001, 5], [2002, 7.5]],
    )
    assert flatten_table(t) == "Year | Sales & 2001 | 5 & 2002 | 7.5"


def test_escaping():
    assert escape_cell("A|B") == "A\\|B"
    assert escape_cell("A&B") == "A\\&B"
    assert escape_cell("A\\B") == "A\\\\B"
    t = DataTable([Column("c")], [["A|B"], ["x & y"], ["a\\b"]])
    flat = flatten_table(t)
    assert "A\\|B" in flat
    assert unflatten_table(flat) == t


def test_format_number():
    assert format_number(5.0) == "5"
    assert format_number(7.5) == "7.5"
    assert format_number(1200.0) == "1200"
    assert format_number(0.333) == "0.33"
    assert format_number(-0.001) == "0"
    assert format_number(-4.25) == "-4.25"


def test_unit_header_round_trip():
    t = DataTable(
        [Column("Country"), Column("Share", NUMERIC, "%")],
        [["a", 5.0]],
    )
    flat = flatten_table(t)
    assert "Share (%)" in flat
    assert unflatten_table(flat) == t


def test_round_trip_generated_tables():
    rng = random.Random(11)
    for _ in range(200):
        t = random_plain_table(rng, special=True)
        assert unflatten_table(flatten_table(t)) == t


_cell_text = st.text(
    alphabet=st.sampled_from("ab|&\\ xy."), min_size=1, max_size=8
).filter(lambda s: s.strip() and not s.strip().replace(".", "").isdigit())


@settings(max_examples=120, deadline=None)
@given(
    st.lists(_cell_text, min_size=1, max_size=5),
    st.integers(min_value=0, max_value=2**30),
)
def test_round_trip_hostile_cells(cells, seed):
    rng = random.Random(seed)
    rows = [[c, round(rng.uniform(-100, 100), 2)] for c in cells]
    t = DataTable([Column("label"), Column("v", NUMERIC)], rows)
    assert unflatten_table(flatten_table(t)) == t


# Separators, escapes, digits and the float spellings that are not plain
# numbers: the pieces a malformed model output is made of.
_FLAT_PIECES = st.sampled_from(
    [" | ", " & ", "|", "&", "\\", " ", "(", ")", ".", "-", "0", "7",
     "9" * 400, "nan", "1e999", "x", "x (u)"]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_FLAT_PIECES, max_size=16).map("".join))
@example("")
@example("nan | nan & 1 | 2")
@example("a (u) | a & 1 | 2")
@example("a & " + "9" * 400)
def test_unflatten_raises_only_chartkit_errors(text):
    try:
        unflatten_table(text)
    except ChartKitError:
        pass


_SPLIT_PIECES = [" ", "|", "&", "\\", "a", "é", " | ", " & ", "\\|"]


def test_split_flat_matches_the_character_scanner():
    fixed = [" | & ", " & | ", "a | b & c \\", "\\", "a\\ | b", " |  & ",
             "a \\| b", "a \\& b \\\\ & c", "x\\\n | y", ""]
    rng = random.Random(20)
    drawn = ["".join(rng.choice(_SPLIT_PIECES) for _ in range(rng.randint(0, 24)))
             for _ in range(20000)]
    for text in fixed + drawn:
        assert _split_flat(text) == split_flat_scan(text), text
    assert _split_flat(" | & ") == [["", "& "]]
    assert _split_flat(" & | ") == [[""], ["| "]]
    assert _split_flat("a | b\\") == [["a", "b\\"]]


def test_unflatten_names_a_bad_header():
    with pytest.raises(ChartKitError, match="non-empty"):
        unflatten_table(" | a & x | 1")
    with pytest.raises(ChartKitError, match="duplicate"):
        unflatten_table("nan | nan & 1 | 2")
