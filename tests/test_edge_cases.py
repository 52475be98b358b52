"""Round-trip and robustness checks on awkward-but-legal inputs."""

import random

import pytest

from chartkit.extract import extract_chart, parse_chart_svg
from chartkit.flatten import flatten_table, unflatten_table
from chartkit.gen import random_chart
from chartkit.synth import (
    GROUPED_BAR,
    LINE_SINGLE,
    PIE,
    SIMPLE_BAR,
    ChartSpec,
    StyleParams,
    render,
)
from chartkit.tables import ChartReadyTable, Column, DataTable, NUMERIC


def _chart(values, chart_type=SIMPLE_BAR, labels=True, xs=None, unit=None):
    xs = xs or [f"c{i}" for i in range(len(values))]
    y = Column("V", NUMERIC, unit)
    wide = DataTable([Column("X"), y], [[x, v] for x, v in zip(xs, values)])
    table = ChartReadyTable(wide, y)
    style = StyleParams(show_data_labels=labels)
    return render(ChartSpec(chart_type, table, style))


def test_negative_bars_round_trip_labeled_and_unlabeled():
    for labels in (True, False):
        chart = _chart([-12.5, 40.0, -3.25, 0.75], labels=labels)
        result = extract_chart(chart.svg)
        for src, got in zip(chart.table.rows, result.table.rows):
            assert got[0] == src[0]
            assert got[1] == pytest.approx(src[1], abs=1e-6)


def test_all_negative_bars():
    chart = _chart([-5.0, -2.0, -9.0], labels=False)
    result = extract_chart(chart.svg)
    assert [row[1] for row in result.table.rows] == [-5.0, -2.0, -9.0]


def test_flat_line_chart():
    chart = _chart([7.0, 7.0, 7.0], chart_type=LINE_SINGLE, labels=False)
    result = extract_chart(chart.svg)
    assert [row[1] for row in result.table.rows] == [7.0, 7.0, 7.0]


def test_single_bar_chart():
    chart = _chart([42.0], labels=True)
    result = extract_chart(chart.svg)
    assert result.table.rows == (("c0", 42.0),)


def test_zero_valued_bar():
    chart = _chart([0.0, 10.0], labels=False)
    result = extract_chart(chart.svg)
    assert result.table.rows[0][1] == 0.0


def test_unicode_and_quoted_labels_survive():
    xs = ['Zürich', '北京', 'He said "hi"', "O'Neill & Sons"]
    chart = _chart([1.0, 2.5, 3.0, 4.0], xs=xs, labels=True)
    result = extract_chart(chart.svg)
    assert [row[0] for row in result.table.rows] == xs
    # and the same labels survive the flattened-table format
    assert unflatten_table(flatten_table(chart.table)) == chart.table


def test_small_magnitude_values():
    chart = _chart([0.02, 0.07, 0.04], labels=False)
    result = extract_chart(chart.svg)
    for src, got in zip(chart.table.rows, result.table.rows):
        assert got[1] == pytest.approx(src[1], rel=0.02)


def test_partially_labeled_pie_recovers_totals():
    chart = _chart([10.0, 5.0, 5.0], chart_type=PIE, labels=True)
    # Strip one value label out of the document to simulate partial labels.
    lines = chart.svg.splitlines()
    kept = []
    removed = 0
    for line in lines:
        if removed == 0 and 'class="mark-label"' in line:
            removed += 1
            continue
        kept.append(line)
    result = extract_chart("\n".join(kept))
    assert result.confidence == "recovered"
    assert [row[1] for row in result.table.rows] == pytest.approx(
        [10.0, 5.0, 5.0], abs=1e-3
    )
    assert result.table.columns[1].name == "V"  # not demoted to proportions
    assert any("partially labeled" in d for d in result.diagnostics)


def test_zero_slice_in_labeled_pie():
    chart = _chart([10.0, 0.0, 5.0], chart_type=PIE, labels=True)
    result = extract_chart(chart.svg)
    assert [row[1] for row in result.table.rows] == [10.0, 0.0, 5.0]


def test_grouped_negative_values_round_trip():
    wide = DataTable(
        [Column("X"), Column("g1", NUMERIC), Column("g2", NUMERIC)],
        [["a", -4.0, 2.0], ["b", 3.5, -1.0]],
    )
    table = ChartReadyTable(wide, Column("V", NUMERIC), group_name="G")
    chart = render(ChartSpec(GROUPED_BAR, table, StyleParams(show_data_labels=False)))
    result = extract_chart(chart.svg)
    assert result.table == chart.table or all(
        got[j] == pytest.approx(src[j], abs=1e-6)
        for src, got in zip(chart.table.rows, result.table.rows)
        for j in (1, 2)
    )


def test_random_arbitrary_type_charts_parse(tmp_path):
    # A wider seeded sweep than the acceptance loop, labels mixed.
    rng = random.Random(424242)
    for _ in range(60):
        chart = random_chart(rng)
        parsed = parse_chart_svg(chart.svg)
        assert len(parsed.marks) == len(chart.marks)
