import random

import pytest

from chartkit.errors import UnsupportedChartType
from chartkit.gen import random_chart
from chartkit.jsonl import read_jsonl, write_jsonl
from chartkit.synth import GROUPED_BAR, LINE_SINGLE, PIE, SIMPLE_BAR
from chartkit.tasks import (
    PROMPT_TOKENS,
    TaskRecord,
    generate_qa,
    table_record,
    value_estimation_record,
    value_estimation_target,
)
from test_templates import bar_chart, grouped_chart


def test_prompt_token_registry():
    assert PROMPT_TOKENS == {
        "table": "<extract_data_table>",
        "value_estimation": "<estimate_values>",
        "qa_reasoning": "<answer_question>",
        "qa_open": "<open_question>",
        "summary": "<summarize_chart>",
    }


def test_task_record_validation():
    with pytest.raises(ValueError):
        TaskRecord("img", "no-token question", "a", "qa_reasoning")
    with pytest.raises(ValueError):
        TaskRecord("img", "<answer_question> q", "", "qa_reasoning")
    with pytest.raises(ValueError):
        TaskRecord("img", "<answer_question> q", "a", "mystery")


def test_value_estimation_simple_fractions():
    # Bars at 35% / 100% / 25%-50%-75% of the axis height.
    chart = bar_chart([35, 100])
    # axis is 0..100, so fractions equal value/100
    assert value_estimation_target(chart) == "0.35 | 1"
    chart = bar_chart([25, 50, 75, 100])
    assert value_estimation_target(chart) == "0.25 | 0.5 | 0.75 | 1"


def test_value_estimation_formula_matches_bboxes():
    rng = random.Random(17)
    for _ in range(30):
        chart = random_chart(rng, chart_type=rng.choice([SIMPLE_BAR, GROUPED_BAR]))
        cells = []
        for row in value_estimation_target(chart).split(" & "):
            cells.extend(row.split(" | "))
        expected = []
        from chartkit.templates import ChartView

        view = ChartView(chart)
        for series in view.series_names:
            for mark in view.series_marks(series):
                frac = round(mark.bbox.h / chart.plot_area.h, 2)
                text = f"{frac:.2f}".rstrip("0").rstrip(".") or "0"
                expected.append(text)
        assert cells == expected
        for cell in cells:
            assert 0.0 <= float(cell) <= 1.0


def test_value_estimation_line_offsets():
    rng = random.Random(18)
    chart = random_chart(rng, chart_type=LINE_SINGLE)
    cells = value_estimation_target(chart).split(" | ")
    plot = chart.plot_area
    for cell, mark in zip(cells, chart.marks):
        center = mark.bbox.y + mark.bbox.h / 2
        assert float(cell) == round((plot.bottom - center) / plot.h, 2)


def test_value_estimation_rejects_pie():
    rng = random.Random(19)
    chart = random_chart(rng, chart_type=PIE)
    with pytest.raises(UnsupportedChartType):
        value_estimation_target(chart)


def test_table_record_round_trips_flatten():
    from chartkit.flatten import unflatten_table

    chart = bar_chart([5, 7.5])
    record = table_record(chart, image_ref="img.svg")
    assert record.task_prompt == "<extract_data_table>"
    assert unflatten_table(record.target) == chart.table


def test_generate_qa_deterministic_and_bounded():
    chart = grouped_chart({"g1": [1, 2, 3], "g2": [4, 5, 6]})
    a = generate_qa(chart, 12, rng_seed=9, image_ref="x.svg")
    b = generate_qa(chart, 12, rng_seed=9, image_ref="x.svg")
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]
    assert len(a) == 12
    assert all(r.task_prompt.startswith("<answer_question> ") for r in a)
    assert all(r.target for r in a)
    # No duplicate questions for one chart and seed.
    assert len({r.task_prompt for r in a}) == len(a)


def test_generate_qa_exhausts_gracefully():
    chart = bar_chart([1, 2])
    records = generate_qa(chart, 10_000, rng_seed=0, image_ref="x.svg")
    assert 0 < len(records) < 10_000


def test_records_jsonl_shape(tmp_path):
    chart = bar_chart([3, 4])
    records = [
        table_record(chart, image_ref="a.svg"),
        value_estimation_record(chart, image_ref="a.svg"),
    ]
    write_jsonl(tmp_path / "r.jsonl", (r.to_json_dict() for r in records))
    rows = read_jsonl(tmp_path / "r.jsonl")
    assert set(rows[0]) == {"image", "prompt", "target", "kind"}
    assert rows[1]["kind"] == "value_estimation"

