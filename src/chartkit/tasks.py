"""Assembly of pretraining task records from rendered charts.

Five record streams share one JSONL shape ({"image", "prompt", "target",
"kind"}): flattened-table generation, data value estimation, template-based
numerical/visual reasoning QA, open-ended QA, and chart summarization.
Each prompt starts with exactly one registered task token.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import UnsupportedChartType
from .flatten import CELL_SEP, ROW_SEP, flatten_table, format_number
from .synth import PIE, RenderedChart
from .templates import REGISTRY, ChartView

TASK_KINDS = ("table", "value_estimation", "qa_reasoning", "qa_open", "summary")

PROMPT_TOKENS = {
    "table": "<extract_data_table>",
    "value_estimation": "<estimate_values>",
    "qa_reasoning": "<answer_question>",
    "qa_open": "<open_question>",
    "summary": "<summarize_chart>",
}


@dataclass(frozen=True)
class TaskRecord:
    image_ref: str
    task_prompt: str
    target: str
    task_kind: str

    def __post_init__(self):
        if self.task_kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.task_kind!r}")
        token = PROMPT_TOKENS[self.task_kind]
        if not self.task_prompt.startswith(token):
            raise ValueError(f"prompt must start with {token}")
        if not self.target:
            raise ValueError("target must be non-empty")

    def to_json_dict(self) -> dict:
        return {
            "image": self.image_ref,
            "prompt": self.task_prompt,
            "target": self.target,
            "kind": self.task_kind,
        }


def table_record(chart: RenderedChart, image_ref: str) -> TaskRecord:
    """Flattened-table generation target for one chart."""
    return TaskRecord(
        image_ref,
        PROMPT_TOKENS["table"],
        flatten_table(chart.table),
        "table",
    )


def value_estimation_target(chart: RenderedChart) -> str:
    """Mark heights as fractions of the plot area height, 2 decimals each.

    Bars contribute their bounding-box height; line points contribute their
    vertical offset from the plot bottom. One row per series (in legend
    order), cells in left-to-right order, joined like a flattened table.
    Pie slices have no height scale to estimate.
    """
    if chart.chart_type == PIE:
        raise UnsupportedChartType("value estimation is undefined for pie charts")
    plot = chart.plot_area
    view = ChartView(chart)
    rows = []
    for series in view.series_names:
        cells = []
        for mark in view.series_marks(series):
            if view.is_line:
                center = mark.bbox.y + mark.bbox.h / 2
                frac = (plot.bottom - center) / plot.h
            else:
                frac = mark.bbox.h / plot.h
            cells.append(format_number(frac))
        rows.append(CELL_SEP.join(cells))
    return ROW_SEP.join(rows)


def value_estimation_record(chart: RenderedChart, image_ref: str) -> TaskRecord:
    return TaskRecord(
        image_ref,
        PROMPT_TOKENS["value_estimation"],
        value_estimation_target(chart),
        "value_estimation",
    )


def generate_qa(
    chart: RenderedChart,
    count: int,
    rng_seed: int,
    image_ref: str,
) -> list[TaskRecord]:
    """Sample up to ``count`` template questions with oracle answers.

    Template and slot choices are drawn seed-deterministically; every
    (template, binding) pair is used at most once, so fewer records come
    back once applicability is exhausted.
    """
    view = ChartView(chart)
    rng = random.Random(rng_seed)
    remaining: dict[str, list[dict]] = {}
    for tid in sorted(REGISTRY):
        bindings = REGISTRY[tid].bindings(view)
        if bindings:
            remaining[tid] = bindings
    records = []
    while len(records) < count and remaining:
        tid = rng.choice(sorted(remaining))
        bindings = remaining[tid]
        binding = bindings.pop(rng.randrange(len(bindings)))
        if not bindings:
            del remaining[tid]
        template = REGISTRY[tid]
        question = template.question(binding)
        answer = template.answer(view, binding)
        records.append(
            TaskRecord(
                image_ref,
                f"{PROMPT_TOKENS['qa_reasoning']} {question}",
                answer,
                "qa_reasoning",
            )
        )
    return records

