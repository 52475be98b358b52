"""Assembly of pretraining task records from rendered charts.

Five record streams share one JSONL shape ({"image", "prompt", "target",
"kind"}): flattened-table generation, data value estimation, template-based
numerical/visual reasoning QA, open-ended QA, and chart summarization.
Each prompt starts with exactly one registered task token.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import AnswerNotInSummary, MissingSummary, UnsupportedChartType
from .flatten import CELL_SEP, ROW_SEP, flatten_table
from .jsonl import encode_row
from .synth import PIE, RenderedChart
from .templates import REGISTRY, ChartView, SlotBinding

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

    @classmethod
    def from_json_dict(cls, data: dict) -> "TaskRecord":
        return cls(data["image"], data["prompt"], data["target"], data["kind"])


def records_to_jsonl(records: Iterable[TaskRecord]) -> str:
    return "".join(encode_row(r.to_json_dict()) for r in records)


def _image_ref(chart: RenderedChart, override: Optional[str]) -> str:
    ref = override if override is not None else chart.id
    if not ref:
        raise ValueError("chart has no id; pass image_ref explicitly")
    return ref


def table_record(chart: RenderedChart, image_ref: Optional[str] = None) -> TaskRecord:
    """Flattened-table generation target for one chart."""
    return TaskRecord(
        _image_ref(chart, image_ref),
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
            if chart.chart_type.startswith("line"):
                center = mark.bbox.y + mark.bbox.h / 2
                frac = (plot.bottom - center) / plot.h
            else:
                frac = mark.bbox.h / plot.h
            cell = f"{round(frac, 2):.2f}".rstrip("0").rstrip(".")
            cells.append(cell or "0")
        rows.append(CELL_SEP.join(cells))
    return ROW_SEP.join(rows)


def value_estimation_record(
    chart: RenderedChart, image_ref: Optional[str] = None
) -> TaskRecord:
    return TaskRecord(
        _image_ref(chart, image_ref),
        PROMPT_TOKENS["value_estimation"],
        value_estimation_target(chart),
        "value_estimation",
    )


def enumerate_applicable(chart: RenderedChart) -> list[str]:
    """Template ids instantiable on this chart (delegates to the registry)."""
    view = ChartView(chart)
    return [tid for tid in sorted(REGISTRY) if REGISTRY[tid].bindings(view)]


def generate_qa(
    chart: RenderedChart,
    count: int,
    rng_seed: int,
    image_ref: Optional[str] = None,
) -> list[TaskRecord]:
    """Sample up to ``count`` template questions with oracle answers.

    Template and slot choices are drawn seed-deterministically; every
    (template, binding) pair is used at most once, so fewer records come
    back once applicability is exhausted.
    """
    ref = _image_ref(chart, image_ref)
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
                ref,
                f"{PROMPT_TOKENS['qa_reasoning']} {question}",
                answer,
                "qa_reasoning",
            )
        )
    return records


def sample_binding(
    chart: RenderedChart, template_id: str, rng_seed: int
) -> Optional[SlotBinding]:
    """One seed-deterministic binding for a specific template, if applicable."""
    view = ChartView(chart)
    bindings = REGISTRY[template_id].bindings(view)
    if not bindings:
        return None
    rng = random.Random(rng_seed)
    return SlotBinding(template_id, rng.choice(bindings), rng_seed)


def assemble_summary_records(
    chart_ids: Iterable[str], summaries: dict[str, list[str]]
) -> list[TaskRecord]:
    """One summarization record per (chart, summary text) pair.

    Raises MissingSummary listing every chart id that has no non-empty
    summary on file.
    """
    ids = list(chart_ids)
    missing = [
        cid
        for cid in ids
        if not any(s.strip() for s in summaries.get(cid, []))
    ]
    if missing:
        raise MissingSummary(missing)
    records = []
    for cid in ids:
        for text in summaries[cid]:
            if text.strip():
                records.append(
                    TaskRecord(cid, PROMPT_TOKENS["summary"], text, "summary")
                )
    return records


def assemble_open_qa_records(
    qa_pairs: Iterable[tuple[str, str, str]],
    summaries: Optional[dict[str, str]] = None,
) -> tuple[list[TaskRecord], list[str]]:
    """Open-ended QA records from externally supplied (id, question, answer).

    When the chart has a summary on file, the answer sentence must appear
    verbatim inside it (that is where such answers come from); violations
    raise AnswerNotInSummary listing the offending pairs. Pairs for charts
    without a summary are accepted with an "unchecked" diagnostic.
    """
    summaries = summaries or {}
    records = []
    diagnostics = []
    rejected = []
    for cid, question, answer in qa_pairs:
        summary = summaries.get(cid)
        if summary is not None:
            if answer not in summary:
                rejected.append((cid, question))
                continue
        else:
            diagnostics.append(f"{cid}: unchecked (no summary on file)")
        records.append(
            TaskRecord(
                cid,
                f"{PROMPT_TOKENS['qa_open']} {question}",
                answer,
                "qa_open",
            )
        )
    if rejected:
        raise AnswerNotInSummary(rejected)
    return records, diagnostics
