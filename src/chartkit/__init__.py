"""chartkit: synthesize SVG charts from tables, extract tables back out,
emit pretraining task records, build distillation prompts, and score
chart-model outputs."""

from .errors import ChartKitError
from .extract import (
    BUILTIN_PROFILE,
    ExtractionResult,
    SelectorProfile,
    extract_chart,
    fit_axis_scale,
    parse_chart_svg,
    reconstruct_table,
)
from .flatten import flatten_table, format_number, unflatten_table
from .metrics import (
    MetricReport,
    corpus_bleu,
    relaxed_accuracy,
    rms_f1,
    rnss,
)
from .synth import (
    ChartSpec,
    MarkRecord,
    RenderedChart,
    StyleParams,
    choose_chart_type,
    diversify_style,
    render,
)
from .tables import (
    ChartReadyTable,
    Column,
    DataTable,
    decompose,
    infer_column_kinds,
)
from .tasks import (
    TaskRecord,
    generate_qa,
    value_estimation_target,
)
from .templates import (
    REGISTRY,
    ChartView,
    QATemplate,
    enumerate_applicable,
    template_catalog,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_PROFILE",
    "ChartKitError",
    "ChartReadyTable",
    "ChartSpec",
    "ChartView",
    "Column",
    "DataTable",
    "ExtractionResult",
    "MarkRecord",
    "MetricReport",
    "QATemplate",
    "REGISTRY",
    "RenderedChart",
    "SelectorProfile",
    "StyleParams",
    "TaskRecord",
    "choose_chart_type",
    "corpus_bleu",
    "decompose",
    "diversify_style",
    "enumerate_applicable",
    "extract_chart",
    "fit_axis_scale",
    "flatten_table",
    "format_number",
    "generate_qa",
    "infer_column_kinds",
    "parse_chart_svg",
    "reconstruct_table",
    "relaxed_accuracy",
    "render",
    "rms_f1",
    "rnss",
    "template_catalog",
    "unflatten_table",
    "value_estimation_target",
]
