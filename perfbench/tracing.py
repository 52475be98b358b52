"""In-memory spans around chartkit's layer functions, for the traced runs.

Tracing wraps a function through the name its caller looks up (for example
``chartkit.metrics.hungarian``, which is what ``rnss`` and ``rms_f1`` call,
not ``chartkit.assignment.hungarian``) and restores every original when the
traced pass ends. Nothing is patched outside a ``traced`` block, so the
untraced passes run chartkit exactly as a user does.

A span records its name, its parent's name and its self time: its duration
minus the durations of the spans it directly caused.
"""

from __future__ import annotations

import contextlib
import functools
import pathlib
import statistics
from collections import Counter
from time import perf_counter


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, str | None, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []

    def wrap(self, name, fn, cells=None):
        """``fn`` recording a span per call; ``cells(*args)`` adds a work count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((name, parent, duration, duration - frame[1]))
                self.counts[f"{name}_calls"] += 1
                if cells is not None:
                    self.counts[f"{name}_cells"] += cells(*args)

        return traced

    def self_s(self, name, parent=None) -> float:
        return sum(s[3] for s in self.spans
                   if s[0] == name and (parent is None or s[1] == parent))

    def total_s(self, name) -> float:
        return sum(s[2] for s in self.spans if s[0] == name)


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a span adds to one call: a wrapped no-op against the bare
    no-op, median of ``repeats`` timings of ``calls`` calls each."""

    def noop():
        pass

    costs = []
    for _ in range(repeats):
        wrapped = Tracer().wrap("noop", noop)
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        middle = perf_counter()
        for _ in range(calls):
            noop()
        costs.append((2 * middle - start - perf_counter()) / calls)
    return statistics.median(costs)


def _targets(ck):
    """(owner, attribute, span name, cells) for every traced layer function."""
    pipeline, metrics = ck.pipeline, ck.metrics
    return [
        # synthesize
        (pipeline, "synthesize", "pipeline.synthesize", None),
        (pipeline, "make_chart", "pipeline.make_chart", None),
        (pipeline, "render", "synth.render", None),
        # extract
        (pipeline, "extract_corpus", "pipeline.extract_corpus", None),
        (pipeline, "extract_chart", "extract.extract_chart", None),
        (ck.extract, "parse_chart_svg", "extract.parse_chart_svg", None),
        (ck.extract.ET, "fromstring", "extract.xml_parse", None),
        (ck.extract, "fit_axis_scale", "extract.fit_axis_scale", None),
        (ck.extract, "reconstruct_table", "extract.reconstruct_table", None),
        # gen-tasks
        (pipeline, "gen_tasks", "pipeline.gen_tasks", None),
        (pipeline, "load_chart", "pipeline.load_chart", None),
        (pipeline, "generate_qa", "tasks.generate_qa", None),
        (ck.tasks, "ChartView", "templates.chart_view", None),
        (ck.templates.QATemplate, "bindings", "templates.bindings", None),
        (ck.templates.QATemplate, "answer", "templates.oracle", None),
        # distill
        (pipeline, "build_table_summary_prompt", "distill.prompt", None),
        (ck.distill.BatchDriver, "run", "distill.driver", None),
        (ck.distill.FallbackBackend, "complete", "distill.fallback", None),
        # eval
        (pipeline, "_load_jsonl", "pipeline.evaluate_read", None),
        (metrics, "relaxed_accuracy", "metrics.relaxed_accuracy", None),
        (metrics, "rnss", "metrics.rnss", None),
        (metrics, "unflatten_table", "flatten.unflatten", None),
        (metrics, "rms_f1", "metrics.rms_f1", None),
        (metrics, "levenshtein", "metrics.levenshtein",
         lambda a, b: len(a) * len(b)),
        (metrics, "hungarian", "assignment.hungarian",
         lambda cost: len(cost) ** 3),
        (metrics, "corpus_bleu", "metrics.corpus_bleu", None),
    ]


@contextlib.contextmanager
def traced(ck, tracer: Tracer):
    """Route chartkit's layer calls through ``tracer`` for the block's length.

    ``pipeline.Path`` is swapped for a subclass whose ``read_text`` records
    a span, so file reads done by the pipeline stages show as their own
    layer (``io.read_text``) under the stage that made them.
    """
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for owner, attr, name, cells in _targets(ck):
            patch(owner, attr, tracer.wrap(name, getattr(owner, attr), cells))
        base = type(pathlib.Path())
        traced_path = type("TracedPath", (base,), {
            "read_text": tracer.wrap("io.read_text", base.read_text),
        })
        patch(ck.pipeline, "Path", traced_path)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metric -> how it is read off one traced pass. "self" is the
# summed self time of a span name (optionally only under one parent);
# "total" is the summed duration; "count" is a counter.
LAYER_METRICS = {
    "pipeline.make_chart_s": ("self", "pipeline.make_chart", None),
    "synth.render_s": ("self", "synth.render", None),
    "synth.write_s": ("self", "pipeline.synthesize", None),
    "extract.read_s": ("self", "io.read_text", "pipeline.extract_corpus"),
    "extract.write_s": ("self", "pipeline.extract_corpus", None),
    "extract.xml_parse_s": ("self", "extract.xml_parse", None),
    "extract.walk_s": ("self", "extract.parse_chart_svg", None),
    "extract.fit_axis_scale_s": ("self", "extract.fit_axis_scale", None),
    "extract.reconstruct_table_s": ("self", "extract.reconstruct_table", None),
    "tasks.load_chart_s": ("total", "pipeline.load_chart", None),
    "tasks.generate_qa_s": ("self", "tasks.generate_qa", None),
    "templates.chart_view_s": ("self", "templates.chart_view", None),
    "templates.chart_view_calls": ("count", "templates.chart_view_calls", None),
    "templates.bindings_s": ("self", "templates.bindings", None),
    "templates.bindings_calls": ("count", "templates.bindings_calls", None),
    "templates.oracle_s": ("self", "templates.oracle", None),
    "tasks.write_s": ("self", "pipeline.gen_tasks", None),
    "distill.prompt_s": ("self", "distill.prompt", None),
    "distill.fallback_s": ("self", "distill.fallback", None),
    "distill.driver_self_s": ("self", "distill.driver", None),
    "metrics.levenshtein_s": ("self", "metrics.levenshtein", None),
    "metrics.levenshtein_calls": ("count", "metrics.levenshtein_calls", None),
    "metrics.levenshtein_cells": ("count", "metrics.levenshtein_cells", None),
    "assignment.hungarian_s": ("self", "assignment.hungarian", None),
    "assignment.hungarian_calls": ("count", "assignment.hungarian_calls", None),
    "assignment.hungarian_cells": ("count", "assignment.hungarian_cells", None),
    "metrics.corpus_bleu_s": ("self", "metrics.corpus_bleu", None),
    "flatten.unflatten_s": ("self", "flatten.unflatten", None),
    "metrics.rnss_s": ("self", "metrics.rnss", None),
    "metrics.rms_f1_s": ("self", "metrics.rms_f1", None),
    "metrics.relaxed_accuracy_s": ("self", "metrics.relaxed_accuracy", None),
    "pipeline.evaluate_read_s": ("total", "pipeline.evaluate_read", None),
    # outcome counts the workload copies from the stages' return values
    "extract.exact": ("count", "extract.exact", None),
    "extract.recovered": ("count", "extract.recovered", None),
    "extract.failed": ("count", "extract.failed", None),
    "tasks.qa_records": ("count", "tasks.qa_records", None),
}


def layer_values(tracer: Tracer) -> dict:
    """Every LAYER_METRICS value of one traced pass (0 where a layer idled)."""
    out = {}
    for metric, (how, name, parent) in LAYER_METRICS.items():
        if how == "self":
            out[metric] = tracer.self_s(name, parent)
        elif how == "total":
            out[metric] = tracer.total_s(name)
        else:
            out[metric] = tracer.counts[name]
    return out


def combine_passes(passes: list[dict]) -> dict:
    """Median of each time over traced passes; counts must all agree."""
    out = {}
    for metric, (how, _, _) in LAYER_METRICS.items():
        values = [p[metric] for p in passes]
        out[metric] = values[0] if how == "count" else statistics.median(values)
    return out


def count_mismatches(passes: list[dict]) -> list[str]:
    """Counts that did not repeat exactly between traced passes."""
    return [
        f"{metric} differs between traced passes: {[p[metric] for p in passes]}"
        for metric, (how, _, _) in LAYER_METRICS.items()
        if how == "count" and len({p[metric] for p in passes}) > 1
    ]
