"""Template registry for numerical and visual reasoning questions.

Ninety templates (T01..T90), each with an applicability predicate expressed
through its binding enumerator, a question renderer, and a deterministic
answer oracle that works off the rendered chart's marks and legend. Slot
values are always drawn from the chart itself (labels, legend colors,
actual data values), so every generated question is answerable from the
image alone.

Conventions shared by all oracles:
  * argmax/argmin ties resolve to the leftmost mark (then legend order);
  * "difference" means absolute difference; ratios round to 2 decimals;
  * mode ties resolve to the smallest value; medians of even counts
    average the two middle values;
  * positional words (topmost, leftmost, ...) read rendered pixel
    coordinates of mark bounding boxes, not table order;
  * numeric answers use the flattened-table number format, comparisons
    answer with the winning label, boolean questions with "Yes"/"No".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable

from .flatten import format_number as fmt
from .palettes import color_name
from .synth import (
    FAMILY,
    GROUPED_BAR,
    GROUPED_TYPES,
    SIMPLE_BAR,
    MarkRecord,
    RenderedChart,
)
from .tables import left_sum


def _cx(m: MarkRecord) -> float:
    return m.bbox.x + m.bbox.w / 2


def _top(m: MarkRecord) -> float:
    return m.bbox.y


def median(values: list[float]) -> float:
    s = sorted(values)
    n = len(s)
    if n % 2:
        return s[n // 2]
    return (s[n // 2 - 1] + s[n // 2]) / 2


def mode(values: list[float]) -> float:
    counts = Counter(values)
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def yes_no(cond: bool) -> str:
    return "Yes" if cond else "No"


class ChartView:
    """Read-only accessors over a rendered chart for template evaluation."""

    def __init__(self, chart: RenderedChart):
        self.chart = chart
        self.chart_type = chart.chart_type
        family = FAMILY.get(chart.chart_type)
        self.is_pie = family == "pie"
        self.is_bar = family == "bar"
        self.is_line = family == "line"
        self.grouped = chart.chart_type in GROUPED_TYPES
        self.marks = list(chart.marks)
        self.series_names = [name for name, _ in chart.legend]
        self.series_color = dict(chart.legend)
        self.color_word = {n: color_name(c) for n, c in chart.legend}
        words = Counter(self.color_word.values())
        self.unique_color = {
            self.color_word[n]: n
            for n in self.series_names
            if words[self.color_word[n]] == 1
        }

        if self.is_pie:
            self.x_labels = [m.x_label for m in self.marks]
        else:
            first_px: dict[str, float] = {}
            for m in self.marks:
                px = _cx(m)
                first_px[m.x_label] = min(first_px.get(m.x_label, px), px)
            self.x_labels = sorted(first_px, key=lambda x: first_px[x])

        self._by_series: dict[str, list[MarkRecord]] = {}
        for name in self.series_names:
            ms = [m for m in self.marks if m.series == name]
            ms.sort(key=_cx)
            self._by_series[name] = ms

    # -- values ---------------------------------------------------------

    def series_marks(self, series: str) -> list[MarkRecord]:
        return self._by_series[series]

    def values(self, series: str) -> list[float]:
        return [m.value for m in self._by_series[series]]

    def value_at(self, series: str, x: str) -> float:
        for m in self._by_series[series]:
            if m.x_label == x:
                return m.value
        raise KeyError((series, x))

    def single_value(self, x: str) -> float:
        """Value at an x label for single-series and pie charts."""
        for m in self.marks:
            if m.x_label == x:
                return m.value
        raise KeyError(x)

    def all_values(self) -> list[float]:
        return [m.value for m in self.marks]

    # -- geometry -------------------------------------------------------

    def left_sorted(self) -> list[MarkRecord]:
        return sorted(self.marks, key=lambda m: (_cx(m), _top(m)))

    def top_sorted(self) -> list[MarkRecord]:
        return sorted(self.marks, key=lambda m: (_top(m), _cx(m)))

    def bottom_sorted(self) -> list[MarkRecord]:
        return sorted(self.marks, key=lambda m: (-_top(m), _cx(m)))

    def cluster(self, x: str) -> list[MarkRecord]:
        return sorted((m for m in self.marks if m.x_label == x), key=_cx)

    def peak_mark(self, series: str) -> MarkRecord:
        """Highest mark of a series; pixel tie resolves to the leftmost."""
        return min(self.series_marks(series), key=lambda m: (_top(m), _cx(m)))

    def aligned(self, s1: str, s2: str) -> bool:
        return [m.x_label for m in self._by_series[s1]] == [
            m.x_label for m in self._by_series[s2]
        ]


@dataclass(frozen=True)
class QATemplate:
    id: str
    pattern: str
    slot_names: tuple[str, ...]
    bind: Callable[[ChartView], list[dict]]
    render: Callable[[dict], str]
    oracle: Callable[[ChartView, dict], str]

    def bindings(self, view: ChartView) -> list[dict]:
        return self.bind(view)

    def question(self, binding: dict) -> str:
        return self.render(binding)

    def answer(self, view: ChartView, binding: dict) -> str:
        return self.oracle(view, binding)


REGISTRY: dict[str, QATemplate] = {}


def _register(tid, pattern, slots, bind, render, oracle):
    REGISTRY[tid] = QATemplate(tid, pattern, tuple(slots), bind, render, oracle)


# -- binding enumeration helpers -----------------------------------------
#
# A binder maps a ChartView to its list of binding dicts. generate_qa draws
# from each list with rng.randrange, so every binder's order is part of the
# seeded task stream.


def _when(predicate, bind):
    """``bind``, on charts that satisfy ``predicate``; no bindings elsewhere."""
    return lambda view: bind(view) if predicate(view) else []


def _times(bind, name, options):
    """Each binding of ``bind`` once per option of slot ``name``."""
    return lambda view: [{**b, name: opt} for b in bind(view) for opt in options]


def _each(bind, extra):
    """Each binding of ``bind`` merged with every binding ``extra(view, binding)`` lists."""
    return lambda view: [{**b, **more} for b in bind(view) for more in extra(view, b)]


def _no_slots(predicate):
    return _when(predicate, lambda view: [{}])


def _alts(name, options, predicate):
    return _times(_no_slots(predicate), name, options)


def _colored_legend(view: ChartView, min_len: int = 1) -> list[tuple[str, str]]:
    """(color word, legend name), in legend order, for the legend entries
    whose color word is unambiguous and that have at least ``min_len``
    marks. A pie's legend entries are its segments, in slice order and
    with the slices' colors."""
    return [(w, name) for w, name in view.unique_color.items()
            if len(view.series_marks(name)) >= min_len]


def _colored_series(view: ChartView, min_len: int = 1) -> list[tuple[str, str]]:
    """(color word, series name) for series whose color word is unambiguous."""
    return [] if view.is_pie else _colored_legend(view, min_len)


def _colored_pairs(view: ChartView, min_len: int = 1, aligned: bool = False):
    return [
        (w1, s1, w2, s2)
        for (w1, s1), (w2, s2) in permutations(_colored_series(view, min_len), 2)
        if not aligned or view.aligned(s1, s2)
    ]


def _series_slot(view: ChartView, min_len: int = 1) -> list[str]:
    if view.is_pie:
        return []
    return [s for s in view.series_names if len(view.values(s)) >= min_len]


def _series_pairs(view: ChartView, aligned: bool = False):
    return [
        (s1, s2)
        for s1, s2 in permutations(_series_slot(view), 2)
        if not aligned or view.aligned(s1, s2)
    ]


def _x_pair_answer(view: ChartView, xa: str, xb: str) -> str:
    order = {x: i for i, x in enumerate(view.x_labels)}
    first, second = sorted((xa, xb), key=lambda x: order[x])
    return f"{first} and {second}"


def _per_x_diffs(view: ChartView, s1: str, s2: str) -> list[tuple[str, float]]:
    return [
        (m.x_label, abs(m.value - view.value_at(s2, m.x_label)))
        for m in view.series_marks(s1)
    ]


def _ratio(a: float, b: float) -> str:
    return fmt(round(a / b, 2))


def _bars_only(view: ChartView) -> bool:
    return view.is_bar


def _lines_only(view: ChartView) -> bool:
    return view.is_line


def _pies_only(view: ChartView) -> bool:
    return view.is_pie


def _grouped_bars(view: ChartView) -> bool:
    return view.chart_type == GROUPED_BAR


def _bind_colored(min_len=1):
    return lambda view: [
        {"color": w, "_series": s} for w, s in _colored_series(view, min_len)
    ]


def _bind_colored_pairs(min_len=1, aligned=False):
    return lambda view: [
        {"color_1": w1, "color_2": w2, "_series_1": s1, "_series_2": s2}
        for w1, s1, w2, s2 in _colored_pairs(view, min_len, aligned)
    ]


def _bind_series(min_len=1, predicate=None):
    """One binding per series whose values pass ``predicate``."""
    return lambda view: [
        {"legend_label": s}
        for s in _series_slot(view, min_len)
        if predicate is None or predicate(view.values(s))
    ]


def _bind_series_pairs(aligned=False):
    return lambda view: [
        {"legend_label_1": s1, "legend_label_2": s2}
        for s1, s2 in _series_pairs(view, aligned=aligned)
    ]


def _bind_legend_colors(view):
    """One binding per unambiguous legend color: a series, or a pie's segment."""
    return [{"color": w, "_series": name} for w, name in _colored_legend(view)]


def _bind_exceeded(view):
    """Each distinct value that some other value exceeds: all but the largest."""
    return [{"value": t} for t in sorted(set(view.all_values()))[:-1]]


def _unique_pairs(combine):
    """Pairs of a series' x labels whose combined value is unique after formatting."""
    def extra(view, b):
        marks = [(m.x_label, m.value) for m in view.series_marks(b["legend_label"])]
        combined = [(xa, xb, combine(a, b)) for (xa, a), (xb, b) in combinations(marks, 2)]
        counts = Counter(fmt(v) for _, _, v in combined)
        return [
            {"value": v, "_xa": xa, "_xb": xb}
            for xa, xb, v in combined
            if counts[fmt(v)] == 1
        ]

    return extra


def _values_slot(name):
    """Slot ``name`` over the colored series' distinct values, ascending."""
    return lambda view, b: [{name: t} for t in sorted(set(view.values(b["_series"])))]


def _x_labels(view: ChartView, series: str) -> list[str]:
    return [m.x_label for m in view.series_marks(series)]


# -- T01..T12: positional bar selection ----------------------------------

_register(
    "T01",
    "First bar from the top/left in the second group from the top/left",
    (),
    _no_slots(lambda v: _grouped_bars(v) and len(v.x_labels) >= 2),
    lambda b: "First bar from the left in the second group from the left",
    lambda v, b: fmt(v.cluster(v.x_labels[1])[0].value),
)

_register(
    "T02",
    "First bar from the bottom/right in the second group from the bottom/right",
    (),
    _no_slots(lambda v: _grouped_bars(v) and len(v.x_labels) >= 2),
    lambda b: "First bar from the right in the second group from the right",
    lambda v, b: fmt(v.cluster(v.x_labels[-2])[-1].value),
)

_register(
    "T03",
    "Second bar from the bottom/right in the first group from the bottom/right",
    (),
    _no_slots(lambda v: _grouped_bars(v) and len(v.cluster(v.x_labels[-1])) >= 2),
    lambda b: "Second bar from the right in the first group from the right",
    lambda v, b: fmt(v.cluster(v.x_labels[-1])[-2].value),
)

_register(
    "T04",
    "Second bar from the right/bottom in the first group from the left/top",
    (),
    _no_slots(lambda v: _grouped_bars(v) and len(v.cluster(v.x_labels[0])) >= 2),
    lambda b: "Second bar from the right in the first group from the left",
    lambda v, b: fmt(v.cluster(v.x_labels[0])[-2].value),
)

_register(
    "T05",
    "Topmost/Leftmost bar",
    ("alt",),
    _alts("alt", ("Topmost", "Leftmost"), _bars_only),
    lambda b: f"{b['alt']} bar",
    lambda v, b: fmt(
        (v.top_sorted() if b["alt"] == "Topmost" else v.left_sorted())[0].value
    ),
)

_register(
    "T06",
    "Bottommost/Rightmost bar",
    ("alt",),
    _alts("alt", ("Bottommost", "Rightmost"), _bars_only),
    lambda b: f"{b['alt']} bar",
    lambda v, b: fmt(
        v.bottom_sorted()[0].value if b["alt"] == "Bottommost"
        else v.left_sorted()[-1].value
    ),
)

_register(
    "T07",
    "Second bar from the top/left",
    ("alt",),
    _alts("alt", ("top", "left"), lambda v: _bars_only(v) and len(v.marks) >= 2),
    lambda b: f"Second bar from the {b['alt']}",
    lambda v, b: fmt(
        (v.top_sorted() if b["alt"] == "top" else v.left_sorted())[1].value
    ),
)

_register(
    "T08",
    "Second bar from the right/bottom",
    ("alt",),
    _alts("alt", ("right", "bottom"), lambda v: _bars_only(v) and len(v.marks) >= 2),
    lambda b: f"Second bar from the {b['alt']}",
    lambda v, b: fmt(
        v.left_sorted()[-2].value if b["alt"] == "right"
        else v.bottom_sorted()[1].value
    ),
)


def _corner_bar(view: ChartView, first_cluster: bool, topmost: bool) -> MarkRecord:
    x = view.x_labels[0] if first_cluster else view.x_labels[-1]
    ms = view.cluster(x)
    key = (lambda m: (_top(m), _cx(m))) if topmost else (lambda m: (-_top(m), _cx(m)))
    return min(ms, key=key)


_register(
    "T09", "Leftmost topmost bar", (),
    _no_slots(_bars_only),
    lambda b: "Leftmost topmost bar",
    lambda v, b: fmt(_corner_bar(v, True, True).value),
)
_register(
    "T10", "Leftmost bottommost bar", (),
    _no_slots(_bars_only),
    lambda b: "Leftmost bottommost bar",
    lambda v, b: fmt(_corner_bar(v, True, False).value),
)
_register(
    "T11", "Rightmost topmost bar", (),
    _no_slots(_bars_only),
    lambda b: "Rightmost topmost bar",
    lambda v, b: fmt(_corner_bar(v, False, True).value),
)
_register(
    "T12", "Rightmost bottommost bar", (),
    _no_slots(_bars_only),
    lambda b: "Rightmost bottommost bar",
    lambda v, b: fmt(_corner_bar(v, False, False).value),
)

# -- T13..T18: color and legend lookups -----------------------------------

_register(
    "T13", "Leftmost <color> data", ("color",),
    _bind_colored(),
    lambda b: f"Leftmost {b['color']} data",
    lambda v, b: fmt(v.series_marks(b["_series"])[0].value),
)
_register(
    "T14", "Rightmost <color> data", ("color",),
    _bind_colored(),
    lambda b: f"Rightmost {b['color']} data",
    lambda v, b: fmt(v.series_marks(b["_series"])[-1].value),
)
_register(
    "T15", "Second from the left <color> data", ("color",),
    _bind_colored(min_len=2),
    lambda b: f"Second from the left {b['color']} data",
    lambda v, b: fmt(v.series_marks(b["_series"])[1].value),
)
_register(
    "T16", "Second from the right <color> data", ("color",),
    _bind_colored(min_len=2),
    lambda b: f"Second from the right {b['color']} data",
    lambda v, b: fmt(v.series_marks(b["_series"])[-2].value),
)

_register(
    "T17", "Which legend represented by <color>?", ("color",),
    _bind_colored(),
    lambda b: f"Which legend is represented by the {b['color']} color?",
    lambda v, b: b["_series"],
)

_register(
    "T18", "What is the color of <legend>?", ("legend_label",),
    lambda v: [{"legend_label": s} for _, s in _colored_series(v)],
    lambda b: f"What is the color of {b['legend_label']}?",
    lambda v, b: v.color_word[b["legend_label"]],
)

# -- T19..T24: whole-chart arithmetic -------------------------------------

_register(
    "T19", "Which one is greater, <x1> or <x2>?", ("x1", "x2"),
    _when(lambda v: not v.grouped, lambda v: [
        {"x1": xa, "x2": xb}
        for xa, xb in combinations(v.x_labels, 2)
        if v.single_value(xa) != v.single_value(xb)
    ]),
    lambda b: f"Which one is greater, {b['x1']} or {b['x2']}?",
    lambda v, b: b["x1"]
    if v.single_value(b["x1"]) > v.single_value(b["x2"])
    else b["x2"],
)

_register(
    "T20", "Divide the sum of largest and lowest values by <n>", ("n",),
    _alts("n", (2, 3, 4), lambda v: len(v.marks) >= 2),
    lambda b: f"Divide the sum of largest and lowest values by {b['n']}",
    lambda v, b: fmt((max(v.all_values()) + min(v.all_values())) / b["n"]),
)

_register(
    "T21", "When did line <legend-label> peak?", ("legend_label",),
    _when(_lines_only, _bind_series()),
    lambda b: f"When did line {b['legend_label']} peak?",
    lambda v, b: v.peak_mark(b["legend_label"]).x_label,
)

_register(
    "T22",
    "What is the difference between maximum and minimum of <legend-label>?",
    ("legend_label",),
    _bind_series(min_len=2),
    lambda b: f"What is the difference between maximum and minimum of {b['legend_label']}?",
    lambda v, b: fmt(max(v.values(b["legend_label"])) - min(v.values(b["legend_label"]))),
)

_register(
    "T23", "Sum pie segments above <value>", ("value",),
    _when(_pies_only, _bind_exceeded),
    lambda b: f"Sum pie segments above {fmt(b['value'])}",
    lambda v, b: fmt(left_sum(x for x in v.all_values() if x > b["value"])),
)

_register(
    "T24", "What is the sum of top three values?", (),
    _no_slots(lambda v: len(v.marks) >= 3),
    lambda b: "What is the sum of top three values?",
    lambda v, b: fmt(left_sum(sorted(v.all_values(), reverse=True)[:3])),
)

# -- T25..T43: single- and two-series statistics ---------------------------


def _median_and_mode(view, b):
    """Median always; mode only when some value repeats."""
    vals = view.values(b["legend_label"])
    return [{"alt": "median"}] + ([{"alt": "mode"}] if len(set(vals)) < len(vals) else [])


_register(
    "T25", "What is the median/mode of <legend-label>?", ("alt", "legend_label"),
    _each(_bind_series(min_len=3), _median_and_mode),
    lambda b: f"What is the {b['alt']} of {b['legend_label']}?",
    lambda v, b: fmt(
        median(v.values(b["legend_label"]))
        if b["alt"] == "median"
        else mode(v.values(b["legend_label"]))
    ),
)

_register(
    "T26", "What is the negative peak of <legend-label>?", ("legend_label",),
    _bind_series(predicate=lambda vals: min(vals) < 0),
    lambda b: f"What is the negative peak of {b['legend_label']}?",
    lambda v, b: fmt(min(v.values(b["legend_label"]))),
)

_register(
    "T27", "What is the largest/smallest value of <legend-label>?",
    ("alt", "legend_label"),
    _times(_bind_series(), "alt", ("largest", "smallest")),
    lambda b: f"What is the {b['alt']} value of {b['legend_label']}?",
    lambda v, b: fmt(
        max(v.values(b["legend_label"])) if b["alt"] == "largest"
        else min(v.values(b["legend_label"]))
    ),
)

_register(
    "T28", "Which two x-axis labels of <legend-label> sums up to <value>?",
    ("legend_label", "value"),
    _each(_bind_series(min_len=2), _unique_pairs(lambda a, b: a + b)),
    lambda b: f"Which two x-axis labels of {b['legend_label']} sum up to {fmt(b['value'])}?",
    lambda v, b: _x_pair_answer(v, b["_xa"], b["_xb"]),
)

_register(
    "T29",
    "What is the sum of the second highest and second lowest value of <legend-label>?",
    ("legend_label",),
    _bind_series(min_len=4),
    lambda b: (
        f"What is the sum of the second highest and second lowest value of {b['legend_label']}?"
    ),
    lambda v, b: fmt(
        sorted(v.values(b["legend_label"]))[1] + sorted(v.values(b["legend_label"]))[-2]
    ),
)


def _rank_desc(view: ChartView, series: str) -> list[MarkRecord]:
    ms = view.series_marks(series)
    return sorted(ms, key=lambda m: (-m.value, _cx(m)))


_register(
    "T30", "Which x-axis label is second highest for <legend-label>?",
    ("legend_label",),
    _bind_series(min_len=2),
    lambda b: f"Which x-axis label is second highest for {b['legend_label']}?",
    lambda v, b: _rank_desc(v, b["legend_label"])[1].x_label,
)

_register(
    "T31", "What is the sum of two middle values of <legend-label>?",
    ("legend_label",),
    _bind_series(predicate=lambda vals: len(vals) >= 4 and len(vals) % 2 == 0),
    lambda b: f"What is the sum of two middle values of {b['legend_label']}?",
    lambda v, b: fmt(
        sorted(v.values(b["legend_label"]))[len(v.values(b["legend_label"])) // 2 - 1]
        + sorted(v.values(b["legend_label"]))[len(v.values(b["legend_label"])) // 2]
    ),
)

_register(
    "T32", "Which two x-axis labels of <legend-label> have a difference of <value>?",
    ("legend_label", "value"),
    _each(_bind_series(min_len=2), _unique_pairs(lambda a, b: abs(a - b))),
    lambda b: (
        f"Which two x-axis labels of {b['legend_label']} have a difference of {fmt(b['value'])}?"
    ),
    lambda v, b: _x_pair_answer(v, b["_xa"], b["_xb"]),
)

_register(
    "T33", "What is the average of <legend-label> from <x-label-1> to <x-label-2>?",
    ("legend_label", "x1", "x2"),
    _each(_bind_series(min_len=2), lambda v, b: [
        {"x1": xa, "x2": xb, "_i": i, "_j": j}
        for (i, xa), (j, xb) in combinations(enumerate(_x_labels(v, b["legend_label"])), 2)
    ]),
    lambda b: f"What is the average of {b['legend_label']} from {b['x1']} to {b['x2']}?",
    lambda v, b: fmt(
        left_sum(v.values(b["legend_label"])[b["_i"] : b["_j"] + 1]) / (b["_j"] - b["_i"] + 1)
    ),
)

_register(
    "T34", "What is the average of the highest and lowest value of <legend-label-l>?",
    ("legend_label",),
    _bind_series(min_len=2),
    lambda b: f"What is the average of the highest and lowest value of {b['legend_label']}?",
    lambda v, b: fmt(
        (max(v.values(b["legend_label"])) + min(v.values(b["legend_label"]))) / 2
    ),
)

_register(
    "T35",
    "What is the sum of the average of <legend-label-1> and average of <legend-label-2>?",
    ("legend_label_1", "legend_label_2"),
    _bind_series_pairs(),
    lambda b: (
        f"What is the sum of the average of {b['legend_label_1']} "
        f"and average of {b['legend_label_2']}?"
    ),
    lambda v, b: fmt(
        left_sum(v.values(b["legend_label_1"])) / len(v.values(b["legend_label_1"]))
        + left_sum(v.values(b["legend_label_2"])) / len(v.values(b["legend_label_2"]))
    ),
)

_register(
    "T36",
    "What is the sum/difference of the maximum of <legend-label-1> and minimum of <legend-label-2>?",
    ("alt", "legend_label_1", "legend_label_2"),
    _times(_bind_series_pairs(), "alt", ("sum", "difference")),
    lambda b: (
        f"What is the {b['alt']} of the maximum of {b['legend_label_1']} "
        f"and minimum of {b['legend_label_2']}?"
    ),
    lambda v, b: fmt(
        max(v.values(b["legend_label_1"])) + min(v.values(b["legend_label_2"]))
        if b["alt"] == "sum"
        else abs(max(v.values(b["legend_label_1"])) - min(v.values(b["legend_label_2"])))
    ),
)


def _t37_oracle(view, b):
    diffs = _per_x_diffs(view, b["legend_label_1"], b["legend_label_2"])
    best = (max if b["alt"] == "maximum" else min)(d for _, d in diffs)
    return next(x for x, d in diffs if d == best)


_register(
    "T37",
    "Which x-axis label has the maximum/minimum difference between "
    "<legend-label-1> and minimum of <legend-label-2>?",
    ("alt", "legend_label_1", "legend_label_2"),
    _times(_bind_series_pairs(aligned=True), "alt", ("maximum", "minimum")),
    lambda b: (
        f"Which x-axis label has the {b['alt']} difference between "
        f"{b['legend_label_1']} and {b['legend_label_2']}?"
    ),
    _t37_oracle,
)

_register(
    "T38", "Which x-axis label witnessed the smallest value of <legend-label>?",
    ("legend_label",),
    _bind_series(),
    lambda b: f"Which x-axis label witnessed the smallest value of {b['legend_label']}?",
    lambda v, b: min(
        v.series_marks(b["legend_label"]), key=lambda m: (m.value, _cx(m))
    ).x_label,
)


def _t39_oracle(view, b):
    # Ties resolve to the first mark in reading order, which is pixel order
    # for bars/lines and clockwise slice order for pies (where "leftmost"
    # by bounding box would be meaningless).
    pick = max if b["alt"] == "largest" else min
    best = pick(m.value for m in view.marks)
    return next(m for m in view.marks if m.value == best).x_label


_register(
    "T39", "Which label contains largest/smallest values across all labels?",
    ("alt",),
    _alts("alt", ("largest", "smallest"), lambda v: len(v.marks) >= 2),
    lambda b: f"Which label contains the {b['alt']} value across all labels?",
    _t39_oracle,
)

_register(
    "T40", "Sum up the medians of all the data series in this chart", (),
    _no_slots(lambda v: not v.is_pie and len(v.series_names) >= 2),
    lambda b: "Sum up the medians of all the data series in this chart",
    lambda v, b: fmt(left_sum(median(v.values(s)) for s in v.series_names)),
)

_register(
    "T41", "What is the average of all values above <value>?", ("value",),
    _bind_exceeded,
    lambda b: f"What is the average of all values above {fmt(b['value'])}?",
    lambda v, b: fmt(
        left_sum(x for x in v.all_values() if x > b["value"])
        / len([x for x in v.all_values() if x > b["value"]])
    ),
)

_register(
    "T42",
    "What is the sum of the largest and smallest difference between "
    "<legend-label-1> and <legend-label-2>?",
    ("legend_label_1", "legend_label_2"),
    _bind_series_pairs(aligned=True),
    lambda b: (
        f"What is the sum of the largest and smallest difference between "
        f"{b['legend_label_1']} and {b['legend_label_2']}?"
    ),
    lambda v, b: fmt(
        max(d for _, d in _per_x_diffs(v, b["legend_label_1"], b["legend_label_2"]))
        + min(d for _, d in _per_x_diffs(v, b["legend_label_1"], b["legend_label_2"]))
    ),
)

_register(
    "T43",
    "What is the maximum/minimum difference between <legend-label-1> and <legend-label-2>?",
    ("alt", "legend_label_1", "legend_label_2"),
    _times(_bind_series_pairs(aligned=True), "alt", ("maximum", "minimum")),
    lambda b: (
        f"What is the {b['alt']} difference between "
        f"{b['legend_label_1']} and {b['legend_label_2']}?"
    ),
    lambda v, b: fmt(
        (max if b["alt"] == "maximum" else min)(
            d for _, d in _per_x_diffs(v, b["legend_label_1"], b["legend_label_2"])
        )
    ),
)

# -- T44..T45, T89..T90: pie segments --------------------------------------

_register(
    "T44", "What is the ratio of the largest to the smallest pie segment?", (),
    _no_slots(lambda v: v.is_pie and len(v.marks) >= 2 and min(v.all_values()) > 0),
    lambda b: "What is the ratio of the largest to the smallest pie segment?",
    lambda v, b: _ratio(max(v.all_values()), min(v.all_values())),
)


def _bind_t45(view):
    if not (view.is_pie and len(view.marks) >= 2):
        return []
    s = sorted(view.all_values())
    out = []
    if s[-2] > 0:
        out.append({"alt": "largest"})
    if s[0] > 0:
        out.append({"alt": "smallest"})
    return out


_register(
    "T45", "What is the ratio of the two largest/smallest segments?", ("alt",),
    _bind_t45,
    lambda b: f"What is the ratio of the two {b['alt']} segments?",
    lambda v, b: _ratio(*(
        (sorted(v.all_values())[-1], sorted(v.all_values())[-2])
        if b["alt"] == "largest"
        else (sorted(v.all_values())[1], sorted(v.all_values())[0])
    )),
)

# -- T46..T54: bar positions and groups ------------------------------------

_register(
    "T46", "What is the difference between the leftmost and rightmost bars?", (),
    _no_slots(lambda v: _bars_only(v) and len(v.marks) >= 2),
    lambda b: "What is the difference between the leftmost and rightmost bars?",
    lambda v, b: fmt(abs(v.left_sorted()[0].value - v.left_sorted()[-1].value)),
)

_register(
    "T47", "What is the sum of the bars in the second group from the left?", (),
    _no_slots(lambda v: _grouped_bars(v) and len(v.x_labels) >= 2),
    lambda b: "What is the sum of the bars in the second group from the left?",
    lambda v, b: fmt(left_sum(m.value for m in v.cluster(v.x_labels[1]))),
)

_register(
    "T48", "What is the sum of the bars in the first group from the right?", (),
    _no_slots(lambda v: _grouped_bars(v)),
    lambda b: "What is the sum of the bars in the first group from the right?",
    lambda v, b: fmt(left_sum(m.value for m in v.cluster(v.x_labels[-1]))),
)

_register(
    "T49", "What is the ratio between the two leftmost bars?", (),
    _no_slots(
        lambda v: _bars_only(v) and len(v.marks) >= 2 and v.left_sorted()[1].value != 0
    ),
    lambda b: "What is the ratio between the two leftmost bars?",
    lambda v, b: _ratio(v.left_sorted()[0].value, v.left_sorted()[1].value),
)

_register(
    "T50",
    "What is the difference between the rightmost <color-1> bar and leftmost <color-2> bar?",
    ("color_1", "color_2"),
    _when(_bars_only, _bind_colored_pairs()),
    lambda b: (
        f"What is the difference between the rightmost {b['color_1']} bar "
        f"and the leftmost {b['color_2']} bar?"
    ),
    lambda v, b: fmt(
        abs(v.series_marks(b["_series_1"])[-1].value - v.series_marks(b["_series_2"])[0].value)
    ),
)

_register(
    "T51", "What is the average of <color> bars values?", ("color",),
    _when(_bars_only, _bind_colored()),
    lambda b: f"What is the average of the {b['color']} bars values?",
    lambda v, b: fmt(
        left_sum(v.values(b["_series"])) / len(v.values(b["_series"]))
    ),
)

_register(
    "T52", "How many <color> bars are larger than <N>?", ("color", "N"),
    _when(_bars_only, _each(_bind_colored(), _values_slot("N"))),
    lambda b: f"How many {b['color']} bars are larger than {fmt(b['N'])}?",
    lambda v, b: str(sum(1 for x in v.values(b["_series"]) if x > b["N"])),
)

_register(
    "T53", "What is the average of the bars in the second group from the right?", (),
    _no_slots(lambda v: _grouped_bars(v) and len(v.x_labels) >= 2),
    lambda b: "What is the average of the bars in the second group from the right?",
    lambda v, b: fmt(
        left_sum(m.value for m in v.cluster(v.x_labels[-2]))
        / len(v.cluster(v.x_labels[-2]))
    ),
)

_register(
    "T54", "How many bars in the leftmost group have a value over <N>?", ("N",),
    _when(_grouped_bars, lambda v: [
        {"N": t} for t in sorted({m.value for m in v.cluster(v.x_labels[0])})
    ]),
    lambda b: f"How many bars in the leftmost group have a value over {fmt(b['N'])}?",
    lambda v, b: str(
        sum(1 for m in v.cluster(v.x_labels[0]) if m.value > b["N"])
    ),
)

# -- T55..T63: color-addressed series stats ---------------------------------

_register(
    "T55", "What does the <color> represent?", ("color",),
    _bind_legend_colors,
    lambda b: f"What does the {b['color']} color represent?",
    lambda v, b: b["_series"],
)

_register(
    "T56", "What is the median value of the <color> bars/line?", ("color",),
    _bind_colored(min_len=3),
    lambda b: f"What is the median value of the {b['color']} series?",
    lambda v, b: fmt(median(v.values(b["_series"]))),
)

_register(
    "T57", "What is the average of the <color-1> sum and <color-2> sum?",
    ("color_1", "color_2"),
    _bind_colored_pairs(),
    lambda b: f"What is the average of the {b['color_1']} sum and the {b['color_2']} sum?",
    lambda v, b: fmt(
        (left_sum(v.values(b["_series_1"])) + left_sum(v.values(b["_series_2"]))) / 2
    ),
)

_register(
    "T58", "What is the average of the <color-1> median and <color-2> median?",
    ("color_1", "color_2"),
    _bind_colored_pairs(min_len=1),
    lambda b: (
        f"What is the average of the {b['color_1']} median and the {b['color_2']} median?"
    ),
    lambda v, b: fmt(
        (median(v.values(b["_series_1"])) + median(v.values(b["_series_2"]))) / 2
    ),
)

_register(
    "T59", "What is the least difference between the <color-1> and <color-2> bars/line?",
    ("color_1", "color_2"),
    _bind_colored_pairs(aligned=True),
    lambda b: (
        f"What is the least difference between the {b['color_1']} and {b['color_2']} values?"
    ),
    lambda v, b: fmt(
        min(d for _, d in _per_x_diffs(v, b["_series_1"], b["_series_2"]))
    ),
)

_register(
    "T60",
    "What is the ratio between the leftmost and rightmost bar in the first group from the left?",
    (),
    _no_slots(
        lambda v: _grouped_bars(v) and len(v.cluster(v.x_labels[0])) >= 2
        and v.cluster(v.x_labels[0])[-1].value != 0
    ),
    lambda b: (
        "What is the ratio between the leftmost and rightmost bar "
        "in the first group from the left?"
    ),
    lambda v, b: _ratio(
        v.cluster(v.x_labels[0])[0].value, v.cluster(v.x_labels[0])[-1].value
    ),
)

_register(
    "T61", "What is the maximum value in the <color> bars/line?", ("color",),
    _bind_colored(),
    lambda b: f"What is the maximum value in the {b['color']} series?",
    lambda v, b: fmt(max(v.values(b["_series"]))),
)

_register(
    "T62", "What is the minimum value in the <color> bars/line?", ("color",),
    _bind_colored(),
    lambda b: f"What is the minimum value in the {b['color']} series?",
    lambda v, b: fmt(min(v.values(b["_series"]))),
)

_register(
    "T63", "What is the sum of <color> bars/line?", ("color",),
    _bind_colored(),
    lambda b: f"What is the sum of the {b['color']} series?",
    lambda v, b: fmt(left_sum(v.values(b["_series"]))),
)

# -- T64..T79: mixed positional/color arithmetic ----------------------------

_register(
    "T64", "What is the difference between the maximum values of the two leftmost bar groups?",
    (),
    _no_slots(lambda v: _grouped_bars(v) and len(v.x_labels) >= 2),
    lambda b: "What is the difference between the maximum values of the two leftmost bar groups?",
    lambda v, b: fmt(
        abs(
            max(m.value for m in v.cluster(v.x_labels[0]))
            - max(m.value for m in v.cluster(v.x_labels[1]))
        )
    ),
)

_register(
    "T65", "Sum of the first <color-1> and last <color-2> bars/line points",
    ("color_1", "color_2"),
    _bind_colored_pairs(),
    lambda b: f"Sum of the first {b['color_1']} and last {b['color_2']} values",
    lambda v, b: fmt(
        v.series_marks(b["_series_1"])[0].value + v.series_marks(b["_series_2"])[-1].value
    ),
)

_register(
    "T66", "Difference between the two lowest <color> bars", ("color",),
    _when(_bars_only, _bind_colored(min_len=2)),
    lambda b: f"Difference between the two lowest {b['color']} bars",
    lambda v, b: fmt(
        sorted(v.values(b["_series"]))[1] - sorted(v.values(b["_series"]))[0]
    ),
)

_register(
    "T67", "Add largest and smallest <color> line/bar values and divide by 2",
    ("color",),
    _bind_colored(min_len=2),
    lambda b: f"Add largest and smallest {b['color']} values and divide by 2",
    lambda v, b: fmt(
        (max(v.values(b["_series"])) + min(v.values(b["_series"]))) / 2
    ),
)

_register(
    "T68", "What is the value of <color> line/bars in <x-axis-label>?", ("color", "x"),
    _each(_bind_colored(), lambda v, b: [{"x": x} for x in _x_labels(v, b["_series"])]),
    lambda b: f"What is the value of the {b['color']} series in {b['x']}?",
    lambda v, b: fmt(v.value_at(b["_series"], b["x"])),
)

_register(
    "T69", "Sum/Average of <color-1> and <color-2> values in <x-axis-label>?",
    ("alt", "color_1", "color_2", "x"),
    _times(_each(_bind_colored_pairs(), lambda v, b: [
        {"x": x} for x in _x_labels(v, b["_series_1"]) if x in _x_labels(v, b["_series_2"])
    ]), "alt", ("Sum", "Average")),
    lambda b: f"{b['alt']} of {b['color_1']} and {b['color_2']} values in {b['x']}?",
    lambda v, b: fmt(
        (v.value_at(b["_series_1"], b["x"]) + v.value_at(b["_series_2"], b["x"]))
        / (1 if b["alt"] == "Sum" else 2)
    ),
)

_register(
    "T70", "Sum of highest points in <color-1> and <color-2> lines/bars",
    ("color_1", "color_2"),
    _bind_colored_pairs(),
    lambda b: f"Sum of highest points in the {b['color_1']} and {b['color_2']} series",
    lambda v, b: fmt(
        max(v.values(b["_series_1"])) + max(v.values(b["_series_2"]))
    ),
)


def _t71_oracle(view, b):
    pick = max if b["alt"] == "highest" else min
    best_name = view.series_names[0]
    best_val = pick(view.values(best_name))
    for name in view.series_names[1:]:
        val = pick(view.values(name))
        if (b["alt"] == "highest" and val > best_val) or (
            b["alt"] == "smallest" and val < best_val
        ):
            best_name, best_val = name, val
    return view.color_word[best_name]


_register(
    "T71", "Which color has the highest/smallest values?", ("alt",),
    _alts(
        "alt", ("highest", "smallest"),
        lambda v: not v.is_pie and 2 <= len(v.series_names) == len(v.unique_color),
    ),
    lambda b: f"Which color has the {b['alt']} values?",
    _t71_oracle,
)

_register(
    "T72", "How many values are equal in <color-1> line/bar?", ("color",),
    _bind_colored(min_len=2),
    lambda b: f"How many values are equal in the {b['color']} series?",
    lambda v, b: str(
        sum(c for c in Counter(v.values(b["_series"])).values() if c >= 2)
    ),
)

_register(
    "T73", "Sum two rightmost values of <color> graph", ("color",),
    _bind_colored(min_len=2),
    lambda b: f"Sum the two rightmost values of the {b['color']} graph",
    lambda v, b: fmt(
        v.series_marks(b["_series"])[-1].value + v.series_marks(b["_series"])[-2].value
    ),
)

_register(
    "T74", "Product of two smallest values in the graph", (),
    _no_slots(lambda v: len(v.marks) >= 2),
    lambda b: "Product of the two smallest values in the graph",
    lambda v, b: fmt(sorted(v.all_values())[0] * sorted(v.all_values())[1]),
)

_register(
    "T75", "Sum of lowest and median values of <color> graph/bars", ("color",),
    _bind_colored(min_len=3),
    lambda b: f"Sum of the lowest and median values of the {b['color']} graph",
    lambda v, b: fmt(
        min(v.values(b["_series"])) + median(v.values(b["_series"]))
    ),
)

_register(
    "T76", "When did <color> line reached the peak?", ("color",),
    _when(_lines_only, _bind_colored()),
    lambda b: f"When did the {b['color']} line reach the peak?",
    lambda v, b: v.peak_mark(b["_series"]).x_label,
)

_register(
    "T77", "What is the average of the rightmost three points of <color> line?",
    ("color",),
    _when(_lines_only, _bind_colored(min_len=3)),
    lambda b: f"What is the average of the rightmost three points of the {b['color']} line?",
    lambda v, b: fmt(left_sum(v.values(b["_series"])[-3:]) / 3),
)

_register(
    "T78", "How many <color> data points are above <value>?", ("color", "value"),
    _each(_bind_colored(min_len=2), _values_slot("value")),
    lambda b: f"How many {b['color']} data points are above {fmt(b['value'])}?",
    lambda v, b: str(sum(1 for x in v.values(b["_series"]) if x > b["value"])),
)


def _nonzero_runners_up(view, b):
    """The second- and third-largest values, where they exist and are nonzero."""
    vals = sorted(view.values(b["_series"]), reverse=True)
    return [
        {"alt": alt}
        for k, alt in ((1, "second"), (2, "third"))
        if len(vals) > k and vals[k] != 0
    ]


_register(
    "T79", "What's the ratio of the largest and the third/second-largest <color> bar?",
    ("alt", "color"),
    _when(_bars_only, _each(_bind_colored(min_len=2), _nonzero_runners_up)),
    lambda b: (
        f"What's the ratio of the largest and the {b['alt']}-largest {b['color']} bar?"
    ),
    lambda v, b: _ratio(
        sorted(v.values(b["_series"]), reverse=True)[0],
        sorted(v.values(b["_series"]), reverse=True)[1 if b["alt"] == "second" else 2],
    ),
)

# -- T80..T88: comparisons and compound arithmetic ---------------------------

_register(
    "T80",
    "Is the sum of lowest value of <color-1> and <color-2> bar greater than "
    "largest value of <color-3> bar?",
    ("color_1", "color_2", "color_3"),
    _when(_grouped_bars, lambda v: [
        {"color_1": w1, "color_2": w2, "color_3": w3,
         "_series_1": s1, "_series_2": s2, "_series_3": s3}
        for (w1, s1), (w2, s2), (w3, s3) in permutations(_colored_series(v), 3)
    ]),
    lambda b: (
        f"Is the sum of the lowest values of the {b['color_1']} and {b['color_2']} bars "
        f"greater than the largest value of the {b['color_3']} bar?"
    ),
    lambda v, b: yes_no(
        min(v.values(b["_series_1"])) + min(v.values(b["_series_2"]))
        > max(v.values(b["_series_3"]))
    ),
)

_register(
    "T81",
    "Is the median value of <color-1> bars greater than the median value of <color-2> bars?",
    ("color_1", "color_2"),
    _when(_bars_only, _bind_colored_pairs()),
    lambda b: (
        f"Is the median value of the {b['color_1']} bars greater than "
        f"the median value of the {b['color_2']} bars?"
    ),
    lambda v, b: yes_no(
        median(v.values(b["_series_1"])) > median(v.values(b["_series_2"]))
    ),
)

_register(
    "T82",
    "Is the median of all the <color-1> bars greater than the largest value of <color-2> bar?",
    ("color_1", "color_2"),
    _when(_bars_only, _bind_colored_pairs()),
    lambda b: (
        f"Is the median of all the {b['color_1']} bars greater than "
        f"the largest value of the {b['color_2']} bars?"
    ),
    lambda v, b: yes_no(
        median(v.values(b["_series_1"])) > max(v.values(b["_series_2"]))
    ),
)

_register(
    "T83", "What's the product of <color> bars in India and Japan?",
    ("color", "x1", "x2"),
    _when(_bars_only, _each(_bind_colored(min_len=2), lambda v, b: [
        {"x1": xa, "x2": xb} for xa, xb in combinations(_x_labels(v, b["_series"]), 2)
    ])),
    lambda b: f"What's the product of the {b['color']} bars in {b['x1']} and {b['x2']}?",
    lambda v, b: fmt(v.value_at(b["_series"], b["x1"]) * v.value_at(b["_series"], b["x2"])),
)


def _t84_oracle(view, b):
    bars = view.left_sorted()
    n = len(bars)
    mid = bars[n // 2 - 1].value + bars[n // 2].value
    ends = max(m.value for m in bars) + min(m.value for m in bars)
    return yes_no(mid > ends)


_register(
    "T84", "Is the sum of the two middle bars greater than the sum of top and bottom bars?",
    (),
    _no_slots(
        lambda v: v.chart_type == SIMPLE_BAR
        and len(v.marks) >= 4 and len(v.marks) % 2 == 0
    ),
    lambda b: "Is the sum of the two middle bars greater than the sum of the top and bottom bars?",
    _t84_oracle,
)

_register(
    "T85",
    "What's the ratio of the <x-axis-label-1> <color-1> bar and the <x-axis-2> <color-2> bar?",
    ("x1", "color_1", "x2", "color_2"),
    _when(_bars_only, _each(_bind_colored_pairs(), lambda v, b: [
        {"x1": x1, "x2": m.x_label}
        for x1 in _x_labels(v, b["_series_1"])
        for m in v.series_marks(b["_series_2"])
        if m.value != 0
    ])),
    lambda b: (
        f"What's the ratio of the {b['x1']} {b['color_1']} bar "
        f"and the {b['x2']} {b['color_2']} bar?"
    ),
    lambda v, b: _ratio(
        v.value_at(b["_series_1"], b["x1"]), v.value_at(b["_series_2"], b["x2"])
    ),
)

_register(
    "T86", "Is the total of all <color-1> bars greater than the total of all <color-2> bars?",
    ("color_1", "color_2"),
    _when(_bars_only, _bind_colored_pairs()),
    lambda b: (
        f"Is the total of all {b['color_1']} bars greater than "
        f"the total of all {b['color_2']} bars?"
    ),
    lambda v, b: yes_no(
        left_sum(v.values(b["_series_1"])) > left_sum(v.values(b["_series_2"]))
    ),
)

_register(
    "T87",
    "Take the sum of the two smallest <color-1> bars and smallest <color-2> bars, "
    "deduct the smaller value from the larger value, what's the result?",
    ("color_1", "color_2"),
    _when(_bars_only, _bind_colored_pairs(min_len=2)),
    lambda b: (
        f"Take the sum of the two smallest {b['color_1']} bars and the two smallest "
        f"{b['color_2']} bars, deduct the smaller value from the larger value, "
        "what's the result?"
    ),
    lambda v, b: fmt(
        abs(
            left_sum(sorted(v.values(b["_series_1"]))[:2])
            - left_sum(sorted(v.values(b["_series_2"]))[:2])
        )
    ),
)


def _t88_oracle(view, b):
    vals = sorted(view.values(b["_series"]))
    two = vals[:2] if b["which"] == "smallest" else vals[-2:]
    total = left_sum(two)
    return fmt(total if b["alt"] == "sum" else total / 2)


_register(
    "T88", "What is the sum/average of two smallest/largest <color> bars?",
    ("alt", "which", "color"),
    _when(_bars_only, _times(
        _times(_bind_colored(min_len=2), "alt", ("sum", "average")),
        "which", ("smallest", "largest"),
    )),
    lambda b: f"What is the {b['alt']} of the two {b['which']} {b['color']} bars?",
    _t88_oracle,
)

_register(
    "T89", "What is the ratio of <color-1> and <color-2> segments?",
    ("color_1", "color_2"),
    _when(_pies_only, lambda v: [
        {"color_1": w1, "color_2": w2, "_x1": x1, "_x2": x2}
        for (w1, x1), (w2, x2) in permutations(_colored_legend(v), 2)
        if v.single_value(x2) != 0
    ]),
    lambda b: f"What is the ratio of the {b['color_1']} and {b['color_2']} segments?",
    lambda v, b: _ratio(v.single_value(b["_x1"]), v.single_value(b["_x2"])),
)

_register(
    "T90", "What segment is represented by <color>?", ("color",),
    _when(_pies_only, _bind_legend_colors),
    lambda b: f"What segment is represented by the {b['color']} color?",
    lambda v, b: b["_series"],
)


assert len(REGISTRY) == 90, f"template registry has {len(REGISTRY)} entries"


APPLICABILITY = {
    "T01": "grouped bar charts with at least 2 groups",
    "T02": "grouped bar charts with at least 2 groups",
    "T03": "grouped bar charts with at least 2 bars per group",
    "T04": "grouped bar charts with at least 2 bars per group",
    "T05": "bar charts",
    "T06": "bar charts",
    "T07": "bar charts with at least 2 bars",
    "T08": "bar charts with at least 2 bars",
    "T09": "bar charts",
    "T10": "bar charts",
    "T11": "bar charts",
    "T12": "bar charts",
    "T13": "bar/line charts with an unambiguously named series color",
    "T14": "bar/line charts with an unambiguously named series color",
    "T15": "colored series with at least 2 points",
    "T16": "colored series with at least 2 points",
    "T17": "charts with a legend and an unambiguous color word",
    "T18": "charts with a legend and an unambiguous color word",
    "T19": "ungrouped charts with two unequal values",
    "T20": "any chart with at least 2 values",
    "T21": "line charts",
    "T22": "bar/line charts, series with at least 2 values",
    "T23": "pie charts with a value that others exceed",
    "T24": "any chart with at least 3 values",
    "T25": "series with at least 3 values (mode needs a duplicate)",
    "T26": "series containing a negative value",
    "T27": "bar/line charts with a named series",
    "T28": "series with a pair whose sum is unique",
    "T29": "series with at least 4 values",
    "T30": "series with at least 2 values",
    "T31": "series with an even count of at least 4 values",
    "T32": "series with a pair whose difference is unique",
    "T33": "series with at least 2 x labels",
    "T34": "series with at least 2 values",
    "T35": "charts with two distinct series",
    "T36": "charts with two distinct series",
    "T37": "two series sharing the same x labels",
    "T38": "bar/line charts with a named series",
    "T39": "any chart with at least 2 values",
    "T40": "charts with at least 2 series",
    "T41": "any chart with a value that others exceed",
    "T42": "two series sharing the same x labels",
    "T43": "two series sharing the same x labels",
    "T44": "pie charts with positive segments",
    "T45": "pie charts with at least 2 segments",
    "T46": "bar charts with at least 2 bars",
    "T47": "grouped bar charts with at least 2 groups",
    "T48": "grouped bar charts",
    "T49": "bar charts whose second bar is nonzero",
    "T50": "grouped bars with two unambiguously colored series",
    "T51": "bar charts with an unambiguously colored series",
    "T52": "bar charts with an unambiguously colored series",
    "T53": "grouped bar charts with at least 2 groups",
    "T54": "grouped bar charts",
    "T55": "charts with a legend and an unambiguous color word",
    "T56": "colored series with at least 3 values",
    "T57": "two unambiguously colored series",
    "T58": "two unambiguously colored series",
    "T59": "two colored series sharing the same x labels",
    "T60": "grouped bars, first group's last bar nonzero",
    "T61": "bar/line charts with an unambiguously colored series",
    "T62": "bar/line charts with an unambiguously colored series",
    "T63": "bar/line charts with an unambiguously colored series",
    "T64": "grouped bar charts with at least 2 groups",
    "T65": "two unambiguously colored series",
    "T66": "colored bar series with at least 2 values",
    "T67": "colored series with at least 2 values",
    "T68": "colored series (lookup by x label)",
    "T69": "two colored series sharing an x label",
    "T70": "two unambiguously colored series",
    "T71": "multi-series charts whose color words are all distinct",
    "T72": "colored series with at least 2 values",
    "T73": "colored series with at least 2 values",
    "T74": "any chart with at least 2 values",
    "T75": "colored series with at least 3 values",
    "T76": "line charts with an unambiguously colored series",
    "T77": "line series with at least 3 points",
    "T78": "colored series with at least 2 values",
    "T79": "colored bar series with nonzero runner-up values",
    "T80": "grouped bars with three unambiguously colored series",
    "T81": "two unambiguously colored bar series",
    "T82": "two unambiguously colored bar series",
    "T83": "colored bar series with at least 2 x labels",
    "T84": "simple bar charts with an even count of at least 4 bars",
    "T85": "grouped bars with two colored series (nonzero divisor)",
    "T86": "two unambiguously colored bar series",
    "T87": "two colored bar series with at least 2 values each",
    "T88": "colored bar series with at least 2 values",
    "T89": "pie charts with two unambiguously colored segments",
    "T90": "pie charts with unambiguously colored segments",
}

assert set(APPLICABILITY) == set(REGISTRY)


def enumerate_applicable(chart: RenderedChart) -> list[str]:
    """Ids of every template with at least one valid binding on this chart."""
    view = ChartView(chart)
    return [tid for tid in sorted(REGISTRY) if REGISTRY[tid].bindings(view)]


def template_catalog() -> list[dict]:
    """JSON-friendly catalog of all templates (id, pattern, slots, applicability)."""
    return [
        {
            "id": t.id,
            "pattern": t.pattern,
            "slots": list(t.slot_names),
            "applicability": APPLICABILITY[t.id],
        }
        for _, t in sorted(REGISTRY.items())
    ]
